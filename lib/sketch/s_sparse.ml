module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Codec = Matprod_comm.Codec
module Metrics = Matprod_obs.Metrics

let c_hash = Metrics.counter "hash_evals"
let c_cells = Metrics.counter "sketch_cells_touched"
let h_build = Metrics.histogram ~label:"s_sparse" "sketch_build_ns"

type t = {
  reps : int;
  buckets : int;
  spec : One_sparse.spec;
  hashes : Hashing.t array;
}

type state = int array

let create rng ~s ~reps =
  if s < 1 || reps < 1 then invalid_arg "S_sparse.create: parameters";
  (* Bucket hashes draw before the fingerprints; the order fixes the coins. *)
  let hashes = Array.init reps (fun _ -> Hashing.create rng ~k:2) in
  { reps; buckets = 2 * s; spec = One_sparse.spec rng; hashes }

let cells t = t.reps * t.buckets
let fresh t = Array.make (One_sparse.words * cells t) 0

let bucket_of t ~rep i = (rep * t.buckets) + Hashing.bucket t.hashes.(rep) ~buckets:t.buckets i

let update_quiet t state i v =
  if v <> 0 then
    for r = 0 to t.reps - 1 do
      One_sparse.update t.spec state (bucket_of t ~rep:r i) i v
    done

(* Per rep: one bucket hash plus the cell's two fingerprint coefficients.
   Metrics hoisted above the rep loop (and above the entry loop in
   [sketch]); One_sparse itself stays uninstrumented — it is the innermost
   kernel, its accounting lives here. *)
let update t state i v =
  if v <> 0 then begin
    if Metrics.enabled () then begin
      Metrics.incr_by c_hash (3 * t.reps);
      Metrics.incr_by c_cells t.reps
    end;
    update_quiet t state i v
  end

let sketch t vec =
  Metrics.timed h_build (fun () ->
      let st = fresh t in
      if Metrics.enabled () then begin
        let nnz =
          Array.fold_left (fun acc (_, v) -> if v <> 0 then acc + 1 else acc) 0 vec
        in
        Metrics.incr_by c_hash (3 * t.reps * nnz);
        Metrics.incr_by c_cells (t.reps * nnz)
      end;
      Array.iter (fun (i, v) -> update_quiet t st i v) vec;
      st)

let add_scaled t ~dst ~coeff src =
  let n = One_sparse.words * cells t in
  if Array.length dst <> n || Array.length src <> n then
    invalid_arg "S_sparse.add_scaled: size mismatch";
  for k = 0 to cells t - 1 do
    One_sparse.add_scaled dst ~coeff src k
  done

type result = Ok of (int * int) list | Fail

let decode t state =
  let work = Array.copy state in
  let recovered : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let subtract i v =
    for r = 0 to t.reps - 1 do
      One_sparse.update t.spec work (bucket_of t ~rep:r i) i (-v)
    done
  in
  let progress = ref true in
  (* Each successful peel removes a coordinate; cap the passes defensively. *)
  let passes = ref 0 in
  while !progress && !passes <= cells t + 1 do
    progress := false;
    incr passes;
    for k = 0 to cells t - 1 do
      match One_sparse.decode t.spec work k with
      | One_sparse.One (i, v) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt recovered i) in
          Hashtbl.replace recovered i (prev + v);
          subtract i v;
          progress := true
      | One_sparse.Zero | One_sparse.Many -> ()
    done
  done;
  if Array.for_all (fun w -> w = 0) work then
    let pairs =
      Hashtbl.fold
        (fun i v acc -> if v = 0 then acc else (i, v) :: acc)
        recovered []
      |> List.sort compare
    in
    Ok pairs
  else Fail

let wire t =
  let check st =
    if Array.length st = One_sparse.words * cells t then st
    else raise (Codec.Decode_error "S_sparse.wire: cell count")
  in
  Codec.map Fun.id check (One_sparse.cells_wire ~max_cells:(cells t))
