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

type state = One_sparse.cells

let create rng ~s ~reps =
  if s < 1 || reps < 1 then invalid_arg "S_sparse.create: parameters";
  (* Bucket hashes draw before the fingerprints; the order fixes the coins. *)
  let hashes = Array.init reps (fun _ -> Hashing.create rng ~k:2) in
  { reps; buckets = 2 * s; spec = One_sparse.spec rng; hashes }

let cells t = t.reps * t.buckets
let fresh t = { One_sparse.count = cells t; nonzero = [||]; cell_words = [||] }

let bucket_of t ~rep i = (rep * t.buckets) + Hashing.bucket t.hashes.(rep) ~buckets:t.buckets i

(* Sparse states are summed by sorting what goes into each cell: [keys]
   are (cell lsl 32) lor j, and [add words slot j] adds contribution j
   into output cell [slot]. Each cell's run lands in the next slot, kept
   unless it sums to zero, so no zero cell is written or scanned. Cell
   words add commutatively (wrapping ints, canonical field residues), so
   every cell is the one adding into dense storage would give. *)
let collect t keys add =
  Array.sort Int.compare keys;
  let m = Array.length keys in
  let nonzero = Array.make m 0 and words = Array.make (One_sparse.words * m) 0 in
  let out = ref 0 and x = ref 0 in
  while !x < m do
    let k = keys.(!x) lsr 32 in
    while !x < m && keys.(!x) lsr 32 = k do
      add words !out (keys.(!x) land 0xFFFF_FFFF);
      incr x
    done;
    if not (One_sparse.is_zero words !out) then begin
      nonzero.(!out) <- k;
      incr out
    end
  done;
  {
    One_sparse.count = cells t;
    nonzero = Array.sub nonzero 0 !out;
    cell_words = Array.sub words 0 (One_sparse.words * !out);
  }

(* Each nonzero entry goes into one cell per rep. Per rep: one bucket
   hash plus the cell's two fingerprint coefficients. *)
let build t vec =
  let nnz = Array.fold_left (fun acc (_, v) -> if v <> 0 then acc + 1 else acc) 0 vec in
  if Metrics.enabled () then begin
    Metrics.incr_by c_hash (3 * t.reps * nnz);
    Metrics.incr_by c_cells (t.reps * nnz)
  end;
  let keys = Array.make (t.reps * nnz) 0 and m = ref 0 in
  Array.iteri
    (fun e (i, v) ->
      if v <> 0 then begin
        if i < 0 then invalid_arg "One_sparse.update: negative index";
        for r = 0 to t.reps - 1 do
          keys.(!m) <- (bucket_of t ~rep:r i lsl 32) lor e;
          incr m
        done
      end)
    vec;
  collect t keys (fun words slot e ->
      let i, v = vec.(e) in
      One_sparse.update t.spec words slot i v)

let sketch t vec = Metrics.timed h_build (fun () -> build t vec)

let add_scaled t (acc : state) ~coeff (src : state) =
  if acc.count <> cells t || src.count <> cells t then
    invalid_arg "S_sparse.add_scaled: size mismatch";
  if coeff = 0 then acc
  else
    let na = Array.length acc.nonzero in
    let key off j k = (k lsl 32) lor (off + j) in
    collect t
      (Array.append (Array.mapi (key 0) acc.nonzero) (Array.mapi (key na) src.nonzero))
      (fun words slot j ->
        if j < na then One_sparse.add_scaled words slot ~coeff:1 acc.cell_words j
        else One_sparse.add_scaled words slot ~coeff src.cell_words (j - na))

type result = Ok of (int * int) list | Fail

let decode t (state : state) =
  let work = Array.make (One_sparse.words * cells t) 0 in
  Array.iteri
    (fun j k ->
      Array.blit state.cell_words (One_sparse.words * j) work (One_sparse.words * k)
        One_sparse.words)
    state.nonzero;
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
  let check (st : state) =
    if st.count = cells t then st
    else raise (Codec.Decode_error "S_sparse.wire: cell count")
  in
  Codec.map Fun.id check (One_sparse.cells_wire ~max_cells:(cells t))
