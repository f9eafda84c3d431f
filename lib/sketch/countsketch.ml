module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics

let c_hash = Metrics.counter "hash_evals"
let c_cells = Metrics.counter "sketch_cells_touched"
let c_prng = Metrics.counter "prng_draws"
let c_plan = Metrics.counter "plan_hash_evals"
let h_build = Metrics.histogram ~label:"countsketch" "sketch_build_ns"
let h_build_planned = Metrics.histogram ~label:"countsketch_planned" "sketch_build_ns"
let h_query = Metrics.histogram ~label:"countsketch" "sketch_query_ns"

type t = {
  buckets : int;
  reps : int;
  bucket_hash : Hashing.t array;
  sign_hash : Hashing.t array;
}

let create rng ~buckets ~reps =
  if buckets <= 0 || reps <= 0 then invalid_arg "Countsketch.create";
  (* 2-wise bucket + 4-wise sign polynomial per repetition. *)
  Metrics.incr_by c_prng (reps * 6);
  {
    buckets;
    reps;
    bucket_hash = Array.init reps (fun _ -> Hashing.create rng ~k:2);
    sign_hash = Array.init reps (fun _ -> Hashing.create rng ~k:4);
  }

let size t = t.buckets * t.reps
let empty t = Array.make (size t) 0.0

let update t arr i v =
  if v <> 0 then begin
    if Metrics.enabled () then begin
      Metrics.incr_by c_hash (2 * t.reps);
      Metrics.incr_by c_cells t.reps
    end;
    for r = 0 to t.reps - 1 do
      let b = Hashing.bucket t.bucket_hash.(r) ~buckets:t.buckets i in
      let s = Hashing.sign t.sign_hash.(r) i in
      let idx = (r * t.buckets) + b in
      arr.(idx) <- arr.(idx) +. float_of_int (v * s)
    done
  end

let sketch t vec =
  Metrics.timed h_build (fun () ->
      let arr = empty t in
      Array.iter (fun (i, v) -> update t arr i v) vec;
      arr)

(* --- plan/apply -------------------------------------------------------

   [plan ~dim] evaluates every (bucket, sign) pair once per key of the
   domain; applying it is two table loads and a fused multiply–add per
   (entry × rep) — no polynomial evaluation, no Int64 boxing. The sign is
   stored as ±1.0, and [float_of_int (v * s) = float_of_int v *. s_float]
   exactly for |v| < 2^52, so planned sketches are bit-identical to the
   unplanned path. *)

type plan = {
  pdim : int;
  cell : int array; (* cell.(i*reps + r) = r*buckets + bucket_r(i) *)
  sgn : float array; (* sgn.(i*reps + r) = ±1.0 *)
}

let plan t ~dim =
  if dim <= 0 then invalid_arg "Countsketch.plan: dim";
  Metrics.incr_by c_plan (2 * t.reps * dim);
  let cell = Array.make (dim * t.reps) 0 in
  let sgn = Array.make (dim * t.reps) 0.0 in
  for r = 0 to t.reps - 1 do
    let buckets = Hashing.tabulate_buckets t.bucket_hash.(r) ~buckets:t.buckets ~dim in
    let signs = Hashing.tabulate_sign_floats t.sign_hash.(r) ~dim in
    let base = r * t.buckets in
    for i = 0 to dim - 1 do
      cell.((i * t.reps) + r) <- base + buckets.(i);
      sgn.((i * t.reps) + r) <- signs.(i)
    done
  done;
  { pdim = dim; cell; sgn }


let apply_plan t p dst vec =
  (* Metrics hoisted to one enabled() check + one batched increment per
     row; the counters keep the same final values as the per-entry path
     (hash_evals counts logical evaluations, served here by the tables). *)
  if Metrics.enabled () then begin
    let nnz = Array.fold_left (fun acc (_, v) -> if v <> 0 then acc + 1 else acc) 0 vec in
    Metrics.incr_by c_hash (2 * t.reps * nnz);
    Metrics.incr_by c_cells (t.reps * nnz)
  end;
  let reps = t.reps in
  Array.iter
    (fun (i, v) ->
      if v <> 0 then begin
        if i < 0 || i >= p.pdim then invalid_arg "Countsketch: key outside plan";
        let fv = float_of_int v in
        let base = i * reps in
        for r = 0 to reps - 1 do
          let idx = Array.unsafe_get p.cell (base + r) in
          Array.unsafe_set dst idx
            (Array.unsafe_get dst idx +. (fv *. Array.unsafe_get p.sgn (base + r)))
        done
      end)
    vec

let sketch_into t p ~dst vec =
  if Array.length dst <> size t then invalid_arg "Countsketch.sketch_into: size";
  Metrics.timed h_build_planned (fun () ->
      Array.fill dst 0 (Array.length dst) 0.0;
      apply_plan t p dst vec)

let sketch_with_plan t p vec =
  Metrics.timed h_build_planned (fun () ->
      let arr = empty t in
      apply_plan t p arr vec;
      arr)

let add_scaled t ~dst ~coeff src =
  if Array.length dst <> size t || Array.length src <> size t then
    invalid_arg "Countsketch.add_scaled: size mismatch";
  if coeff <> 0 then
    let c = float_of_int coeff in
    for i = 0 to size t - 1 do
      dst.(i) <- dst.(i) +. (c *. src.(i))
    done

let query t arr i =
  Metrics.timed h_query (fun () ->
      Metrics.incr_by c_hash (2 * t.reps);
      let ests =
        Array.init t.reps (fun r ->
            let b = Hashing.bucket t.bucket_hash.(r) ~buckets:t.buckets i in
            let s = Hashing.sign t.sign_hash.(r) i in
            float_of_int s *. arr.((r * t.buckets) + b))
      in
      Stats.median ests)

let heavy_candidates t arr ~dim ~threshold =
  let out = ref [] in
  for i = dim - 1 downto 0 do
    let est = query t arr i in
    if est >= threshold then out := (i, est) :: !out
  done;
  !out
