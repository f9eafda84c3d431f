module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Field31 = Matprod_util.Field31
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics

let c_hash = Metrics.counter "hash_evals"
let c_cells = Metrics.counter "sketch_cells_touched"
let c_plan = Metrics.counter "plan_hash_evals"
let h_build = Metrics.histogram ~label:"l0_sketch" "sketch_build_ns"
let h_build_planned = Metrics.histogram ~label:"l0_sketch_planned" "sketch_build_ns"
let h_query = Metrics.histogram ~label:"l0_sketch" "sketch_query_ns"

type rep = {
  level_hash : Hashing.t;
  bucket_hashes : Hashing.t array; (* one per level *)
  coeff_hash : Hashing.t;
}

type t = { dim : int; levels : int; buckets : int; reps : rep array }

let levels_for dim =
  let rec go l acc = if acc >= dim then l else go (l + 1) (acc * 2) in
  max 1 (go 1 2)

let create_explicit rng ~buckets ~groups ~dim =
  if buckets <= 1 || groups <= 0 || dim <= 0 then
    invalid_arg "L0_sketch.create_explicit: parameters";
  let levels = levels_for dim in
  let rep _ =
    {
      level_hash = Hashing.create rng ~k:2;
      bucket_hashes = Array.init levels (fun _ -> Hashing.create rng ~k:2);
      coeff_hash = Hashing.create rng ~k:2;
    }
  in
  { dim; levels; buckets; reps = Array.init groups rep }

let create rng ~eps ~groups ~dim =
  if not (eps > 0.0 && eps <= 1.0) then invalid_arg "L0_sketch.create: eps";
  let buckets = max 32 (int_of_float (Float.ceil (12.0 /. (eps *. eps)))) in
  create_explicit rng ~buckets ~groups ~dim

let size t = Array.length t.reps * t.levels * t.buckets
let dim t = t.dim
let empty t = Array.make (size t) 0

(* Level of coordinate j: P(level >= l) = 2^-l, capped at levels-1. *)
let coord_level rep ~levels j =
  let u = Hashing.float01 rep.level_hash j in
  let u = if u <= 0.0 then 1e-12 else u in
  min (levels - 1) (int_of_float (Float.floor (-.Stats.log2 u)))

let cell_index t ~rep_idx ~level ~bucket =
  (((rep_idx * t.levels) + level) * t.buckets) + bucket

let add_coord t arr ~rep_idx ~coord ~weight =
  let rep = t.reps.(rep_idx) in
  let lmax = coord_level rep ~levels:t.levels coord in
  let c = Field31.mul (Hashing.field_coeff rep.coeff_hash coord) weight in
  if Metrics.enabled () then begin
    (* level hash + coefficient hash + one bucket hash per touched level *)
    Metrics.incr_by c_hash (lmax + 3);
    Metrics.incr_by c_cells (lmax + 1)
  end;
  for l = 0 to lmax do
    let b = Hashing.bucket rep.bucket_hashes.(l) ~buckets:t.buckets coord in
    let idx = cell_index t ~rep_idx ~level:l ~bucket:b in
    arr.(idx) <- Field31.add arr.(idx) c
  done

let update t arr i v =
  if i < 0 || i >= t.dim then invalid_arg "L0_sketch.update: index range";
  let w = Field31.of_int v in
  if w <> 0 then
    for g = 0 to Array.length t.reps - 1 do
      add_coord t arr ~rep_idx:g ~coord:i ~weight:w
    done

let sketch t vec =
  Metrics.timed h_build (fun () ->
      let arr = empty t in
      Array.iter (fun (i, v) -> update t arr i v) vec;
      arr)

(* --- plan/apply -------------------------------------------------------

   Per (rep, key): the deepest level, the fingerprint coefficient, and the
   bucket at every level — all integers produced by the functions they
   replace, so the Field31 accumulation below is identical to the
   unplanned path operation for operation.

   Layout: the subsampling geometry means a key touches levels 0..lmax
   with E[lmax] ≈ 1, so a dense (key, group, level) bucket table would be
   ~levels/2 times larger than what apply ever reads — too big for L2,
   and the misses dominate apply time. Instead:

     hdr.((i*groups) + g) = coeff  lor  (lmax lsl 31)  lor  (off lsl 37)
     buckets.(off + l)    = bucket of key i, group g, level l   (l <= lmax)

   One header word per (key, group) — the groups of one key share a cache
   line — and a variable-length bucket run holding only the levels the
   key actually occupies. *)

type plan = {
  pdim : int;
  pgroups : int;
  plevels : int;
  hdr : int array;
  buckets : int array;
}

let plan t ~dim:d =
  if d <= 0 then invalid_arg "L0_sketch.plan: dim";
  if d > t.dim then invalid_arg "L0_sketch.plan: dim exceeds sketch domain";
  let groups = Array.length t.reps in
  if t.levels > 63 then invalid_arg "L0_sketch.plan: too many levels to pack";
  Metrics.incr_by c_plan (groups * d * (t.levels + 2));
  let coeffs =
    Array.map (fun r -> Hashing.tabulate_field_coeffs r.coeff_hash ~dim:d) t.reps
  in
  let bucket_tabs =
    Array.map
      (fun r ->
        Array.map (fun h -> Hashing.tabulate_buckets h ~buckets:t.buckets ~dim:d)
          r.bucket_hashes)
      t.reps
  in
  let lmaxs = Array.make (groups * d) 0 in
  let total = ref 0 in
  for g = 0 to groups - 1 do
    let rep = t.reps.(g) in
    for i = 0 to d - 1 do
      let lm = coord_level rep ~levels:t.levels i in
      lmaxs.((i * groups) + g) <- lm;
      total := !total + lm + 1
    done
  done;
  if !total > 1 lsl 26 then invalid_arg "L0_sketch.plan: dim too large to pack";
  let hdr = Array.make (groups * d) 0 in
  let buckets = Array.make !total 0 in
  (* Offsets assigned in (key-major, group-minor) order — the order apply
     reads them — so the bucket runs of one nonzero are contiguous. *)
  let off = ref 0 in
  for i = 0 to d - 1 do
    for g = 0 to groups - 1 do
      let ig = (i * groups) + g in
      let lm = lmaxs.(ig) in
      hdr.(ig) <- coeffs.(g).(i) lor (lm lsl 31) lor (!off lsl 37);
      for l = 0 to lm do
        buckets.(!off + l) <- bucket_tabs.(g).(l).(i)
      done;
      off := !off + lm + 1
    done
  done;
  { pdim = d; pgroups = groups; plevels = t.levels; hdr; buckets }


let apply_plan t p dst vec =
  if p.plevels <> t.levels || p.pgroups <> Array.length t.reps then
    invalid_arg "L0_sketch: plan belongs to another sketch shape";
  let groups = p.pgroups in
  let lb = t.levels * t.buckets in
  (* One enabled() check per row; logical hash/cell counts accumulate in
     locals and post once, so the totals match the per-entry unplanned
     path without a metrics call in the inner loop. *)
  let mets = Metrics.enabled () in
  let th = ref 0 and tc = ref 0 in
  Array.iter
    (fun (i, v) ->
      let w = Field31.of_int v in
      if w <> 0 then begin
        if i < 0 || i >= p.pdim then invalid_arg "L0_sketch: key outside plan";
        let base = i * groups in
        let cbase = ref 0 in
        for g = 0 to groups - 1 do
          let h = Array.unsafe_get p.hdr (base + g) in
          let lmax = (h lsr 31) land 0x3F in
          let off = h lsr 37 in
          if mets then begin
            th := !th + lmax + 3;
            tc := !tc + lmax + 1
          end;
          let c = Field31.mul (h land 0x7FFFFFFF) w in
          let cb = !cbase in
          for l = 0 to lmax do
            let idx =
              cb + (l * t.buckets) + Array.unsafe_get p.buckets (off + l)
            in
            Array.unsafe_set dst idx (Field31.add (Array.unsafe_get dst idx) c)
          done;
          cbase := cb + lb
        done
      end)
    vec;
  if mets then begin
    Metrics.incr_by c_hash !th;
    Metrics.incr_by c_cells !tc
  end

let sketch_into t p ~dst vec =
  if Array.length dst <> size t then invalid_arg "L0_sketch.sketch_into: size";
  Metrics.timed h_build_planned (fun () ->
      Array.fill dst 0 (Array.length dst) 0;
      apply_plan t p dst vec)

let sketch_with_plan t p vec =
  Metrics.timed h_build_planned (fun () ->
      let arr = empty t in
      apply_plan t p arr vec;
      arr)

(* Zero source cells are skipped: on canonical residues mul c 0 = 0 and
   add x 0 = x, so the result is the dense loop's, cell for cell. A
   column sketch is >99% zeros, so only its few nonzero cells pay for the
   field arithmetic (docs/PERFORMANCE.md, "Dense on the wire, sparse on
   the CPU"). *)
let add_scaled t ~dst ~coeff src =
  let n = size t in
  if Array.length dst <> n || Array.length src <> n then
    invalid_arg "L0_sketch.add_scaled: size mismatch";
  let c = Field31.of_int coeff in
  if c <> 0 then
    for i = 0 to n - 1 do
      let s = Array.unsafe_get src i in
      if s <> 0 then
        Array.unsafe_set dst i
          (Field31.add (Array.unsafe_get dst i) (Field31.mul c s))
    done

(* Linear-counting estimate at one level: m ≈ ln(empty/K) / ln(1 - 1/K). *)
let level_estimate ~buckets occupied =
  if occupied = 0 then 0.0
  else if occupied >= buckets then Float.infinity
  else
    let k = float_of_int buckets in
    log (1.0 -. (float_of_int occupied /. k)) /. log (1.0 -. (1.0 /. k))

(* [occ.((rep_idx * levels) + level)] is the number of nonzero buckets of
   that (rep, level) — the only thing the estimator reads of a state. *)
let rep_estimate t occ ~rep_idx =
  let occs l = occ.((rep_idx * t.levels) + l) in
  (* Prefer the shallowest level whose load is comfortably sub-saturated:
     deeper levels multiply the subsampling variance by 2^level. *)
  let target = int_of_float (0.7 *. float_of_int t.buckets) in
  let rec pick l =
    if l >= t.levels then t.levels - 1
    else if occs l <= target then l
    else pick (l + 1)
  in
  let l = pick 0 in
  let est = level_estimate ~buckets:t.buckets (occs l) in
  if Float.is_finite est then est *. Float.of_int (1 lsl l)
  else
    (* Every level saturated: report the coarsest level's capacity bound. *)
    float_of_int t.buckets *. Float.of_int (1 lsl (t.levels - 1))

let estimate_of_occupancy t occ =
  Metrics.timed h_query (fun () ->
      let per_rep =
        Array.init (Array.length t.reps) (fun g -> rep_estimate t occ ~rep_idx:g)
      in
      Stats.median per_rep)

let estimate t arr =
  if Array.length arr <> size t then invalid_arg "L0_sketch.estimate: size";
  let occ = Array.make (Array.length t.reps * t.levels) 0 in
  for s = 0 to Array.length occ - 1 do
    let base = s * t.buckets in
    for b = 0 to t.buckets - 1 do
      if Array.unsafe_get arr (base + b) <> 0 then occ.(s) <- occ.(s) + 1
    done
  done;
  estimate_of_occupancy t occ

let wire t = Matprod_comm.Codec.shorter_uint_array ~length:(size t)

(* --- sparse combine -----------------------------------------------------

   [estimate_combination] is [estimate (Σ c·src)] with the sum kept only
   on the sources' nonzero cells: each source's support is listed once per
   message, each combination updates only those cells, and the occupancy
   per (rep, level) follows every cell that leaves or returns to 0 — a
   cell can cancel back to 0 in the field. The updates are add_scaled's,
   in the same order, so every cell and every occupancy count is the
   dense path's. *)

type combiner = {
  csk : t;
  sources : int array array;
  support : int array array; (* nonzero cells of each source, ascending *)
}

let support_of src =
  let n = Array.length src in
  let nnz = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get src i <> 0 then incr nnz
  done;
  let sup = Array.make !nnz 0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if Array.unsafe_get src i <> 0 then begin
      Array.unsafe_set sup !k i;
      incr k
    end
  done;
  sup

let combiner t sources =
  let n = size t in
  {
    csk = t;
    sources;
    (* A wrongly sized source fails only when a combination uses it, as
       with add_scaled. *)
    support =
      Array.map (fun src -> if Array.length src = n then support_of src else [||])
        sources;
  }

(* One all-zero accumulator per domain, checked out for the duration of a
   call — a second thread of the same domain that arrives meanwhile
   allocates its own — and handed back zeroed. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let take_scratch n =
  let slot = Domain.DLS.get scratch_key in
  let s = !slot in
  slot := [||];
  if Array.length s >= n then s else Array.make n 0

let estimate_combination cb coeffs =
  let t = cb.csk in
  let n = size t in
  let acc = take_scratch n in
  let occ = Array.make (Array.length t.reps * t.levels) 0 in
  let buckets = t.buckets in
  (* On an exception the scratch is dropped, not handed back dirty. *)
  Array.iter
    (fun (k, coeff) ->
      let src = cb.sources.(k) in
      if Array.length src <> n then
        invalid_arg "L0_sketch.estimate_combination: size mismatch";
      let c = Field31.of_int coeff in
      if c <> 0 then begin
        let sup = cb.support.(k) in
        for x = 0 to Array.length sup - 1 do
          let i = Array.unsafe_get sup x in
          let old = Array.unsafe_get acc i in
          let v =
            Field31.add old (Field31.mul c (Array.unsafe_get src i))
          in
          Array.unsafe_set acc i v;
          if old = 0 then begin
            if v <> 0 then
              let s = i / buckets in
              occ.(s) <- occ.(s) + 1
          end
          else if v = 0 then
            let s = i / buckets in
            occ.(s) <- occ.(s) - 1
        done
      end)
    coeffs;
  Array.iter
    (fun (k, coeff) ->
      if Field31.of_int coeff <> 0 then begin
        let sup = cb.support.(k) in
        for x = 0 to Array.length sup - 1 do
          Array.unsafe_set acc (Array.unsafe_get sup x) 0
        done
      end)
    coeffs;
  (Domain.DLS.get scratch_key) := acc;
  estimate_of_occupancy t occ
