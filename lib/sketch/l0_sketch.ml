module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Field31 = Matprod_util.Field31
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics
module Codec = Matprod_comm.Codec

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
  (* A build packs a cell index above a 31-bit residue in one int. *)
  if groups * levels * buckets >= 1 lsl 31 then
    invalid_arg "L0_sketch.create_explicit: parameters";
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

type state = Codec.sparse

let empty t = { Codec.length = size t; cells = [||]; values = [||] }

(* Level of coordinate j: P(level >= l) = 2^-l, capped at levels-1. *)
let coord_level rep ~levels j =
  let u = Hashing.float01 rep.level_hash j in
  let u = if u <= 0.0 then 1e-12 else u in
  min (levels - 1) (int_of_float (Float.floor (-.Stats.log2 u)))

let cell_index t ~rep_idx ~level ~bucket =
  (((rep_idx * t.levels) + level) * t.buckets) + bucket

(* --- sparse builds ------------------------------------------------------

   A build appends one (cell lsl 31) lor residue per cell a key touches,
   sorts them by cell, and sums each cell's run in the field, dropping
   the cells that come out 0. Field addition of canonical residues is
   associative and commutative, so every cell is the one adding the
   residues into dense storage key by key would give, and no cell
   outside the touched ones is ever written or scanned. *)

(* The two key buffers and the radix count table of a build, one
   domain's, checked out for the call — a second thread of the same
   domain that arrives meanwhile allocates its own — so a build
   allocates only its state. *)
type touched = {
  mutable keys : int array;
  mutable spare : int array;
  mutable count : int array;
  mutable n : int;
}

let touched_key = Domain.DLS.new_key (fun () -> ref None)

let touched () =
  let slot = Domain.DLS.get touched_key in
  match !slot with
  | Some tc ->
      slot := None;
      tc.n <- 0;
      tc
  | None -> { keys = Array.make 64 0; spare = Array.make 64 0; count = [||]; n = 0 }

(* Room for [m] more keys. *)
let reserve tc m =
  if tc.n + m > Array.length tc.keys then
    tc.keys <- Array.append tc.keys (Array.make (max tc.n m) 0)

let touch tc cell residue =
  reserve tc 1;
  Array.unsafe_set tc.keys tc.n ((cell lsl 31) lor residue);
  tc.n <- tc.n + 1

let rec bit_width n = if n = 0 then 0 else 1 + bit_width (n lsr 1)

(* Orders [tc]'s keys by cell (bits 31 and up, below [1 lsl (31 + bits)])
   with a least-significant-digit radix sort, leaving them in [tc.keys].
   A pass costs its keys plus its digit's 2^digit counts, so the digit
   is sized to the key count: at most bit_width n bits (4 to 11), spread
   evenly over the fewest passes that cover [bits]. One read of the keys
   counts every pass's digits. *)
let sort_by_cell tc ~bits =
  let n = tc.n in
  if Array.length tc.spare < n then tc.spare <- Array.make (Array.length tc.keys) 0;
  let cap = max 4 (min 11 (bit_width n)) in
  let passes = max 1 ((bits + cap - 1) / cap) in
  let digit = (bits + passes - 1) / passes in
  let mask = (1 lsl digit) - 1 and width = (1 lsl digit) + 1 in
  if Array.length tc.count < passes * width then tc.count <- Array.make (passes * width) 0
  else Array.fill tc.count 0 (passes * width) 0;
  let count = tc.count in
  for x = 0 to n - 1 do
    let k = Array.unsafe_get tc.keys x lsr 31 in
    for pass = 0 to passes - 1 do
      let d = (pass * width) + ((k lsr (pass * digit)) land mask) + 1 in
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done
  done;
  for pass = 0 to passes - 1 do
    let a = tc.keys and b = tc.spare in
    let base = pass * width and shift = 31 + (pass * digit) in
    for d = base + 1 to base + mask do
      Array.unsafe_set count d (Array.unsafe_get count d + Array.unsafe_get count (d - 1))
    done;
    for x = 0 to n - 1 do
      let k = Array.unsafe_get a x in
      let d = base + ((k lsr shift) land mask) in
      Array.unsafe_set b (Array.unsafe_get count d) k;
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    tc.keys <- b;
    tc.spare <- a
  done

(* Sums each cell's run into [tc.spare], packed as the keys are, then
   unpacks the nonzero cells into the state, and hands [tc] back. *)
let state_of_touched t tc =
  sort_by_cell tc ~bits:(bit_width (size t - 1));
  let keys = tc.keys and sums = tc.spare and n = tc.n in
  let out = ref 0 and x = ref 0 in
  while !x < n do
    let cell = Array.unsafe_get keys !x lsr 31 in
    let v = ref 0 in
    while !x < n && Array.unsafe_get keys !x lsr 31 = cell do
      v := Field31.add !v (Array.unsafe_get keys !x land 0x7FFFFFFF);
      incr x
    done;
    if !v <> 0 then begin
      Array.unsafe_set sums !out ((cell lsl 31) lor !v);
      incr out
    end
  done;
  let m = !out in
  let cells = Array.make m 0 and values = Array.make m 0 in
  for k = 0 to m - 1 do
    let x = Array.unsafe_get sums k in
    Array.unsafe_set cells k (x lsr 31);
    Array.unsafe_set values k (x land 0x7FFFFFFF)
  done;
  let state = { Codec.length = size t; cells; values } in
  (Domain.DLS.get touched_key) := Some tc;
  state

let add_coord t tc ~rep_idx ~coord ~weight =
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
    touch tc (cell_index t ~rep_idx ~level:l ~bucket:b) c
  done

let build t vec =
  let tc = touched () in
  Array.iter
    (fun (i, v) ->
      if i < 0 || i >= t.dim then invalid_arg "L0_sketch.sketch: index range";
      let w = Field31.of_int v in
      if w <> 0 then
        for g = 0 to Array.length t.reps - 1 do
          add_coord t tc ~rep_idx:g ~coord:i ~weight:w
        done)
    vec;
  state_of_touched t tc

let sketch t vec = Metrics.timed h_build (fun () -> build t vec)

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


let sketch_with_plan t p vec =
  if p.plevels <> t.levels || p.pgroups <> Array.length t.reps then
    invalid_arg "L0_sketch: plan belongs to another sketch shape";
  Metrics.timed h_build_planned (fun () ->
      let groups = p.pgroups in
      let lb = t.levels * t.buckets in
      let tc = touched () in
      (* One enabled() check per row; logical hash/cell counts accumulate
         in locals and post once, so the totals match the per-entry
         unplanned path without a metrics call in the inner loop. *)
      let mets = Metrics.enabled () in
      let th = ref 0 and tcells = ref 0 in
      Array.iter
        (fun (i, v) ->
          let w = Field31.of_int v in
          if w <> 0 then begin
            if i < 0 || i >= p.pdim then invalid_arg "L0_sketch: key outside plan";
            let base = i * groups in
            for g = 0 to groups - 1 do
              let h = Array.unsafe_get p.hdr (base + g) in
              let lmax = (h lsr 31) land 0x3F in
              let off = h lsr 37 in
              if mets then begin
                th := !th + lmax + 3;
                tcells := !tcells + lmax + 1
              end;
              let c = Field31.mul (h land 0x7FFFFFFF) w in
              let cb = g * lb in
              reserve tc (lmax + 1);
              let keys = tc.keys and n0 = tc.n in
              for l = 0 to lmax do
                let cell = cb + (l * t.buckets) + Array.unsafe_get p.buckets (off + l) in
                Array.unsafe_set keys (n0 + l) ((cell lsl 31) lor c)
              done;
              tc.n <- n0 + lmax + 1
            done
          end)
        vec;
      if mets then begin
        Metrics.incr_by c_hash !th;
        Metrics.incr_by c_cells !tcells
      end;
      state_of_touched t tc)

(* The cells of [acc] and coeff times those of [src], summed per cell by
   the build's sort: the cell-by-cell formula on canonical residues. *)
let add_scaled t (acc : state) ~coeff (src : state) =
  if acc.length <> size t || src.length <> size t then
    invalid_arg "L0_sketch.add_scaled: size mismatch";
  let c = Field31.of_int coeff in
  if c = 0 then acc
  else begin
    let tc = touched () in
    Array.iteri (fun k i -> touch tc i acc.values.(k)) acc.cells;
    Array.iteri (fun k i -> touch tc i (Field31.mul c src.values.(k))) src.cells;
    state_of_touched t tc
  end

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

let estimate t (st : state) =
  if st.length <> size t then invalid_arg "L0_sketch.estimate: size";
  let occ = Array.make (Array.length t.reps * t.levels) 0 in
  Array.iter (fun i -> occ.(i / t.buckets) <- occ.(i / t.buckets) + 1) st.cells;
  estimate_of_occupancy t occ

let wire t = Codec.shorter_uint_array ~length:(size t)

(* --- sparse combine -----------------------------------------------------

   [estimate_combination] is [estimate (Σ c·src)] with the sum kept only
   on the sources' nonzero cells, read straight from each state, and the
   occupancy per (rep, level) follows every cell that leaves or returns
   to 0 — a cell can cancel back to 0 in the field. The updates are
   add_scaled's, in the same order, so every cell and every occupancy
   count is that of the state add_scaled would build. *)

type combiner = { csk : t; sources : state array }

(* A wrongly sized source fails only when a combination uses it, as with
   add_scaled. *)
let combiner t sources = { csk = t; sources }

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
      if src.Codec.length <> n then
        invalid_arg "L0_sketch.estimate_combination: size mismatch";
      let c = Field31.of_int coeff in
      if c <> 0 then begin
        let sup = src.cells and vals = src.values in
        for x = 0 to Array.length sup - 1 do
          let i = Array.unsafe_get sup x in
          let old = Array.unsafe_get acc i in
          let v = Field31.add old (Field31.mul c (Array.unsafe_get vals x)) in
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
        let sup = cb.sources.(k).cells in
        for x = 0 to Array.length sup - 1 do
          Array.unsafe_set acc (Array.unsafe_get sup x) 0
        done
      end)
    coeffs;
  (Domain.DLS.get scratch_key) := acc;
  estimate_of_occupancy t occ
