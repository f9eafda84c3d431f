module Prng = Matprod_util.Prng
module Fwht = Matprod_util.Fwht
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics

let c_plan = Metrics.counter "plan_hash_evals"
let h_build = Metrics.histogram ~label:"srht" "sketch_build_ns"
let h_build_planned = Metrics.histogram ~label:"srht_planned" "sketch_build_ns"

(* S·H·D: sign flips D (tabulated ±1 per key), the unnormalised
   Walsh–Hadamard transform H, and uniform row subsampling S. The key
   identity is Parseval for the unnormalised H over the padded domain:
   Σ_s (HDx)_s² = d_pad·‖x‖², so a uniformly sampled coordinate z_r =
   (HDx)_{s_r} satisfies E[z_r²] = ‖x‖² with no scaling constant, and
   median-of-means over the rows estimates ‖x‖² exactly as {!Ams} does.

   All integer inputs keep every intermediate an exact integer (sums of
   ±v terms, magnitudes far below 2^53 for this library's workloads), so
   the two apply routes — per-nonzero sign columns, O(nnz·m), and
   densify + FWHT + gather, O(d log d + m) — produce bit-identical
   floats no matter the summation order. That exactness is what lets
   [apply_plan] pick a route by row density without perturbing journal
   byte-identity. *)

type t = {
  rows_per_group : int;
  groups : int;
  dim : int; (* key domain: vectors index [0, dim) *)
  dpad : int; (* next_pow2 dim: the Hadamard order *)
  seed : int;
  samples : int array; (* sketch row r -> Hadamard row s_r in [0, dpad) *)
}

let create rng ~eps ~groups ~dim =
  if not (eps > 0.0 && eps <= 1.0) then invalid_arg "Srht.create: eps range";
  if groups <= 0 then invalid_arg "Srht.create: groups must be positive";
  if dim <= 0 then invalid_arg "Srht.create: dim must be positive";
  let rows_per_group = max 4 (int_of_float (Float.ceil (6.0 /. (eps *. eps)))) in
  let dpad = Fwht.next_pow2 dim in
  let seed = Prng.fresh_seed rng in
  let total = rows_per_group * groups in
  let samples =
    Array.init total (fun r -> Prng.int (Prng.derive seed 1 r) dpad)
  in
  { rows_per_group; groups; dim; dpad; seed; samples }

let size t = t.rows_per_group * t.groups
let empty t = Array.make (size t) 0.0

(* D's diagonal: ±1 per key, derived purely from (seed, 0, key). *)
let sign t i = if Prng.bool (Prng.derive t.seed 0 i) then 1.0 else -1.0

(* H[s,i] = (-1)^popcount(s AND i). *)
let parity_neg x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  let x = x lxor (x lsr 1) in
  x land 1 = 1

let hadamard s i = if parity_neg (s land i) then -1.0 else 1.0

let sketch t vec =
  Metrics.timed h_build (fun () ->
      let m = size t in
      let y = empty t in
      Array.iter
        (fun (i, v) ->
          if v <> 0 then begin
            if i < 0 || i >= t.dim then invalid_arg "Srht: key outside domain";
            let fv = float_of_int v *. sign t i in
            for r = 0 to m - 1 do
              y.(r) <- y.(r) +. (fv *. hadamard t.samples.(r) i)
            done
          end)
        vec;
      y)

type plan = {
  pdim : int;
  psize : int;
  pdpad : int;
  sgn : float array; (* key·size + r: D_i·H[s_r, i] — the sparse route *)
  dsign : float array; (* key -> D_i — the dense densify step *)
  samples : int array;
  dense_nnz : int; (* rows with >= this many entries take the FWHT route *)
  (* The FWHT scratch is mutable, so it lives in domain-local storage:
     each pool domain lazily allocates its own buffer and the plan stays
     safely shareable across the fan-out, like every other plan. *)
  scratch : Fwht.scratch Domain.DLS.key;
}

let log2i n =
  let k = ref 0 and v = ref 1 in
  while !v < n do
    incr k;
    v := !v * 2
  done;
  !k

let plan ?dense_nnz t ~dim =
  if dim <> t.dim then invalid_arg "Srht.plan: dim differs from the family's";
  let m = size t in
  Metrics.incr_by c_plan ((m + 1) * dim);
  let sgn = Array.make (dim * m) 0.0 in
  let dsign = Array.make dim 0.0 in
  for i = 0 to dim - 1 do
    let d = sign t i in
    dsign.(i) <- d;
    let base = i * m in
    for r = 0 to m - 1 do
      sgn.(base + r) <- d *. hadamard t.samples.(r) i
    done
  done;
  let dense_nnz =
    match dense_nnz with
    | Some n -> max 0 n
    | None ->
        (* Crossover: sparse costs ~nnz·m madds, dense ~d_pad·(log d_pad
           + 2) butterfly-class ops (densify + transform + gather). The
           measured constants on the P1 workload put the two within ~2x
           of each other at equal op counts (docs/PERFORMANCE.md), so
           equal-cost is the default switch point. *)
        max 1 (t.dpad * (log2i t.dpad + 2) / m)
  in
  let dpad = t.dpad in
  {
    pdim = dim;
    psize = m;
    pdpad = dpad;
    sgn;
    dsign;
    samples = t.samples;
    dense_nnz;
    scratch = Domain.DLS.new_key (fun () -> Fwht.scratch dpad);
  }


let apply_dense p dst vec =
  let scr = Domain.DLS.get p.scratch in
  Bigarray.Array1.fill scr 0.0;
  Array.iter
    (fun (i, v) ->
      if v <> 0 then begin
        if i < 0 || i >= p.pdim then invalid_arg "Srht: key outside plan";
        Bigarray.Array1.unsafe_set scr i
          (Bigarray.Array1.unsafe_get scr i
          +. (float_of_int v *. Array.unsafe_get p.dsign i))
      end)
    vec;
  Fwht.transform scr ~n:p.pdpad;
  for r = 0 to p.psize - 1 do
    Array.unsafe_set dst r
      (Array.unsafe_get dst r
      +. Bigarray.Array1.unsafe_get scr (Array.unsafe_get p.samples r))
  done

let apply_plan t p dst vec =
  let m = size t in
  if p.psize <> m || p.pdim <> t.dim then
    invalid_arg "Srht: plan belongs to another sketch shape";
  if Array.length vec >= p.dense_nnz then apply_dense p dst vec
  else Kernel.apply ~name:"Srht" p.sgn ~size:m ~dim:p.pdim dst vec

let sketch_with_plan t p vec =
  Metrics.timed h_build_planned (fun () ->
      let y = empty t in
      apply_plan t p y vec;
      y)

let add_scaled t ~dst ~coeff src =
  if Array.length dst <> size t || Array.length src <> size t then
    invalid_arg "Srht.add_scaled: size mismatch";
  if coeff <> 0 then
    let c = float_of_int coeff in
    for r = 0 to size t - 1 do
      dst.(r) <- dst.(r) +. (c *. src.(r))
    done

let estimate_sq t y =
  if Array.length y <> size t then invalid_arg "Srht.estimate_sq: size";
  let sq = Array.map (fun v -> v *. v) y in
  Float.max 0.0 (Stats.median_of_means sq ~groups:t.groups)

