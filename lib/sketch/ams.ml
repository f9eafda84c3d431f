module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics

let c_plan = Metrics.counter "plan_hash_evals"
let h_build_planned = Metrics.histogram ~label:"ams_planned" "sketch_build_ns"

type t = {
  rows_per_group : int;
  groups : int;
  signs : Hashing.t array; (* one 4-wise sign hash per sketch row *)
}

let create_rows rng ~rows_per_group ~groups =
  if rows_per_group <= 0 || groups <= 0 then
    invalid_arg "Ams.create_rows: dimensions must be positive";
  let total = rows_per_group * groups in
  { rows_per_group; groups; signs = Array.init total (fun _ -> Hashing.create rng ~k:4) }

let create rng ~eps ~groups =
  if not (eps > 0.0 && eps <= 1.0) then invalid_arg "Ams.create: eps range";
  let rows_per_group = max 4 (int_of_float (Float.ceil (6.0 /. (eps *. eps)))) in
  create_rows rng ~rows_per_group ~groups

let size t = t.rows_per_group * t.groups
let empty t = Array.make (size t) 0.0

let sketch t vec =
  let y = empty t in
  Array.iter
    (fun (i, v) ->
      if v <> 0 then
        let fv = float_of_int v in
        for r = 0 to size t - 1 do
          y.(r) <- y.(r) +. (fv *. float_of_int (Hashing.sign t.signs.(r) i))
        done)
    vec;
  y

(* --- plan/apply: the full ±1 sign matrix, tabulated row-major by key.
   Each seed-path entry costs a degree-3 polynomial plus the splitmix
   finalizer per (entry × sketch row); applied, it is one load and one
   fused multiply–add. float_of_int v *. (±1.0) equals
   fv *. float_of_int (±1) bit for bit, so results are unchanged. *)

type plan = { pdim : int; psize : int; sgn : float array (* key*size + r *) }

let plan t ~dim =
  if dim <= 0 then invalid_arg "Ams.plan: dim";
  let sz = size t in
  Metrics.incr_by c_plan (sz * dim);
  let sgn = Array.make (dim * sz) 0.0 in
  for r = 0 to sz - 1 do
    let signs = Hashing.tabulate_sign_floats t.signs.(r) ~dim in
    for i = 0 to dim - 1 do
      sgn.((i * sz) + r) <- signs.(i)
    done
  done;
  { pdim = dim; psize = sz; sgn }


let apply_plan t p dst vec =
  let sz = t.rows_per_group * t.groups in
  if p.psize <> sz then invalid_arg "Ams: plan belongs to another sketch shape";
  Kernel.apply ~name:"Ams" p.sgn ~size:sz ~dim:p.pdim dst vec

let sketch_with_plan t p vec =
  Metrics.timed h_build_planned (fun () ->
      let y = empty t in
      apply_plan t p y vec;
      y)

let add_scaled t ~dst ~coeff src =
  if Array.length dst <> size t || Array.length src <> size t then
    invalid_arg "Ams.add_scaled: size mismatch";
  if coeff <> 0 then
    let c = float_of_int coeff in
    for r = 0 to size t - 1 do
      dst.(r) <- dst.(r) +. (c *. src.(r))
    done

let estimate_sq t y =
  if Array.length y <> size t then invalid_arg "Ams.estimate_sq: size";
  let sq = Array.map (fun v -> v *. v) y in
  Float.max 0.0 (Stats.median_of_means sq ~groups:t.groups)

let entry t ~row i = float_of_int (Hashing.sign t.signs.(row) i)
