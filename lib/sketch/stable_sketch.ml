module Prng = Matprod_util.Prng
module Stable = Matprod_util.Stable
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics

let c_plan = Metrics.counter "plan_hash_evals"
let h_build_planned = Metrics.histogram ~label:"stable_planned" "sketch_build_ns"

type t = {
  p : float;
  rows : int;
  seed : int;
  median_abs : float;
  (* The implicit matrix column for index i, materialised lazily: every
     vector sketched against this instance shares coordinates, so caching
     turns the per-nonzero cost from [rows] stable draws into [rows]
     multiply-adds after first touch. *)
  columns : (int, float array) Hashtbl.t;
}

let create_rows rng ~p ~rows =
  if not (p > 0.0 && p <= 2.0) then invalid_arg "Stable_sketch: p range";
  if rows <= 0 then invalid_arg "Stable_sketch: rows must be positive";
  {
    p;
    rows;
    seed = Prng.fresh_seed rng;
    median_abs = Stable.median_abs ~p;
    columns = Hashtbl.create 256;
  }

let create rng ~p ~eps ~groups =
  if not (eps > 0.0 && eps <= 1.0) then invalid_arg "Stable_sketch: eps range";
  if groups <= 0 then invalid_arg "Stable_sketch: groups";
  let per = max 8 (int_of_float (Float.ceil (12.0 /. (eps *. eps)))) in
  create_rows rng ~p ~rows:(per * groups)

let p t = t.p
let size t = t.rows
let empty t = Array.make t.rows 0.0

let entry t ~row i =
  let cell = Prng.derive t.seed row i in
  Stable.sample cell ~p:t.p

let column t i =
  match Hashtbl.find_opt t.columns i with
  | Some col -> col
  | None ->
      let col = Array.init t.rows (fun r -> entry t ~row:r i) in
      Hashtbl.replace t.columns i col;
      col

let sketch t vec =
  let y = empty t in
  Array.iter
    (fun (i, v) ->
      if v <> 0 then begin
        let fv = float_of_int v in
        let col = column t i in
        for r = 0 to t.rows - 1 do
          y.(r) <- y.(r) +. (fv *. col.(r))
        done
      end)
    vec;
  y

(* --- plan/apply: the implicit stable matrix, materialised eagerly for
   the whole domain. The per-key columns are exactly what [column] caches
   lazily ([entry] is deterministic in (seed, row, key), and
   [Stable.fill_derived] computes every entry without allocating), so
   planned sketches are bit-identical — and the plan is read-only, which
   makes it safe to share across domains where the Hashtbl cache is not. *)

type plan = { pdim : int; prows : int; cols : float array (* key*rows + r *) }

let plan t ~dim =
  if dim <= 0 then invalid_arg "Stable_sketch.plan: dim";
  Metrics.incr_by c_plan (t.rows * dim);
  let cols = Array.create_float (dim * t.rows) in
  Stable.fill_derived ~p:t.p ~seed:t.seed ~rows:t.rows ~dim cols;
  { pdim = dim; prows = t.rows; cols }


let apply_plan t p dst vec =
  if p.prows <> t.rows then
    invalid_arg "Stable_sketch: plan belongs to another sketch shape";
  Kernel.apply ~name:"Stable_sketch" p.cols ~size:t.rows ~dim:p.pdim dst vec

let sketch_with_plan t p vec =
  Metrics.timed h_build_planned (fun () ->
      let y = empty t in
      apply_plan t p y vec;
      y)

let add_scaled t ~dst ~coeff src =
  if Array.length dst <> t.rows || Array.length src <> t.rows then
    invalid_arg "Stable_sketch.add_scaled: size mismatch";
  if coeff <> 0 then
    let c = float_of_int coeff in
    for r = 0 to t.rows - 1 do
      dst.(r) <- dst.(r) +. (c *. src.(r))
    done

let estimate t y =
  if Array.length y <> t.rows then invalid_arg "Stable_sketch.estimate: size";
  let abs = Array.create_float t.rows in
  for r = 0 to t.rows - 1 do
    Array.unsafe_set abs r (Float.abs (Array.unsafe_get y r))
  done;
  Stats.median_in_place abs /. t.median_abs

let estimate_pow t y = estimate t y ** t.p
