module Prng = Matprod_util.Prng
module Metrics = Matprod_obs.Metrics

module Pool = Matprod_util.Pool

let c_labels = Metrics.counter "cohen_label_evals"
let c_prng = Metrics.counter "prng_draws"
let c_plan = Metrics.counter "plan_hash_evals"
let h_build = Metrics.histogram ~label:"cohen" "sketch_build_ns"
let h_build_planned = Metrics.histogram ~label:"cohen_planned" "sketch_build_ns"
let h_query = Metrics.histogram ~label:"cohen" "sketch_query_ns"

type t = { reps : int; rows : int; seed : int }

let create rng ~reps ~rows =
  if reps < 2 then invalid_arg "Cohen.create: need reps >= 2";
  if rows <= 0 then invalid_arg "Cohen.create: rows";
  { reps; rows; seed = Prng.fresh_seed rng }


let label t ~rep i =
  if i < 0 || i >= t.rows then invalid_arg "Cohen.label: row range";
  if Metrics.enabled () then begin
    Metrics.incr c_labels;
    Metrics.incr c_prng
  end;
  Prng.exponential (Prng.derive t.seed rep i)

let column_mins t ~supp_of_col ~cols =
  Metrics.timed h_build (fun () ->
      Array.init cols (fun k ->
          let supp = supp_of_col k in
          Array.init t.reps (fun rep ->
              Array.fold_left
                (fun acc i -> Float.min acc (label t ~rep i))
                Float.infinity supp)))

(* --- plan/apply: every exponential label, tabulated. [label] is
   deterministic in (seed, rep, i), so min-folds over the table are
   bit-identical to the unplanned path. The per-column fan-out runs on the
   domain pool: each column's minima land in that column's slot. *)

type plan = { prows : int; preps : int; labels : float array (* i*reps + rep *) }

let label_quiet t ~rep i = Prng.exponential (Prng.derive t.seed rep i)

let plan t =
  Metrics.incr_by c_plan (t.rows * t.reps);
  let labels = Array.make (t.rows * t.reps) 0.0 in
  for i = 0 to t.rows - 1 do
    for rep = 0 to t.reps - 1 do
      labels.((i * t.reps) + rep) <- label_quiet t ~rep i
    done
  done;
  { prows = t.rows; preps = t.reps; labels }

let column_mins_with_plan t p ~supp_of_col ~cols =
  if p.prows <> t.rows || p.preps <> t.reps then
    invalid_arg "Cohen: plan belongs to another sketch shape";
  Metrics.timed h_build_planned (fun () ->
      let mets = Metrics.enabled () in
      Pool.init cols (fun k ->
          let supp = supp_of_col k in
          (* Counter totals match the unplanned path (logical label
             evaluations, served by the table), batched once per column. *)
          if mets then begin
            Metrics.incr_by c_labels (t.reps * Array.length supp);
            Metrics.incr_by c_prng (t.reps * Array.length supp)
          end;
          Array.init t.reps (fun rep ->
              Array.fold_left
                (fun acc i ->
                  Float.min acc (Array.unsafe_get p.labels ((i * t.reps) + rep)))
                Float.infinity supp)))

let estimate_union_raw t mins bcol =
  if Array.length bcol = 0 then 0.0
  else begin
    let acc = Array.make t.reps Float.infinity in
    Array.iter
      (fun k ->
        let m = mins.(k) in
        for rep = 0 to t.reps - 1 do
          if m.(rep) < acc.(rep) then acc.(rep) <- m.(rep)
        done)
      bcol;
    let sum = Array.fold_left ( +. ) 0.0 acc in
    if Float.is_finite sum then float_of_int (t.reps - 1) /. sum else 0.0
  end

let estimate_union t mins bcol =
  Metrics.timed h_query (fun () -> estimate_union_raw t mins bcol)
