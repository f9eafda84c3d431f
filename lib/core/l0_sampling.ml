module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Imat = Matprod_matrix.Imat
module L0_sketch = Matprod_sketch.L0_sketch
module L0_sampler = Matprod_sketch.L0_sampler
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Trace = Matprod_obs.Trace

type params = { eps : float; sketch_groups : int; sampler_s : int }

let default_params ~eps = { eps; sketch_groups = 3; sampler_s = 12 }

type sample = { row : int; col : int; value : int }

let run_many ctx prm ~count ~a ~b =
  if Imat.cols a <> Imat.rows b then invalid_arg "L0_sampling: dims";
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "L0_sampling: eps range";
  if count < 1 then invalid_arg "L0_sampling: count";
  let inner = Imat.cols a and nrows = Imat.rows a in
  let sk =
    L0_sketch.create ctx.Ctx.public ~eps:prm.eps ~groups:prm.sketch_groups
      ~dim:(max 1 nrows)
  in
  let samplers =
    Array.init count (fun _ ->
        L0_sampler.create ctx.Ctx.public ~dim:(max 1 nrows) ~s:prm.sampler_s ())
  in
  let at = Imat.transpose a in
  let alice_cols = Array.init inner (fun k -> Imat.row at k) in
  let msg_sketches, msg_samplers =
    Trace.with_span ~name:"l0_sampling.sketch_build" (fun () ->
        let plan = L0_sketch.plan sk ~dim:(max 1 nrows) in
        ( Pool.init inner (fun k ->
              L0_sketch.sketch_with_plan sk plan alice_cols.(k)),
          Array.map
            (fun smp ->
              Pool.init inner (fun k -> L0_sampler.sketch smp alice_cols.(k)))
            samplers ))
  in
  (* One speaking phase: the column-norm sketches plus [count] independent
     sampler structures per column. Each column sketch ships in the
     shorter of its dense and sparse forms. *)
  let sketches =
    Ctx.a2b ctx ~label:"l0 sketches of A cols" (Codec.array (L0_sketch.wire sk))
      msg_sketches
  in
  let sampler_states =
    Array.mapi
      (fun t per_col ->
        Ctx.a2b ctx
          ~label:(Printf.sprintf "l0 samplers of A cols #%d" t)
          (Codec.array (L0_sampler.wire samplers.(t)))
          per_col)
      msg_samplers
  in
  (* Bob: estimate ||C_{*,j}||_0 for every output column j, once. *)
  let bt = Imat.transpose b in
  let col_est =
    Trace.with_span ~name:"l0_sampling.column_estimation" (fun () ->
        let comb = L0_sketch.combiner sk sketches in
        Pool.init (Imat.cols b) (fun j ->
            Float.max 0.0 (L0_sketch.estimate_combination comb (Imat.row bt j))))
  in
  let total = Array.fold_left ( +. ) 0.0 col_est in
  Array.init count (fun t ->
      if total <= 0.0 then None
      else begin
        (* Sample a column ∝ estimated support, then a row via sampler t. *)
        let target = Prng.float ctx.Ctx.bob *. total in
        let j = ref 0 and acc = ref col_est.(0) in
        while !acc < target && !j < Imat.cols b - 1 do
          incr j;
          acc := !acc +. col_est.(!j)
        done;
        let j = !j in
        let smp = samplers.(t) in
        let combined =
          Array.fold_left
            (fun acc (k, v) ->
              L0_sampler.add_scaled smp acc ~coeff:v sampler_states.(t).(k))
            (L0_sampler.fresh smp) (Imat.row bt j)
        in
        match L0_sampler.sample smp combined with
        | None -> None
        | Some (i, v) -> Some { row = i; col = j; value = v }
      end)

let run ctx prm ~a ~b = (run_many ctx prm ~count:1 ~a ~b).(0)
