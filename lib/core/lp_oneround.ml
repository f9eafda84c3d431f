module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Pool = Matprod_util.Pool
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

type params = { p : float; eps : float; sketch_groups : int }

let default_params ?(p = 0.0) ~eps () = { p; eps; sketch_groups = 5 }

let run ctx prm ~a ~b =
  if not (prm.p >= 0.0 && prm.p <= 2.0) then
    invalid_arg "Lp_oneround: p must be in [0,2]";
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "Lp_oneround: eps must be in (0,1]";
  if Imat.cols a <> Imat.rows b then invalid_arg "Lp_oneround: dims";
  let lp =
    Lp.create ctx.Ctx.public ~p:prm.p ~eps:prm.eps ~groups:prm.sketch_groups
      ~dim:(max 1 (Imat.cols b))
  in
  (* One plan per hash family, shared by every row; the fan-outs below are
     pure per-index work, so domain-pool results are placed by slot and the
     final sum folds in index order — byte-identical at any --domains. *)
  let plan = Lp.plan lp ~dim:(max 1 (Imat.cols b)) in
  let bob_sketches =
    Pool.init (Imat.rows b) (fun k -> Lp.sketch_with_plan lp plan (Imat.row b k))
  in
  let sketches =
    Ctx.b2a ctx ~label:"lp-sketches(B rows, eps)" (Codec.array (Lp.wire lp))
      bob_sketches
  in
  let comb = Lp.combiner lp sketches in
  Pool.map_sum (Imat.rows a) (fun i ->
      Lp.estimate_combination comb (Imat.row a i))
