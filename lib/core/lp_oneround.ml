module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Ctx = Matprod_comm.Ctx

type params = { p : float; eps : float; sketch_groups : int }

let default_params ?(p = 0.0) ~eps () = { p; eps; sketch_groups = 5 }

let run ctx prm ~a ~b =
  if not (prm.p >= 0.0 && prm.p <= 2.0) then
    invalid_arg "Lp_oneround: p must be in [0,2]";
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "Lp_oneround: eps must be in (0,1]";
  if Imat.cols a <> Imat.rows b then invalid_arg "Lp_oneround: dims";
  let dim = max 1 (Imat.cols b) in
  let lp =
    Lp.create ctx.Ctx.public ~p:prm.p ~eps:prm.eps ~groups:prm.sketch_groups ~dim
  in
  (* Per-row estimates land by slot and are summed in index order, so the
     result is byte-identical at any --domains. *)
  Lp_protocol.exchange_row_sketches ctx lp ~label:"lp-sketches(B rows, eps)"
    ~message:(Lp_protocol.row_sketch_message lp (Lp.plan lp ~dim) ~b)
    ~a
  |> Array.fold_left ( +. ) 0.0
