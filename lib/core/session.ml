module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Ctx = Matprod_comm.Ctx

type t = {
  p : float;
  beta : float;
  a : Imat.t;
  b : Imat.t;
  est : float array; (* Alice's cached (1+beta) row-norm estimates *)
}

let establish ?(p = 0.0) ?(groups = 5) ctx ~beta ~a ~b =
  if not (p >= 0.0 && p <= 2.0) then invalid_arg "Session: p range";
  if not (beta > 0.0 && beta <= 1.0) then invalid_arg "Session: beta range";
  if Imat.cols a <> Imat.rows b then invalid_arg "Session: dims";
  let dim = max 1 (Imat.cols b) in
  let lp = Lp.create ctx.Ctx.public ~p ~eps:beta ~groups ~dim in
  let est =
    Lp_protocol.exchange_row_sketches ctx lp
      ~label:"session: lp sketches of B rows"
      ~message:(Lp_protocol.row_sketch_message lp (Lp.plan lp ~dim) ~b)
      ~a
    |> Array.map (Float.max 0.0)
  in
  { p; beta; a; b; est }

let norm_pow t = Array.fold_left ( +. ) 0.0 t.est

let row_norm_pow t i =
  if i < 0 || i >= Array.length t.est then invalid_arg "Session.row_norm_pow";
  t.est.(i)

let top_rows t ~k = Common.top_rows t.est ~k

(* Algorithm 1's round 2, replayed over the cached round-1 estimates. *)
let refine ctx ?(rho_const = 200.0) t =
  Lp_protocol.round2 ctx ~p:t.p ~beta:t.beta ~rho_const ~est:t.est ~a:t.a
    ~b:t.b
