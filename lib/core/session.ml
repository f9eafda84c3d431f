module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

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
  let lp =
    Lp.create ctx.Ctx.public ~p ~eps:beta ~groups ~dim:(max 1 (Imat.cols b))
  in
  let plan = Lp.plan lp ~dim:(max 1 (Imat.cols b)) in
  let bob_sketches =
    Pool.init (Imat.rows b) (fun k -> Lp.sketch_with_plan lp plan (Imat.row b k))
  in
  let sketches =
    Ctx.b2a ctx ~label:"session: lp sketches of B rows"
      (Codec.array (Lp.wire lp)) bob_sketches
  in
  let comb = Lp.combiner lp sketches in
  let est =
    Pool.init (Imat.rows a) (fun i ->
        Float.max 0.0 (Lp.estimate_combination comb (Imat.row a i)))
  in
  { p; beta; a; b; est }

let p t = t.p
let beta t = t.beta
let norm_pow t = Array.fold_left ( +. ) 0.0 t.est

let row_norm_pow t i =
  if i < 0 || i >= Array.length t.est then invalid_arg "Session.row_norm_pow";
  t.est.(i)

let top_rows t ~k =
  let idx = Array.init (Array.length t.est) (fun i -> (i, t.est.(i))) in
  Array.sort (fun (_, x) (_, y) -> Float.compare y x) idx;
  Array.to_list (Array.sub idx 0 (min k (Array.length idx)))

(* Algorithm 1's round 2, replayed over the cached round-1 estimates. *)
let refine ctx ?(rho_const = 200.0) t =
  Lp_protocol.round2 ctx ~p:t.p ~beta:t.beta ~rho_const ~est:t.est ~a:t.a
    ~b:t.b

let establish_safe ?p ?groups ctx ~beta ~a ~b =
  Outcome.capture ctx (fun () -> establish ?p ?groups ctx ~beta ~a ~b)

let refine_safe ctx ?rho_const t =
  Outcome.capture ctx (fun () -> refine ctx ?rho_const t)
