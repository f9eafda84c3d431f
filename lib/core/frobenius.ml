module Pool = Matprod_util.Pool
module Imat = Matprod_matrix.Imat
module Srht = Matprod_sketch.Srht
module Ctx = Matprod_comm.Ctx
module Channel = Matprod_comm.Channel
module Codec = Matprod_comm.Codec
module Trace = Matprod_obs.Trace

(* One-round Frobenius estimator on the SRHT family: Bob ships SRHT
   sketches of his rows; Alice combines them by linearity — sk(C_i) =
   Σ_k a_ik·sk(B_k) — and sums per-row ‖C_i‖₂² estimates into
   (1±eps)‖AB‖_F². The same shape as Lp_oneround at p = 2, but the
   sketch build is the O(d log d) FWHT kernel instead of O(d·nnz)
   hashing — the win on dense rows (bench P1 crossover sweep). *)

type params = { eps : float; sketch_groups : int }

let default_params ?(sketch_groups = 5) ~eps () = { eps; sketch_groups }

let validate prm ~a ~b =
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "Frobenius: eps must be in (0,1]";
  if prm.sketch_groups <= 0 then invalid_arg "Frobenius: sketch_groups";
  if Imat.cols a <> Imat.rows b then invalid_arg "Frobenius: dims"

(* Sketch values are integer linear combinations of integer rows: exact
   in float32 for this library's workloads, like the other dense norm
   sketches (see Lp.wire on why norm sketches ship dense). *)
let wire = Codec.array Codec.float32_array

let row_sketch_message sk plan ~b =
  Pool.init (Imat.rows b) (fun k -> Srht.sketch_with_plan sk plan (Imat.row b k))
  |> Channel.encode wire

let exchange_row_sketches ctx ~sk ~message ~a =
  Trace.with_span ~name:"frobenius.round1_srht_exchange"
    ~attrs:[ ("rows", Matprod_obs.Json.Int (Imat.cols a)) ]
  @@ fun () ->
  let sketches =
    Ctx.b2a_encoded ctx ~label:"srht-sketches(B rows)" wire message
  in
  Pool.map_sum (Imat.rows a) (fun i ->
      let acc = Srht.empty sk in
      Array.iter
        (fun (k, c) -> Srht.add_scaled sk ~dst:acc ~coeff:c sketches.(k))
        (Imat.row a i);
      Float.max 0.0 (Srht.estimate_sq sk acc))

let run ctx prm ~a ~b =
  validate prm ~a ~b;
  let dim = max 1 (Imat.cols b) in
  let sk =
    Srht.create ctx.Ctx.public ~eps:prm.eps ~groups:prm.sketch_groups ~dim
  in
  exchange_row_sketches ctx ~sk
    ~message:(row_sketch_message sk (Srht.plan sk ~dim) ~b)
    ~a
