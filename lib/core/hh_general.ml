module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Entry_map = Common.Entry_map
module Trace = Matprod_obs.Trace

type params = {
  p : float;
  phi : float;
  eps : float;
  beta_const : float;
  lp_eps : float;
}

let default_params ?(p = 1.0) ~phi ~eps () =
  { p; phi; eps; beta_const = 32.0; lp_eps = 0.25 }

let validate prm ~a ~b =
  if not (prm.p > 0.0 && prm.p <= 2.0) then invalid_arg "Hh_general: p range";
  if not (0.0 < prm.eps && prm.eps <= prm.phi && prm.phi <= 1.0) then
    invalid_arg "Hh_general: need 0 < eps <= phi <= 1";
  if Imat.cols a <> Imat.rows b then invalid_arg "Hh_general: dims";
  if not (Imat.nonneg a && Imat.nonneg b) then
    invalid_arg "Hh_general: requires non-negative matrices"

type outcome = {
  set : (int * int) list;
  beta : float;
  lpp : float;
  recovered_nnz : int;
}

let run_full ctx prm ~a ~b =
  validate prm ~a ~b;
  let n = max (Imat.rows a) (Imat.cols b) in
  (* Step 1: ||C||_p^p — exact for p = 1, Algorithm 1 otherwise. *)
  let lpp =
    Trace.with_span ~name:"hh_general.norm_estimation"
      ~attrs:[ ("p", Matprod_obs.Json.Float prm.p) ]
    @@ fun () ->
    if prm.p = 1.0 then float_of_int (L1_exact.run ctx ~a ~b)
    else
      let eps1 = Float.min prm.lp_eps (prm.eps /. (4.0 *. prm.phi)) in
      Lp_protocol.run ctx
        (Lp_protocol.default_params ~p:prm.p ~eps:eps1 ())
        ~a ~b
  in
  if lpp <= 0.0 then { set = []; beta = 1.0; lpp; recovered_nnz = 0 }
  else begin
    (* Value-domain thresholds. *)
    let heavy_value = (prm.phi *. lpp) ** (1.0 /. prm.p) in
    let out_value = ((prm.phi -. (prm.eps /. 2.0)) *. lpp) ** (1.0 /. prm.p) in
    let beta =
      Float.min 1.0
        (prm.beta_const *. Common.log_factor n
        /. (((prm.eps /. prm.phi) ** 2.0) *. heavy_value /. 8.0))
    in
    (* Alice downsamples each unit of mass binomially. Shared with Bob only
       through the product protocol below. *)
    let a_beta =
      if beta >= 1.0 then a
      else Imat.map_values a (fun _ _ v -> Prng.binomial ctx.Ctx.alice v beta)
    in
    (* Steps 3–4: recover C^beta = C_A + C_B, additively shared. *)
    let shares =
      Trace.with_span ~name:"hh_general.sampled_product"
        ~attrs:[ ("beta", Matprod_obs.Json.Float beta) ]
        (fun () -> Matprod_protocol.run ctx ~a:a_beta ~b)
    in
    Trace.with_span ~name:"hh_general.threshold_estimation" @@ fun () ->
    (* Step 5: Alice ships her heavy share entries... *)
    let tau_alice = beta *. prm.eps *. heavy_value /. (8.0 *. prm.phi) in
    let ca_heavy =
      List.filter
        (fun (_, _, v) -> float_of_int v > tau_alice)
        (Entry_map.entries shares.Matprod_protocol.alice)
    in
    let ca_heavy' =
      Ctx.a2b ctx ~label:"heavy entries of C_A" Entry_map.wire_entries ca_heavy
    in
    (* ...and Bob thresholds the combined entries. *)
    let recovered_nnz =
      Entry_map.nnz shares.Matprod_protocol.alice
      + Entry_map.nnz shares.Matprod_protocol.bob
    in
    let c' = shares.Matprod_protocol.bob in
    List.iter (fun (i, j, v) -> Entry_map.add c' i j v) ca_heavy';
    let out = ref [] in
    Entry_map.iter c' (fun i j v ->
        if float_of_int v >= beta *. out_value then out := (i, j) :: !out);
    { set = List.sort compare !out; beta; lpp; recovered_nnz }
  end

let run ctx prm ~a ~b = (run_full ctx prm ~a ~b).set
