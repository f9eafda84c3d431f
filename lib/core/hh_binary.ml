module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Entry_map = Common.Entry_map
module Trace = Matprod_obs.Trace

type params = {
  p : float;
  phi : float;
  eps : float;
  alpha_const : float;
  verify_samples_const : float;
  lp_eps : float;
}

let default_params ?(p = 1.0) ~phi ~eps () =
  { p; phi; eps; alpha_const = 16.0; verify_samples_const = 4.0; lp_eps = 0.25 }

let coord_codec = Codec.pair Codec.uint Codec.uint

let run ctx prm ~a ~b =
  if not (prm.p > 0.0 && prm.p <= 2.0) then invalid_arg "Hh_binary: p range";
  if not (0.0 < prm.eps && prm.eps <= prm.phi && prm.phi <= 1.0) then
    invalid_arg "Hh_binary: need 0 < eps <= phi <= 1";
  if Bmat.cols a <> Bmat.rows b then invalid_arg "Hh_binary: dims";
  let inner = Bmat.cols a in
  let n = max (Bmat.rows a) (Bmat.cols b) in
  let inv_p = 1.0 /. prm.p in
  (* Step 1: ||C||_p^p to accuracy sufficient for the (phi, eps) band.
     For p = 1 the Remark 2 identity gives it exactly in O(n log n) bits;
     otherwise run Algorithm 1. *)
  let lpp =
    Trace.with_span ~name:"hh_binary.norm_estimation"
      ~attrs:[ ("p", Matprod_obs.Json.Float prm.p) ]
    @@ fun () ->
    if prm.p = 1.0 then float_of_int (L1_exact.run_bool ctx ~a ~b)
    else
      let eps1 = Float.min prm.lp_eps (prm.eps /. (4.0 *. prm.phi)) in
      Lp_protocol.run ctx
        (Lp_protocol.default_params ~p:prm.p ~eps:eps1 ())
        ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b)
  in
  if lpp <= 0.0 then []
  else begin
    let lp_norm = lpp ** inv_p in
    let heavy_value = (prm.phi *. lpp) ** inv_p in
    let out_value = ((prm.phi -. (prm.eps /. 2.0)) *. lpp) ** inv_p in
    (* Step 2: universe (column) sampling with shared coins. *)
    let alpha = (prm.alpha_const *. Common.log_factor n) ** inv_p in
    let beta =
      Float.min 1.0 (alpha /. ((prm.phi ** inv_p) *. lp_norm))
    in
    let shares =
      Trace.with_span ~name:"hh_binary.sampling_round"
        ~attrs:[ ("beta", Matprod_obs.Json.Float beta) ]
      @@ fun () ->
      let survives =
        Array.init inner (fun _ -> Prng.bernoulli ctx.Ctx.public beta)
      in
      let a' = Bmat.filter_entries a (fun _ k -> survives.(k)) in
      let b' = Bmat.filter_entries b (fun k _ -> survives.(k)) in
      Matprod_protocol.run ctx ~a:(Imat.of_bmat a') ~b:(Imat.of_bmat b')
    in
    Trace.with_span ~name:"hh_binary.candidate_verification" @@ fun () ->
    (* Step 3: share entries that look heavy become candidates. Besides the
       paper's β·(ϕ(L'_p)^p/20)^{1/p} cut, any entry that can clear the
       final threshold must leave one share ≥ ~β·out_value/2 (shares split
       an entry two ways and the sampled value concentrates), so the
       candidate bar can be raised to 0.3·β·out_value — sound, and it stops
       a long tail of hopeless candidates from being verified when
       ϕ·‖C‖_p^p is small. *)
    let theta =
      Float.max
        (beta *. heavy_value /. (20.0 ** inv_p))
        (0.3 *. beta *. out_value)
    in
    let candidates_of share =
      List.filter_map
        (fun (i, j, v) -> if float_of_int v >= theta then Some (i, j) else None)
        (Entry_map.entries share)
    in
    let sb =
      Ctx.b2a ctx ~label:"candidates from C_B" (Codec.list coord_codec)
        (candidates_of shares.Matprod_protocol.bob)
    in
    let candidates =
      List.sort_uniq compare (candidates_of shares.Matprod_protocol.alice @ sb)
    in
    (* Verification: Alice ships |A_i| and sampled positions of A_i per
       candidate; Bob probes his column and thresholds. *)
    let m =
      max 16
        (int_of_float
           (Float.ceil
              (prm.verify_samples_const
              *. ((prm.phi /. prm.eps) ** 2.0)
              *. Common.log_factor n)))
    in
    let probes =
      List.map
        (fun (i, j) ->
          let row = Bmat.row a i in
          let deg = Array.length row in
          let samples =
            if deg = 0 then [||]
            else Array.init m (fun _ -> row.(Prng.int ctx.Ctx.alice deg))
          in
          (i, j, deg, samples))
        candidates
    in
    let probes' =
      Ctx.a2b ctx ~label:"candidate probes"
        (Codec.list
           (Codec.triple coord_codec Codec.uint Codec.uint_array))
        (List.map (fun (i, j, deg, s) -> ((i, j), deg, s)) probes)
    in
    let out =
      List.filter_map
        (fun ((i, j), deg, samples) ->
          if deg = 0 then None
          else begin
            let hits = ref 0 in
            Array.iter (fun k -> if Bmat.get b k j then incr hits) samples;
            let est =
              float_of_int deg *. float_of_int !hits
              /. float_of_int (Array.length samples)
            in
            if est >= out_value then Some (i, j) else None
          end)
        probes'
    in
    List.sort compare out
  end
