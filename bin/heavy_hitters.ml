(* heavy-hitters: the (phi,eps)-heavy entries of AB (Alg. 4, Thm 5.3). *)

open Cli

let heavy_hitters c phi eps binary =
  validated [ (phi <= 0.0 || eps <= 0.0 || eps > phi, "need 0 < eps <= phi") ]
  @@ fun () ->
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let banner, c_mat, run =
    if binary then
      let overlap = max 40 (n / 3) in
      let a, b =
        Workload.planted_heavy_hitters rng ~n ~density ~heavy:[ (2, overlap) ]
      in
      ( Printf.sprintf "binary matrices, planted overlaps %d (Theorem 5.3)"
          overlap,
        Product.bool_product a b,
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Hh_binary.run ctx
              (Matprod_core.Hh_binary.default_params ~phi ~eps ())
              ~a ~b) )
    else
      let a, b, _ =
        Workload.planted_heavy_int rng ~n ~density ~max_value:8
          ~heavy:[ (2, 50, 25) ]
      in
      ( "integer matrices, planted heavy entries (Algorithm 4)",
        Product.int_product a b,
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Hh_general.run ctx
              (Matprod_core.Hh_general.default_params ~phi ~eps ())
              ~a ~b) )
  in
  let set = run.Ctx.output in
  let must = Product.heavy_hitters c_mat ~p:1.0 ~phi in
  let may = Product.heavy_hitters c_mat ~p:1.0 ~phi:(phi -. eps) in
  let recall = List.for_all (fun e -> List.mem e set) must in
  let precision = List.for_all (fun e -> List.mem e may) set in
  say c "%s\n" banner;
  say c "exact HH_phi      : %d entries\n" (List.length must);
  say c "allowed superset  : %d entries (HH_{phi-eps})\n" (List.length may);
  say c "protocol output S : %d entries\n" (List.length set);
  List.iter
    (fun (i, j) ->
      say c "  (%d, %d) C=%d%s\n" i j (Product.get c_mat i j)
        (if List.mem (i, j) must then "  [required]"
         else if List.mem (i, j) may then "  [allowed]"
         else "  [VIOLATION]"))
    set;
  say c "band check        : recall %s, precision %s\n"
    (if recall then "ok" else "VIOLATED")
    (if precision then "ok" else "VIOLATED");
  say c "communication     : %d bits\n" run.Ctx.bits;
  say c "rounds            : %d\n" run.Ctx.rounds;
  print_transcript c run.Ctx.transcript;
  finish c
    (base_fields ~subcommand:"heavy-hitters" c
    @ [
        ("phi", Obs.Json.Float phi);
        ("eps", Obs.Json.Float eps);
        ("algo", Obs.Json.String (if binary then "binary" else "general"));
        ("exact_hh", Obs.Json.Int (List.length must));
        ("allowed_superset", Obs.Json.Int (List.length may));
        ("output_size", Obs.Json.Int (List.length set));
        ( "output",
          Obs.Json.List
            (List.map
               (fun (i, j) -> Obs.Json.List [ Obs.Json.Int i; Obs.Json.Int j ])
               set) );
        ("recall_ok", Obs.Json.Bool recall);
        ("precision_ok", Obs.Json.Bool precision);
      ]
    @ transcript_fields run.Ctx.transcript)

let cmd =
  let phi_arg =
    Arg.(value & opt float 0.05 & info [ "phi" ] ~docv:"PHI" ~doc:"Heaviness threshold.")
  in
  let hh_eps_arg =
    Arg.(value & opt float 0.02 & info [ "eps" ] ~docv:"EPS" ~doc:"Band width.")
  in
  let binary_arg =
    Arg.(value & flag & info [ "binary" ] ~doc:"Binary matrices (Theorem 5.3 protocol).")
  in
  Cmd.v
    (Cmd.info "heavy-hitters"
       ~doc:"Find the lp-(phi,eps)-heavy-hitters of AB.")
    Term.(
      ret (const heavy_hitters $ common_term $ phi_arg $ hh_eps_arg $ binary_arg))
