(* linf: ||AB||_inf (Algorithms 2 and 3, Theorem 4.8). *)

open Cli

let linf c overlap eps kappa general =
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let banner, algo, actual, run =
    if general then
      let a = Workload.uniform_int rng ~rows:n ~cols:n ~density ~max_value:8 in
      let b = Workload.uniform_int rng ~rows:n ~cols:n ~density ~max_value:8 in
      let kappa = Option.value ~default:4.0 kappa in
      ( Printf.sprintf "integer matrices, kappa = %.1f (Theorem 4.8)" kappa,
        "general",
        Product.linf (Product.int_product a b),
        run_ctx c ~seed (fun ctx ->
            Matprod_core.Linf_general.run ctx
              { Matprod_core.Linf_general.kappa }
              ~a ~b) )
    else
      let a, b, (i, j) = Workload.planted_pair rng ~n ~density ~overlap in
      let actual = Product.linf (Product.bool_product a b) in
      match kappa with
      | Some kappa ->
          ( Printf.sprintf
              "binary planted pair at (%d,%d), kappa = %.1f (Algorithm 3)" i j
              kappa,
            "kappa",
            actual,
            run_ctx c ~seed (fun ctx ->
                (Matprod_core.Linf_kappa.run ctx
                   (Matprod_core.Linf_kappa.default_params ~kappa)
                   ~a ~b)
                  .Matprod_core.Linf_kappa.estimate) )
      | None ->
          ( Printf.sprintf
              "binary planted pair at (%d,%d), (2+%.2f)-approx (Algorithm 2)" i
              j eps,
            "binary",
            actual,
            run_ctx c ~seed (fun ctx ->
                (Matprod_core.Linf_binary.run ctx
                   (Matprod_core.Linf_binary.default_params ~eps)
                   ~a ~b)
                  .Matprod_core.Linf_binary.estimate) )
  in
  let actual = float_of_int actual and estimate = run.Ctx.output in
  if not c.json then begin
    Printf.printf "%s\n" banner;
    report c ~actual ~estimate run
  end;
  finish c
    (base_fields ~subcommand:"linf" c
    @ [
        ("eps", Obs.Json.Float eps);
        ("algo", Obs.Json.String algo);
        ( "kappa",
          match kappa with
          | Some k -> Obs.Json.Float k
          | None -> Obs.Json.Null );
      ]
    @ estimate_fields ~actual ~estimate
    @ transcript_fields run.Ctx.transcript)

let cmd =
  let overlap_arg =
    Arg.(
      value & opt int 80
      & info [ "overlap" ] ~docv:"K" ~doc:"Planted max-pair intersection size.")
  in
  let kappa_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "kappa" ] ~docv:"KAPPA"
          ~doc:"Use the kappa-approximation protocol instead of (2+eps).")
  in
  let general_arg =
    Arg.(
      value & flag
      & info [ "general" ] ~doc:"Integer matrices (Theorem 4.8 sketching).")
  in
  Cmd.v
    (Cmd.info "linf" ~doc:"Approximate ||AB||_inf (maximum intersection size).")
    Term.(
      const linf $ common_term $ overlap_arg $ eps_arg $ kappa_arg
      $ general_arg)
