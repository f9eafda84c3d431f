(* session: one sketch exchange answering several queries. *)

open Cli

let session c beta =
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  (* Establish, the free queries and refine share one context. *)
  let run =
    run_ctx c ~seed (fun ctx ->
        let s =
          Matprod_core.Session.establish ctx ~beta ~a:(Imat.of_bmat a)
            ~b:(Imat.of_bmat b)
        in
        let establish_bits = Transcript.total_bits (Ctx.transcript ctx) in
        let coarse = Matprod_core.Session.norm_pow s in
        let top = Matprod_core.Session.top_rows s ~k:5 in
        say c "session established: beta = %.2f, %d bits\n" beta
          establish_bits;
        say c "||C||_0 (coarse)   : %.0f (exact %d) — free\n" coarse
          (Product.nnz c_mat);
        say c "top rows by support — free:\n";
        if not c.json then
          List.iter
            (fun (i, est) ->
              let exact = (Product.row_lp_pow c_mat ~p:0.0).(i) in
              Printf.printf "  row %3d: ~%.0f (exact %.0f)\n" i est exact)
            top;
        let refined = Matprod_core.Session.refine ctx s in
        say c "||C||_0 (refined)  : %.0f — %d extra bits\n" refined
          (Transcript.total_bits (Ctx.transcript ctx) - establish_bits);
        (establish_bits, coarse, top, refined))
  in
  let establish_bits, coarse, top, refined = run.Ctx.output in
  finish c
    (base_fields ~subcommand:"session" c
    @ [
        ("beta", Obs.Json.Float beta);
        ("establish_bits", Obs.Json.Int establish_bits);
        ("coarse_estimate", Obs.Json.Float coarse);
        ("refined_estimate", Obs.Json.Float refined);
        ("exact_l0", Obs.Json.Int (Product.nnz c_mat));
        ( "top_rows",
          Obs.Json.List
            (List.map
               (fun (i, est) ->
                 Obs.Json.List [ Obs.Json.Int i; Obs.Json.Float est ])
               top) );
      ]
    @ transcript_fields run.Ctx.transcript)

let cmd =
  let beta_arg =
    Arg.(
      value & opt float 0.3
      & info [ "beta" ] ~docv:"BETA" ~doc:"Accuracy of the cached sketches.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Establish an amortised query session and answer several \
             questions from one sketch exchange.")
    Term.(const session $ common_term $ beta_arg)
