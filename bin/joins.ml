(* joins: the predecessor join family of [16]. *)

open Cli

type join_kind = Equality | Disjointness | Atleast

let joins c (kind_name, kind) t =
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  let actual, estimate, tr =
    match kind with
    | Equality ->
        let bt = Bmat.transpose b in
        let exact = ref 0 in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if Bmat.row a i = Bmat.row bt j then incr exact
          done
        done;
        let r =
          run_ctx c ~seed (fun ctx -> Matprod_core.Joins.equality_join ctx ~a ~b)
        in
        say c "set-equality join: %d pairs (exact %d), %d bits, %d round\n"
          r.Ctx.output !exact r.Ctx.bits r.Ctx.rounds;
        (float_of_int !exact, float_of_int r.Ctx.output, r.Ctx.transcript)
    | Disjointness ->
        let actual = (n * n) - Product.nnz c_mat in
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.Joins.disjointness_join ctx ~eps:0.25 ~a ~b)
        in
        say c "set-disjointness join: ~%.0f pairs (exact %d), %d bits, %d rounds\n"
          r.Ctx.output actual r.Ctx.bits r.Ctx.rounds;
        (float_of_int actual, r.Ctx.output, r.Ctx.transcript)
    | Atleast ->
        let actual =
          Array.fold_left
            (fun acc (_, _, v) -> if v >= t then acc + 1 else acc)
            0 (Product.entries c_mat)
        in
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.Joins.at_least_t_join ctx
                (Matprod_core.Joins.default_threshold_params ~eps:0.25)
                ~t ~a ~b)
        in
        say c "at-least-%d join: ~%.0f pairs (exact %d), %d bits, %d rounds\n" t
          r.Ctx.output actual r.Ctx.bits r.Ctx.rounds;
        (float_of_int actual, r.Ctx.output, r.Ctx.transcript)
  in
  finish c
    (base_fields ~subcommand:"joins" c
    @ [
        ("kind", Obs.Json.String kind_name);
        ("threshold", Obs.Json.Int t);
      ]
    @ estimate_fields ~actual ~estimate
    @ transcript_fields tr)

let cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (named_enum
             [ ("equality", Equality); ("disjointness", Disjointness);
               ("atleast", Atleast) ])
          ("equality", Equality)
      & info [ "kind" ] ~docv:"KIND" ~doc:"equality, disjointness or atleast.")
  in
  let t_arg =
    Arg.(
      value & opt int 2
      & info [ "t" ] ~docv:"T" ~doc:"Threshold for the at-least-T join.")
  in
  Cmd.v
    (Cmd.info "joins"
       ~doc:"The predecessor join family of [16]: set-equality, \
             set-disjointness and at-least-T joins.")
    Term.(const joins $ common_term $ kind_arg $ t_arg)
