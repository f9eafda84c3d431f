(* lowerbound: the paper's lower-bound hard instances. *)

open Cli

type lowerbound_kind = Disj | Gap | Sum

let lowerbound c (kind_name, kind) =
  let { n; seed; _ } = c in
  let rng = Prng.create seed in
  let fields =
    match kind with
    | Disj ->
        let half = n / 2 in
        let a0, b0 =
          Matprod_lowerbounds.Disj_reduction.instance rng ~half
            ~intersecting:false ~density:0.3
        in
        let a1, b1 =
          Matprod_lowerbounds.Disj_reduction.instance rng ~half
            ~intersecting:true ~density:0.3
        in
        let disjoint = Product.linf (Product.bool_product a0 b0) in
        let intersecting = Product.linf (Product.bool_product a1 b1) in
        say c "Theorem 4.4 DISJ embedding (n = %d):\n" (2 * half);
        say c "  disjoint strings     -> ||AB||_inf = %d\n" disjoint;
        say c "  intersecting strings -> ||AB||_inf = %d\n" intersecting;
        [
          ("linf_disjoint", Obs.Json.Int disjoint);
          ("linf_intersecting", Obs.Json.Int intersecting);
        ]
    | Gap ->
        let half = n / 2 and kappa = 16 in
        let a0, b0 =
          Matprod_lowerbounds.Gap_linf_reduction.instance rng ~half ~kappa
            ~gap:false
        in
        let a1, b1 =
          Matprod_lowerbounds.Gap_linf_reduction.instance rng ~half ~kappa
            ~gap:true
        in
        let no_gap = Product.linf (Product.int_product a0 b0) in
        let gap = Product.linf (Product.int_product a1 b1) in
        say c "Theorem 4.8 Gap-linf embedding (n = %d, kappa = %d):\n" (2 * half)
          kappa;
        say c "  no gap -> ||AB||_inf = %d\n" no_gap;
        say c "  gap    -> ||AB||_inf = %d\n" gap;
        [
          ("kappa", Obs.Json.Int kappa);
          ("linf_no_gap", Obs.Json.Int no_gap);
          ("linf_gap", Obs.Json.Int gap);
        ]
    | Sum ->
        let { Matprod_lowerbounds.Sum_hard.a; b; k; replicas; sum_value; _ } =
          Matprod_lowerbounds.Sum_hard.sample ~beta_const:2.0 rng ~n ~kappa:2.0
        in
        let c_mat = Product.bool_product a b in
        let diag = ref 0 in
        for i = 0 to n - 1 do
          diag := max !diag (Product.get c_mat i i)
        done;
        let linf = Product.linf c_mat in
        say c
          "Theorem 4.5 SUM instance (n = %d, k = %d, replicas = %d): SUM = %d\n"
          n k replicas sum_value;
        say c "  ||AB||_inf = %d, diagonal max = %d\n" linf !diag;
        [
          ("sum", Obs.Json.Int sum_value);
          ("linf", Obs.Json.Int linf);
          ("diagonal_max", Obs.Json.Int !diag);
        ]
  in
  finish c
    (base_fields ~subcommand:"lowerbound" c
    @ (("kind", Obs.Json.String kind_name) :: fields))

let cmd =
  let kind_arg =
    Arg.(
      value
      & opt
          (named_enum [ ("disj", Disj); ("gap", Gap); ("sum", Sum) ])
          ("disj", Disj)
      & info [ "kind" ] ~docv:"KIND" ~doc:"disj, gap or sum.")
  in
  Cmd.v
    (Cmd.info "lowerbound"
       ~doc:"Generate and inspect the paper's lower-bound hard instances.")
    Term.(const lowerbound $ common_term $ kind_arg)
