(* sample: l0- and l1-samples from the product AB. *)

open Cli

type sample_kind = L0 | L1

let sample c (kind_name, kind) count =
  let { n; density; seed; _ } = c in
  let rng = Prng.create seed in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density in
  let c_mat = Product.bool_product a b in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  say c "sampling %d %s-samples from a product with ||C||_0 = %d, ||C||_1 = %d\n"
    count kind_name (Product.nnz c_mat) (Product.l1 c_mat);
  (* One draw: its bits, and the sampled (row, col, detail) or why none. *)
  let draw seed =
    match kind with
    | L1 -> (
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.L1_sampling.run ctx ~a:ai ~b:bi)
        in
        ( r.Ctx.bits,
          match r.Ctx.output with
          | Some { Matprod_core.L1_sampling.row; col; witness } ->
              Ok
                ( row,
                  col,
                  Printf.sprintf "via witness %d   [C entry = %d]" witness
                    (Product.get c_mat row col) )
          | None -> Error "(product empty)" ))
    | L0 -> (
        let r =
          run_ctx c ~seed (fun ctx ->
              Matprod_core.L0_sampling.run ctx
                (Matprod_core.L0_sampling.default_params ~eps:0.25)
                ~a:ai ~b:bi)
        in
        ( r.Ctx.bits,
          match r.Ctx.output with
          | Some { Matprod_core.L0_sampling.row; col; value } ->
              Ok (row, col, Printf.sprintf "with value %d" value)
          | None -> Error "(sampler failed this run)" ))
  in
  let total_bits = ref 0 in
  let drawn = ref [] in
  for t = 1 to count do
    let bits, sample = draw (seed + t) in
    total_bits := !total_bits + bits;
    match sample with
    | Ok (row, col, detail) ->
        drawn := Obs.Json.List [ Obs.Json.Int row; Obs.Json.Int col ] :: !drawn;
        say c "  (%d, %d) %s\n" row col detail
    | Error why -> say c "  %s\n" why
  done;
  say c "total communication: %d bits (%d per sample)\n" !total_bits
    (!total_bits / max 1 count);
  finish c
    (base_fields ~subcommand:"sample" c
    @ [
        ("kind", Obs.Json.String kind_name);
        ("count", Obs.Json.Int count);
        ("samples", Obs.Json.List (List.rev !drawn));
        ("bits", Obs.Json.Int !total_bits);
        ("bits_per_sample", Obs.Json.Int (!total_bits / max 1 count));
      ])

let cmd =
  let kind_arg =
    Arg.(
      value
      & opt (named_enum [ ("l0", L0); ("l1", L1) ]) ("l0", L0)
      & info [ "kind" ] ~docv:"KIND" ~doc:"l0 or l1.")
  in
  let count_arg =
    Arg.(value & opt int 5 & info [ "count" ] ~docv:"COUNT" ~doc:"Number of samples.")
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Draw l0- or l1-samples from the product AB.")
    Term.(const sample $ common_term $ kind_arg $ count_arg)
