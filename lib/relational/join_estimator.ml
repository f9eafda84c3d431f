module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx

type 'a answer = { value : 'a; bits : int; rounds : int }

let check_domains r s =
  if Relation.y_dom r <> Relation.x_dom s then
    invalid_arg "Join_estimator: shared attribute domains differ"

let wrap (run : 'a Ctx.run) =
  { value = run.Ctx.output; bits = run.Ctx.bits; rounds = run.Ctx.rounds }

let matrices r s = (Relation.to_matrix r, Relation.to_matrix s)

let composition_size ?(eps = 0.25) ~seed ~r ~s () =
  check_domains r s;
  let a, b = matrices r s in
  wrap
    (Ctx.run ~seed (fun ctx ->
         Matprod_core.Lp_protocol.run ctx
           (Matprod_core.Lp_protocol.default_params ~p:0.0 ~eps ())
           ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b)))

let natural_join_size ~seed ~r ~s =
  check_domains r s;
  let a, b = matrices r s in
  wrap (Ctx.run ~seed (fun ctx -> Matprod_core.L1_exact.run_bool ctx ~a ~b))

let max_witness_count ?(eps = 0.25) ~seed ~r ~s () =
  check_domains r s;
  let a, b = matrices r s in
  let run =
    Ctx.run ~seed (fun ctx ->
        Matprod_core.Linf_binary.run ctx
          (Matprod_core.Linf_binary.default_params ~eps)
          ~a ~b)
  in
  {
    value = run.Ctx.output.Matprod_core.Linf_binary.estimate;
    bits = run.Ctx.bits;
    rounds = run.Ctx.rounds;
  }

let sample_join_tuple ~seed ~r ~s =
  check_domains r s;
  let a, b = matrices r s in
  let run =
    Ctx.run ~seed (fun ctx ->
        Matprod_core.L1_sampling.run ctx ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  {
    value =
      Option.map
        (fun t ->
          ( t.Matprod_core.L1_sampling.row,
            t.Matprod_core.L1_sampling.witness,
            t.Matprod_core.L1_sampling.col ))
        run.Ctx.output;
    bits = run.Ctx.bits;
    rounds = run.Ctx.rounds;
  }

let sample_output_pair ?(eps = 0.25) ~seed ~r ~s () =
  check_domains r s;
  let a, b = matrices r s in
  let run =
    Ctx.run ~seed (fun ctx ->
        Matprod_core.L0_sampling.run ctx
          (Matprod_core.L0_sampling.default_params ~eps)
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  {
    value =
      Option.map
        (fun t -> (t.Matprod_core.L0_sampling.row, t.Matprod_core.L0_sampling.col))
        run.Ctx.output;
    bits = run.Ctx.bits;
    rounds = run.Ctx.rounds;
  }
