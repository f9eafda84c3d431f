(* The batched query engine: a query optimizer asks several statistics
   about one product C = A·B in a single call, and the engine compiles
   them into a minimal communication schedule — queries sharing a sketch
   family share one exchange, and the engine holds the sketch plans of
   the last seed it ran at for the next batch.

   Run with:  dune exec examples/batched_queries.exe *)

module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Engine = Matprod_engine.Engine
module Workload = Matprod_workload.Workload

let pp_group (g : Engine.group_report) =
  Printf.printf "  %-24s queries [%s]  %6d bits  %d rounds%s\n" g.Engine.family
    (String.concat "; " (List.map string_of_int g.Engine.members))
    g.Engine.bits g.Engine.rounds
    (match g.Engine.plan with
    | Engine.Plan_hit -> "  (plan cached)"
    | Engine.Plan_miss | Engine.Not_planned -> "")

let () =
  let rng = Prng.create 11 in
  let n = 300 in
  let a = Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.05) in
  let b = Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.05) in

  (* What a planner wants to know about C before picking a join order:
     the join size, the per-row cardinalities and the busiest rows (all
     one lp family), plus a couple of sample tuples. *)
  let queries =
    [
      Engine.Norm_pow { p = 0.0; eps = 0.25 };
      Engine.Row_norms { p = 0.0; beta = 0.5 };
      Engine.Top_rows { p = 0.0; beta = 0.5; k = 3 };
      Engine.L0_sample { eps = 0.5; count = 2 };
    ]
  in
  let engine = Engine.create () in
  let run = Ctx.run ~seed:1 (fun ctx -> Engine.run engine ctx ~a ~b queries) in
  let rep = run.Ctx.output in
  Printf.printf "batch of %d queries -> %d exchange groups:\n"
    (List.length queries)
    (List.length rep.Engine.groups);
  List.iter pp_group rep.Engine.groups;
  (match rep.Engine.answers with
  | [| Engine.Scalar norm; Engine.Vector rows; Engine.Ranked top;
       Engine.L0_samples samples |] ->
      Printf.printf "\n||C||_0 ~ %.0f (over %d rows)\n" norm (Array.length rows);
      Printf.printf "busiest rows:";
      List.iter (fun (i, est) -> Printf.printf "  %d (~%.0f)" i est) top;
      Printf.printf "\nsample tuples:";
      Array.iter
        (function
          | Some s ->
              Printf.printf "  (%d, %d)" s.Matprod_core.L0_sampling.row
                s.Matprod_core.L0_sampling.col
          | None -> Printf.printf "  (none)")
        samples;
      print_newline ()
  | _ -> assert false);
  Printf.printf "total: %d bits in %d rounds\n\n" rep.Engine.total_bits
    rep.Engine.total_rounds;

  (* A second batch at the same seed over a same-shaped pair reuses the
     held sketch plan: no hash-family tabulation; B's message is encoded
     again, since B changed. *)
  let a2 = Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.05) in
  let b2 = Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.05) in
  let run2 =
    Ctx.run ~seed:1 (fun ctx -> Engine.run engine ctx ~a:a2 ~b:b2 queries)
  in
  Printf.printf "second batch (same shapes, warm plan cache):\n";
  List.iter pp_group run2.Ctx.output.Engine.groups;
  let hits = rep.Engine.plan_hits + run2.Ctx.output.Engine.plan_hits
  and misses = rep.Engine.plan_misses + run2.Ctx.output.Engine.plan_misses in
  Printf.printf "plan cache: %d hits, %d misses across both batches\n" hits misses
