(* Graph analytics across two data owners: Alice knows the follower edges
   of network A (who follows whom), Bob knows network B. The product
   C = A·B counts, for every (u, w), the number of 2-hop paths u -> v -> w
   that cross from A into B — "common neighbors", the classic link
   prediction score.

     - ||C||_1  = total number of cross-network 2-paths (Remark 2, exact);
     - ||C||_inf = the strongest pair (Algorithm 2).

   Run with:  dune exec examples/common_neighbors.exe *)

module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Workload = Matprod_workload.Workload

let () =
  let n = 300 in
  let rng = Prng.create 31 in
  (* Two overlapping social graphs with a hub community. *)
  let graph_a = Workload.zipf_bool rng ~rows:n ~cols:n ~row_degree:12 ~skew:1.0 in
  let graph_b = Workload.zipf_bool rng ~rows:n ~cols:n ~row_degree:12 ~skew:1.0 in
  let c = Product.bool_product graph_a graph_b in
  Printf.printf "network A: %d edges, network B: %d edges, %d vertices\n\n"
    (Bmat.nnz graph_a) (Bmat.nnz graph_b) n;

  (* Total cross-network 2-paths, exactly, for 2 kB. *)
  let paths = Ctx.run ~seed:1 (fun ctx -> Matprod_core.L1_exact.run_bool ctx ~a:graph_a ~b:graph_b) in
  Printf.printf "cross 2-paths      : %d (exact, %d bytes)\n" paths.Ctx.output
    (paths.Ctx.bits / 8);

  (* How many vertex pairs are linked by at least one 2-path? *)
  let reach =
    Ctx.run ~seed:2 (fun ctx ->
        Matprod_core.Lp_protocol.run ctx
          (Matprod_core.Lp_protocol.default_params ~p:0.0 ~eps:0.25 ())
          ~a:(Imat.of_bmat graph_a) ~b:(Imat.of_bmat graph_b))
  in
  Printf.printf "2-hop reachable    : ~%.0f pairs (exact %d), %d bytes\n"
    reach.Ctx.output (Product.nnz c) (reach.Ctx.bits / 8);

  (* Strongest candidate link. *)
  let top =
    Ctx.run ~seed:3 (fun ctx ->
        Matprod_core.Linf_binary.run ctx
          (Matprod_core.Linf_binary.default_params ~eps:0.25)
          ~a:graph_a ~b:graph_b)
  in
  Printf.printf "max common-neighb. : >= %.0f (exact %d), %d bytes\n"
    top.Ctx.output.Matprod_core.Linf_binary.estimate (Product.linf c)
    (top.Ctx.bits / 8)
