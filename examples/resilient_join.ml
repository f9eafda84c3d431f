(* Join-size estimation that survives a crashy wire.

   Scenario: the same optimizer as join_size_estimation.ml, but the link
   between the sites is flaky — frames get dropped, and mid-protocol one
   site can die outright. Instead of wrapping the estimator in ad-hoc
   retries, the run goes through the degradation supervisor
   (docs/ROBUSTNESS.md):

     1. journal every delivered message to a write-ahead log;
     2. on a crash, resume from the journal — the paid-for prefix replays
        for zero fresh bits;
     3. if the same seed keeps dying, reseed once;
     4. if all else fails, degrade to the exact one-round protocol
        (more bits, but an answer beats no answer for a planner).

   Run with:  dune exec examples/resilient_join.exe *)

module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Workload = Matprod_workload.Workload
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor

let () =
  let n = 200 in
  let seed = 11 in
  let rng = Prng.create seed in
  let r = Workload.zipf_bool rng ~rows:n ~cols:n ~row_degree:8 ~skew:1.2 in
  let s =
    Bmat.transpose
      (Workload.zipf_bool rng ~rows:n ~cols:n ~row_degree:8 ~skew:1.2)
  in
  let exact = float_of_int (Product.nnz (Product.bool_product r s)) in
  let ri = Imat.of_bmat r and si = Imat.of_bmat s in

  (* The estimator: Algorithm 1 at p = 0 (composition-join size). *)
  let estimate ctx =
    Matprod_core.Lp_protocol.run ctx
      (Matprod_core.Lp_protocol.default_params ~p:0.0 ~eps:0.25 ())
      ~a:ri ~b:si
  in
  (* The fallback: ship the column/row sums and count exactly — here the
     trivial full-matrix protocol, n^2 bits but unconditionally correct. *)
  let exact_fallback ctx =
    Matprod_core.Trivial.run_bool ctx ~a:r ~b:s (fun c ->
        float_of_int (Product.nnz c))
  in

  (* A hostile wire: Alice's process dies right after the expensive
     round-1 sketch exchange — but only on the first attempt, the way a
     real transient crash behaves. *)
  let wire ~attempt ctx =
    if attempt = 1 then
      Ctx.install_wire ctx
        ~fault:(Fault.of_string "kind=crash,party=alice,after=1")
        ()
  in

  let journal = Filename.temp_file "resilient_join_" ".journal" in
  Printf.printf "exact |R o S| = %.0f; journaling to a temporary file\n\n"
    exact;
  (match
     Supervisor.run ~journal ~wire
       ~fallbacks:[ ("exact", exact_fallback) ]
       ~seed ~protocol:"join-size" estimate
   with
  | Ok report ->
      Printf.printf "estimate %.0f (err %.3f)%s\n" report.Supervisor.output
        (Stats.relative_error ~actual:exact ~estimate:report.Supervisor.output)
        (if report.Supervisor.degraded then "  — DEGRADED" else "");
      Printf.printf
        "answered from rung %s: %d fresh bits over %d attempts, %d bits \
         replayed from the journal instead of resent\n\n"
        (Supervisor.rung_to_string report.Supervisor.rung)
        report.Supervisor.fresh_bits
        (List.length report.Supervisor.attempts)
        report.Supervisor.resume_bits_saved;
      Format.printf "%a@."
        (fun ppf -> Supervisor.pp_report ppf (Printf.sprintf "%.0f"))
        report
  | Error e ->
      Printf.printf "estimation failed: %s\n" (Outcome.error_to_string e));
  try Sys.remove journal with Sys_error _ -> ()
