(* matprod — command-line driver for the distributed matrix-product
   estimation protocols.

   Each subcommand generates a synthetic workload (or a lower-bound hard
   instance), runs one of the paper's protocols inside the bit-accurate
   two-party simulator, and prints the estimate, the exact answer, and the
   transcript cost. Each lives in its own module; [Cli] holds what they
   share. *)

open Cmdliner

let main_cmd =
  let doc =
    "distributed statistical estimation of matrix products (Woodruff–Zhang, \
     PODS 2018)"
  in
  Cmd.group
    (Cmd.info "matprod" ~version:"1.0.0" ~doc)
    [ Join_size.cmd; Linf.cmd; Heavy_hitters.cmd; Sample.cmd; Lowerbound.cmd;
      Session.cmd; Joins.cmd; Estimate.cmd; Batch.cmd; Report.cmd;
      Serve.serve_cmd; Serve.loadgen_cmd ]

let () = exit (Cmd.eval main_cmd)
