(** The estimator registry: every core driver as an {!Estimator.t}, in
    presentation order.

    Each entry lifts the binary workload into its driver's native matrix
    type and calls the driver's documented entry point at a default query
    that reproduces the chaos-gallery parameters (small instances, coarse
    accuracy). The chaos gallery ([test/test_faults.ml]), the journal
    byte-identity suite ([test/test_plan.ml]), the fleet galleries and the
    CLI's [estimate] subcommand all enumerate {!all}, so an entry added
    here automatically gains fault, crash-recovery and domain-determinism
    coverage. *)

val all : Estimator.t list
(** Every entry, in presentation order. Names are unique. *)

val find : string -> Estimator.t option
(** The entry of that name. *)
