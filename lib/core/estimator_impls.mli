(** The built-in estimator adapters: every core protocol driver packaged
    behind {!Estimator.S}.

    This module only builds the list; {!Registry} installs it at load
    time. Adapters are thin — each [run] lifts the binary workload into
    the driver's native matrix type and calls the driver's documented
    entry point, and {!Estimator.make} derives [run_safe] as
    [Outcome.capture] of it. Default queries reproduce the chaos-gallery
    parameters (small instances, coarse accuracy), so deriving the fault
    and journal suites from the registry keeps their historical
    coverage. *)

val all : Estimator.packed list
(** Every built-in adapter, in presentation order. Names are unique. *)
