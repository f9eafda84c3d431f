(** Monotonic nanosecond clock for spans and timing histograms.

    Backed by [Unix.gettimeofday] clamped to be non-decreasing (the switch
    carries no mtime-style library), which is monotonic enough for
    single-process duration measurement.

    Setting the environment variable [MATPROD_OBS_FAKE_CLOCK] (to any
    value) before the first call freezes the clock at 0, making every
    exported duration deterministic — golden tests of the JSON schemas
    rely on this. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary epoch; never decreases. An immediate
    [int], so a read allocates nothing. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0] as a non-negative [int]. *)

val faked : unit -> bool
(** Whether the deterministic fake clock is active. *)
