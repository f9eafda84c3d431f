(** Deterministic domain pool for per-row sketch fan-out.

    The protocol drivers sketch n rows against one shared hash family —
    embarrassingly parallel work. This pool runs such loops across OCaml 5
    domains while keeping the output {e byte-identical} to the sequential
    path: every result lands in its own index slot and reductions fold in
    index order, so the schedule never shows in transcripts, journals, or
    golden outputs (docs/PERFORMANCE.md).

    The pool size defaults to 1 — the sequential path; {!set_size} (the
    CLI's [--domains]) changes it. Worker domains are spawned lazily on the first parallel
    call and persist for the process lifetime. At size 1 every entry point
    is exactly the plain sequential loop.

    Closures passed to the pool must not mutate shared state and must not
    consume [Prng] streams; the planned sketch kernels qualify (plans are
    read-only tables). {!Matprod_obs.Metrics} counters touched inside a
    parallel section are best-effort: racing increments may be lost (never
    torn), so enable multi-domain runs for speed, not for counter-exact
    accounting. *)

val size : unit -> int
(** Current pool size: the last {!set_size}, else 1. *)

val set_size : int -> unit
(** Fix the pool size ([>= 1]). Shrinking does
    not stop already-spawned workers — they idle (until {!shutdown}). *)

val shutdown : unit -> unit
(** Drain the pool: wake every idle worker, join all spawned domains, and
    reset to the unspawned state. Without it a long-lived process (the
    serve daemon) leaks one parked domain per worker and a SIGTERM
    teardown races their wake-ups. Idempotent, cheap when nothing was
    spawned, and {e not} a terminal state — the next parallel call lazily
    respawns a fresh pool. Must be called from the domain that drives the
    pool (no {!init} may be in flight). *)

val init : int -> (int -> 'a) -> 'a array
(** [init n f] is elementwise identical to [Array.init n f], computed in
    parallel when the pool size exceeds 1. [f] must be pure with respect
    to shared state. Chunks of [max 32 (n/(domains*8))] indices are
    handed out dynamically through an atomic cursor — the floor keeps
    short fan-outs from degenerating into per-item handouts, bench P1.
    Chunking never affects results: each index writes its own slot. The
    first exception raised by any domain is re-raised on the caller after
    all domains quiesce. *)

val map_sum : int -> (int -> float) -> float
(** [map_sum n f = Σ_{i<n} f i], folded in index order so the float
    rounding matches the sequential accumulation loop bit for bit. *)
