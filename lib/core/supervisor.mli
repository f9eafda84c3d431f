(** Degradation supervisor: a typed, costed escalation ladder over any
    protocol driver.

    A single {!Outcome.capture} gives the trichotomy for one attempt; the
    supervisor decides what to do when that attempt fails, climbing a
    fixed ladder:

    + {b Resume} — rerun at the {e same seed}, fast-forwarding through the
      write-ahead {!Matprod_comm.Journal} of the failed attempt: the bits
      already paid for (e.g. Algorithm 1's round-1 sketches) are replayed
      for free and only the remainder touches the wire. Taken while a
      journal with at least one entry exists and [max_resumes] allows.
    + {b Reseed} — full rerun at a fresh deterministic seed (journal
      restarted); the escape hatch when the failure tracks the seed (e.g.
      a fault pattern that keeps killing the same message).
    + {b Degrade} — run the registered fallback drivers in order (e.g.
      ℓp → exact ℓ1, κ-approx ℓ∞ → trivial): a coarser or costlier answer
      beats no answer for a query planner, and the caller can see the
      degradation in the report.
    + {b Give up} — return the last typed error.

    Every attempt runs through {!Matprod_comm.Ctx.run} (or its journaled
    and resuming twins) with a body guarded by {!Outcome.guard}, so its
    cost is counted even when it fails and its transport is closed even
    when a bug escapes. Decisions are observable: span
    [supervisor.attempt] per attempt, counters [supervisor_attempts],
    [supervisor_resumes], [supervisor_reseeds], [supervisor_fallbacks],
    [supervisor_giveups], [supervisor_resume_bits_saved]
    (docs/ROBUSTNESS.md). *)

type policy = {
  max_resumes : int;  (** journal-resume attempts after the initial run *)
  max_reseeds : int;  (** fresh-seed full reruns after resumes run out *)
}

val policy : ?max_resumes:int -> ?max_reseeds:int -> unit -> policy
(** Defaults: 2 resumes, 1 reseed; {!run} uses them when given no
    [?policy]. *)

(** Which rung produced an attempt. *)
type rung =
  | Initial
  | Resume  (** same seed, journal fast-forward *)
  | Reseed of int  (** the fresh seed used *)
  | Fallback of string  (** registered fallback protocol name *)

val rung_to_string : rung -> string

(** One guarded run and what it cost. [replayed_bits] are journal bits
    served for free; [fresh_bits] is what actually crossed the wire. *)
type attempt = {
  rung : rung;
  seed : int;
  fresh_bits : int;
  fresh_rounds : int;
  replayed_bits : int;
  failure : Outcome.error option;  (** [None] = this attempt succeeded *)
}

type 'r report = {
  output : 'r;
  rung : rung;  (** the rung that produced [output] *)
  degraded : bool;  (** [true] iff a fallback answered *)
  attempts : attempt list;  (** in execution order, successes included *)
  fresh_bits : int;  (** cumulative over all attempts *)
  fresh_rounds : int;  (** cumulative over all attempts *)
  resume_bits_saved : int;
      (** journal bits replayed instead of resent, over all resumes *)
}

val pp_report :
  Format.formatter -> ('r -> string) -> 'r report -> unit

val run :
  ?policy:policy ->
  ?journal:string ->
  ?wire:(attempt:int -> Matprod_comm.Ctx.t -> unit) ->
  ?names:(Matprod_comm.Transcript.party -> string) ->
  ?transport:Matprod_comm.Transport.factory ->
  ?fallbacks:(string * (Matprod_comm.Ctx.t -> 'r)) list ->
  seed:int ->
  protocol:string ->
  (Matprod_comm.Ctx.t -> 'r) ->
  ('r report, Outcome.error) result
(** Drive [protocol]'s body up the ladder. [?journal] names the
    write-ahead log file and enables the Resume rung (without it the
    ladder goes straight to Reseed). [?wire] installs the fault model for
    each attempt — it receives the 1-based attempt number, so a test can
    crash only the first attempt the way a real transient crash would.
    [?names] renames the wire roles for observability on every attempt's
    context (see {!Matprod_comm.Ctx.run}) — the fleet supervisor passes
    ["worker<i>"]/["coordinator"]. [?transport] is a {e factory}: each
    attempt opens a fresh physical connection through it (transports hold
    OS state) and closes it when the attempt ends, win or lose.
    Fallbacks run at the original seed under the same wire. The error on
    [Error] is the last rung's typed error. Never raises on wire/crash/
    precondition failures; genuine bugs still escape ({!Outcome.guard}). *)
