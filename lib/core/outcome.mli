(** Fail-safe protocol results: the typed errors and run diagnostics that
    {!capture} gives any driver call.

    The contract (docs/ROBUSTNESS.md): a protocol run over a hostile wire
    ends in exactly one of

    - {b success} — [Ok (output, diagnostics)], where [output] is within
      the protocol's guarantee (the reliability layer delivers intact
      bytes or nothing, so a completed run equals its fault-free twin);
    - {b typed failure} — [Error e] naming what went wrong;

    and never in an escaped exception or a silently wrong answer. *)

type error =
  | Link_failure of { label : string; attempts : int }
      (** a message exhausted its retransmission budget *)
  | Decode_failure of string  (** {!Matprod_comm.Codec.Decode_error} *)
  | Precondition of string  (** [Invalid_argument] from input validation *)
  | Protocol_failure of string  (** a sketch-level or internal [Failure] *)
  | Crashed of {
      party : Matprod_comm.Transcript.party;
      after_messages : int;
    }
      (** a {!Matprod_comm.Fault} crash rule killed a party mid-protocol;
          the journaled prefix (if any) remains valid for resume *)
  | Byzantine_detected of { rank : int; replica : int; check : string }
      (** a fleet link's decoded shard answer was quarantined: it failed
          answer verification or lost the replica vote ([check] names the
          violated invariant — see [Matprod_verify.Verify] and
          docs/ROBUSTNESS.md). The wire was intact; the {e worker} lied. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Degraded success}

    A fleet (coordinator + k workers, [Matprod_topology.Fleet])
    widens the trichotomy by one honest outcome: when only a quorum
    [q <= k] of shard links survives, the coordinator still answers —
    the surviving merge is a valid estimate of the statistic restricted
    to the surviving rows — but the result is {e flagged} with how much
    of the input it covers. [Degraded] is only legal when some link was
    actually lost ([survivors < parties]); a full fleet must answer
    [Full]. *)

type degradation = {
  survivors : int;  (** links that delivered a shard answer *)
  parties : int;  (** fleet size k *)
  coverage : float;  (** fraction of input rows the answer covers, in (0,1] *)
  bound_factor : float;
      (** multiplier on the estimator's error guarantee when the degraded
          answer is extrapolated to the full input under a uniform-mass
          assumption: [1 / coverage]. On the surviving rows themselves the
          original guarantee holds unwidened. *)
}

type 'a graded = Full of 'a | Degraded of 'a * degradation

val degradation :
  survivors:int -> parties:int -> coverage:float -> degradation
(** Smart constructor: validates ranges and derives [bound_factor].
    Raises [Invalid_argument] on [coverage] outside (0, 1] or
    [survivors] outside [0, parties]. *)

val graded_value : 'a graded -> 'a
val is_degraded : 'a graded -> bool

val pp_graded :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a graded -> unit

(** What a run cost and what the wire did to it. *)
type diagnostics = {
  bits : int;  (** transcript bits, retransmissions and acks included *)
  rounds : int;  (** speaking phases, ack alternations included *)
  retries : int;  (** retransmissions performed *)
  crc_rejects : int;  (** frames discarded as corrupt *)
  faults_injected : int;  (** total fault events the model injected *)
  waited : float;  (** simulated seconds in timeouts plus injected delay *)
}

val diagnostics_of_ctx : Matprod_comm.Ctx.t -> diagnostics

val guard : (unit -> 'a) -> ('a, error) result
(** Run a thunk, converting the wire/precondition exception families
    ({!Matprod_comm.Reliable.Link_failure}, {!Matprod_comm.Codec.Decode_error},
    {!Matprod_comm.Fault.Party_crash},
    {!Matprod_comm.Journal.Replay_mismatch}, [Invalid_argument], [Failure])
    into typed errors. Anything else — an actual bug — still propagates. *)

val capture :
  Matprod_comm.Ctx.t -> (unit -> 'a) -> ('a * diagnostics, error) result
(** {!guard} plus {!diagnostics_of_ctx} on success — the one fail-safe
    wrapper: callers write [capture ctx (fun () -> Driver.run ctx ...)],
    an estimator's [capture ctx (fun () -> e.run ctx ~a ~b)] included. *)
