(** One grammar for every chaos knob: a single spec string, the CLI's
    [--chaos] argument:

    {v kind=crash,party=b,after=3;kind=drop,rate=0.1,from=a v}

    Clauses are separated by [';']; each clause is [key=value] pairs
    separated by [','] and must name its [kind] first. Keys per kind:

    - [drop | corrupt | truncate | duplicate]: [rate] (required,
      in [0,1]); optional [from] (sender: [a]/[alice]/[b]/[bob]) and
      [label] (transcript-label prefix).
    - [delay]: as above plus [delay] (seconds, default 0.05).
    - [crash]: victim [party] (two-party runs) or [worker] (fleet rank);
      site [after=k] (logical messages, default 0) or [label=prefix];
      flag [permanent] (fleet: the worker re-crashes on every attempt).
    - [straggle]: [delay] (required, seconds); optional [worker] (fleet
      rank), [from], [label], [after], [burst].
    - [byzantine]: [mode] ([scale]/[sign-flip]/[swap]/[garbage], default
      [scale]); optional [worker] (fleet rank).

    [parse] and {!to_string} round-trip: parsing a canonical string and
    re-printing it is the identity, so specs survive journals, JSON
    reports, and shell pipelines unchanged. *)

type kind =
  | Drop
  | Corrupt
  | Truncate
  | Duplicate
  | Delay
  | Crash
  | Straggle
  | Byzantine

(** One parsed clause. Absent keys are [None]; validation is per-kind
    (see [parse]). *)
type clause = {
  kind : kind;
  rate : float option;
  party : Transcript.party option;  (** two-party victim / sender scope *)
  worker : int option;  (** fleet victim rank *)
  label : string option;
  after : int option;
  burst : int option;
  delay_s : float option;
  mode : Fault.byzantine_mode option;
  permanent : bool;
}

type t = clause list

val parse : string -> (t, string) result
(** The empty string (or only separators) parses to []. Errors name the
    offending clause and key. *)

val to_string : t -> string
(** Canonical form: keys in a fixed order, defaults omitted.
    [parse (to_string spec) = Ok spec]. *)

(** {1 Lowering to fault models} *)

val crashes : ?scope_worker:int -> t -> Fault.crash list
(** Two-party crash events. With [?scope_worker], only clauses whose
    [worker] matches (clauses with no [worker] key apply to every rank);
    fleet crash victims speak as Alice on their link, so a [worker]
    clause with no [party] defaults the victim to Alice. *)

val straggles : ?scope_worker:int -> t -> Fault.straggle list

val byzantines : ?scope_worker:int -> t -> Fault.byzantine list

val to_fault : ?scope_worker:int -> seed:int -> t -> Fault.t option
(** The whole spec as one fault model ([None] when nothing in the spec
    applies to the scope) — byte rules, crashes, straggles, and byzantine
    corruption together, seeded like {!Fault.create}. *)

val link_fault :
  seed:int -> t -> rank:int -> replica:int -> attempt:int -> Fault.t option
(** The one fault model for a fleet link attempt ([None] when nothing
    applies). Every clause scoped to [rank] lowers into the same model, so
    no kind disarms another. Crashes fire on [attempt] 1 and rearm on
    every later attempt when a scoped crash clause is [permanent];
    straggles fire on attempt 1; byzantine rules fire on attempt 1 of
    [replica] 0, where the replica vote can catch them; byte rules apply
    to every attempt. The model is seeded [seed + 77 + rank] when byte
    rules apply, else [seed + 7919·(rank + 1)]. *)
