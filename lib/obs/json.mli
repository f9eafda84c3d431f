(** Minimal JSON tree, serializer and parser.

    The opam switch deliberately carries no JSON library; everything the
    observability layer exports (run summaries, trace lines, bench files)
    goes through this module, so there is exactly one place that defines
    what "valid JSON" means for the repo. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line rendering. Non-finite floats serialize as [null] so the
    output is always standard JSON. *)

val of_string : string -> t
(** Strict parser for the subset {!to_string} emits (standard JSON without
    unicode escapes beyond [\uXXXX] pass-through). Raises [Failure] on
    malformed input or trailing bytes. Numbers with a ['.'], exponent, or
    out-of-int range parse as [Float]. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks up a field; [None] on missing key or
    non-object. *)
