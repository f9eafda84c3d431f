(** Wire protocol of the [matprod serve] daemon.

    One frame ({!Matprod_comm.Transport.frame}) carries one encoded
    {!request} or {!response}; the encodings are built from the existing
    {!Matprod_comm.Codec} grammar, and query statistics travel as the
    engine's textual specs ({!Matprod_engine.Engine.query_of_string}).

    Session contract: a connection opens with [Hello { session_seed }];
    every batch then runs at {!batch_seed}[ ~session_seed ~batch_id] — a
    seed derived from client-supplied values only, so a client that
    reconnects after a daemon crash re-requests the same [(session_seed,
    batch_id)] and the server resumes the batch from its journal with
    zero fresh bits (docs/SERVING.md). *)

module Imat = Matprod_matrix.Imat
module Engine = Matprod_engine.Engine

type request =
  | Hello of { session_seed : int }
      (** must be the first request on a connection *)
  | Gen of { name : string; n : int; density : float; seed : int; zipf : bool }
      (** server-side synthetic workload, the CLI generator's pair; a
          name already bound to another pair (other parameters, or an
          uploaded pair) is answered with [Err] *)
  | Register of { name : string; a : Imat.t; b : Imat.t }
      (** upload an explicit pair *)
  | Batch of { id : int; pair : string; specs : string list }
      (** run engine query specs against a registered pair; [id] must be
          fresh per session (it keys the batch seed and the journal) *)
  | Quit

type response =
  | Welcome of { session : int }  (** server-side session number *)
  | Ready of { name : string; rows : int; cols : int }
  | Answers of {
      id : int;
      bits : int;
      rounds : int;
      replayed_bits : int;  (** > 0 when the batch resumed from a journal *)
      answers : Engine.answer list;  (** one per spec, in batch order *)
    }
  | Err of string

val imat : Imat.t Matprod_comm.Codec.t
val answer : Engine.answer Matprod_comm.Codec.t
(** Encoding a [Leveled] answer, which the engine never produces, raises
    [Invalid_argument]. *)

val encode_request : request -> string
val decode_request : string -> request
val encode_response : response -> string
val decode_response : string -> response
(** Decoders raise {!Matprod_comm.Codec.Decode_error} on malformed input
    (unknown tags included). *)

val batch_seed : session_seed:int -> batch_id:int -> int
(** The seed batch [batch_id] of session [session_seed] runs at —
    deterministic, independent of server state. *)

val journal_name : session_seed:int -> batch_id:int -> string
(** Journal file name (relative to the daemon's journal dir) for one
    batch: stable across reconnects so resume finds it. *)
