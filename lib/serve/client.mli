(** Blocking client for the serve daemon.

    One [t] is one session; requests may be pipelined ({!send} repeatedly,
    then {!response} in the same order — the server answers per-connection
    requests in order). The convenience wrappers ({!gen}, {!batch}) do one
    round trip. *)

type t

val connect :
  ?host:string -> port:int -> session_seed:int -> unit -> t
(** Connect, send [Hello { session_seed }], and wait for [Welcome].
    Connection refusals are retried (100 × 50 ms — covers a daemon still
    binding its socket); protocol violations raise [Failure]. *)

val send : t -> Proto.request -> unit
(** Fire one request without waiting. *)

val response : t -> Proto.response
(** Block for the next response frame. Raises [End_of_file] when the
    server closed the connection. *)

val response_raw : t -> string
(** Like {!response} but returns the undecoded frame payload — load
    generators digest these bytes. Decode with {!Proto.decode_response}. *)

val gen :
  t -> name:string -> n:int -> density:float -> seed:int -> zipf:bool ->
  (int * int, string) result
(** Ask the server to synthesise (or reuse) a named pair; returns
    [(rows, cols)], or [Error] when the name holds a pair made from
    other parameters. *)

val batch :
  t -> id:int -> pair:string -> specs:string list ->
  (Proto.response, string) result
(** One synchronous batch: [Ok (Answers _)] or [Error msg] (the server's
    [Err] payload, or a description of an out-of-protocol reply). *)

val quit : t -> unit
(** Send [Quit] and close the socket. Idempotent. *)

val close : t -> unit
(** Close without the goodbye (simulates a client crash). Idempotent. *)
