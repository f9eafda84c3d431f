module Ctx = Matprod_comm.Ctx
module Channel = Matprod_comm.Channel
module Codec = Matprod_comm.Codec
module Fault = Matprod_comm.Fault
module Reliable = Matprod_comm.Reliable
module Transcript = Matprod_comm.Transcript

module Journal = Matprod_comm.Journal

type error =
  | Link_failure of { label : string; attempts : int }
  | Decode_failure of string
  | Precondition of string
  | Protocol_failure of string
  | Crashed of { party : Transcript.party; after_messages : int }
  | Byzantine_detected of { rank : int; replica : int; check : string }

let error_to_string = function
  | Link_failure { label; attempts } ->
      Printf.sprintf "link failure: %S unacknowledged after %d attempts" label
        attempts
  | Decode_failure m -> Printf.sprintf "decode failure: %s" m
  | Precondition m -> Printf.sprintf "precondition violated: %s" m
  | Protocol_failure m -> Printf.sprintf "protocol failure: %s" m
  | Crashed { party; after_messages } ->
      Printf.sprintf "%s crashed after %d messages"
        (Transcript.party_name party)
        after_messages
  | Byzantine_detected { rank; replica; check } ->
      Printf.sprintf
        "byzantine answer detected: worker %d replica %d violated %s" rank
        replica check

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

(* --- degraded success -------------------------------------------------- *)

type degradation = {
  survivors : int;
  parties : int;
  coverage : float;
  bound_factor : float;
}

type 'a graded = Full of 'a | Degraded of 'a * degradation

let degradation ~survivors ~parties ~coverage =
  if survivors < 0 || parties <= 0 || survivors > parties then
    invalid_arg "Outcome.degradation: need 0 <= survivors <= parties";
  if not (coverage > 0.0 && coverage <= 1.0) then
    invalid_arg "Outcome.degradation: coverage must be in (0, 1]";
  { survivors; parties; coverage; bound_factor = 1.0 /. coverage }

let graded_value = function Full v | Degraded (v, _) -> v
let is_degraded = function Full _ -> false | Degraded _ -> true

let degradation_to_string d =
  Printf.sprintf "%d/%d links, %.0f%% row coverage, bound x%.2f" d.survivors
    d.parties (100.0 *. d.coverage) d.bound_factor

let pp_graded pp_v ppf = function
  | Full v -> pp_v ppf v
  | Degraded (v, d) ->
      Format.fprintf ppf "%a [degraded: %s]" pp_v v (degradation_to_string d)

type diagnostics = {
  bits : int;
  rounds : int;
  retries : int;
  crc_rejects : int;
  faults_injected : int;
  waited : float;
}

let diagnostics_of_ctx ctx =
  let tr = Ctx.transcript ctx in
  let s = Ctx.wire_stats ctx in
  {
    bits = Transcript.total_bits tr;
    rounds = Transcript.rounds tr;
    retries = s.Channel.retries;
    crc_rejects = s.Channel.crc_rejects;
    faults_injected = Fault.total_injected s.Channel.faults;
    waited = s.Channel.waited +. s.Channel.faults.Fault.injected_delay;
  }

(* The catch list is deliberately narrow: the failure modes a hostile wire
   or a bad precondition can produce. Assertion failures, out-of-memory,
   stack overflow — genuine bugs — still escape. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Reliable.Link_failure { label; attempts } ->
      Error (Link_failure { label; attempts })
  | exception Codec.Decode_error m -> Error (Decode_failure m)
  | exception Fault.Party_crash { party; after_messages } ->
      Error (Crashed { party; after_messages })
  | exception Journal.Replay_mismatch { label; reason } ->
      Error
        (Protocol_failure
           (Printf.sprintf "journal replay mismatch at %S: %s" label reason))
  | exception Invalid_argument m -> Error (Precondition m)
  | exception Failure m -> Error (Protocol_failure m)

let capture ctx f =
  match guard f with
  | Ok v -> Ok (v, diagnostics_of_ctx ctx)
  | Error e -> Error e
