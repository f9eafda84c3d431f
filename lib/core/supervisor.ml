module Ctx = Matprod_comm.Ctx
module Journal = Matprod_comm.Journal
module Transcript = Matprod_comm.Transcript
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Json = Matprod_obs.Json

type policy = {
  max_resumes : int;
  max_reseeds : int;
  max_bits : int option;
  max_rounds : int option;
}

let default_policy =
  { max_resumes = 2; max_reseeds = 1; max_bits = None; max_rounds = None }

let policy ?(max_resumes = 2) ?(max_reseeds = 1) ?max_bits ?max_rounds () =
  if max_resumes < 0 then invalid_arg "Supervisor: max_resumes < 0";
  if max_reseeds < 0 then invalid_arg "Supervisor: max_reseeds < 0";
  { max_resumes; max_reseeds; max_bits; max_rounds }

type rung = Initial | Resume | Reseed of int | Fallback of string

let rung_to_string = function
  | Initial -> "initial"
  | Resume -> "resume"
  | Reseed s -> Printf.sprintf "reseed(%d)" s
  | Fallback name -> Printf.sprintf "fallback(%s)" name

type attempt = {
  rung : rung;
  seed : int;
  fresh_bits : int;
  fresh_rounds : int;
  replayed_bits : int;
  failure : Outcome.error option;
}

type 'r report = {
  output : 'r;
  rung : rung;
  degraded : bool;
  attempts : attempt list;
  fresh_bits : int;
  fresh_rounds : int;
  resume_bits_saved : int;
}

let pp_report ppf show (r : _ report) =
  Format.fprintf ppf "@[<v>%s via %s after %d attempt%s (%d fresh bits"
    (show r.output) (rung_to_string r.rung)
    (List.length r.attempts)
    (if List.length r.attempts = 1 then "" else "s")
    r.fresh_bits;
  if r.resume_bits_saved > 0 then
    Format.fprintf ppf ", %d replayed" r.resume_bits_saved;
  Format.fprintf ppf ")";
  List.iter
    (fun (a : attempt) ->
      Format.fprintf ppf "@,  %-14s seed %-11d %7d bits  %s"
        (rung_to_string a.rung) a.seed a.fresh_bits
        (match a.failure with
        | None -> "ok"
        | Some e -> Outcome.error_to_string e))
    r.attempts;
  Format.fprintf ppf "@]"

let c_attempts = Metrics.counter "supervisor_attempts"
let c_resumes = Metrics.counter "supervisor_resumes"
let c_reseeds = Metrics.counter "supervisor_reseeds"
let c_fallbacks = Metrics.counter "supervisor_fallbacks"
let c_giveups = Metrics.counter "supervisor_giveups"
let c_saved = Metrics.counter "supervisor_resume_bits_saved"

(* Derived reseed seeds: deterministic, collision-free for small i, and far
   from the base seed so fault patterns keyed to it decorrelate. *)
let reseed_seed ~seed i = seed + (104729 * i)

(* How the journal/replay machinery is armed for one attempt. *)
type mode = Plain | Record of string | Resume_journal of string * Journal.t

let run ?(policy = default_policy) ?journal ?wire ?names ?transport
    ?(fallbacks = []) ~seed ~protocol f =
  let attempts = ref [] in
  let fresh_bits = ref 0 and fresh_rounds = ref 0 in
  let saved = ref 0 in
  let attempt_no = ref 0 in
  (* One guarded run of [driver] at [seed] under [mode]; cost is counted
     even when the driver dies. *)
  let scope_name ~rung n =
    Printf.sprintf "attempt%d-%s" n
      (match rung with
      | Initial -> "initial"
      | Resume -> "resume"
      | Reseed _ -> "reseed"
      | Fallback name -> "fallback-" ^ name)
  in
  let exec ~rung ~seed ~mode driver =
    incr attempt_no;
    (* Each attempt gets its own metrics scope (and, since the supervisor
       builds its Ctx by hand rather than via Ctx.run, its own trace id),
       so retries no longer conflate into one blob of counters. *)
    Metrics.in_scope (scope_name ~rung !attempt_no) @@ fun () ->
    Trace.with_trace ~seed @@ fun () ->
    if Metrics.enabled () then begin
      Metrics.incr c_attempts;
      match rung with
      | Initial -> ()
      | Resume -> Metrics.incr c_resumes
      | Reseed _ -> Metrics.incr c_reseeds
      | Fallback _ -> Metrics.incr c_fallbacks
    end;
    Trace.with_span ~name:"supervisor.attempt"
      ~attrs:
        [
          ("rung", Json.String (rung_to_string rung));
          ("protocol", Json.String protocol);
          ("seed", Json.Int seed);
          ("attempt", Json.Int !attempt_no);
        ]
    @@ fun () ->
    (* Transports hold OS state, so each attempt opens a fresh connection
       via the factory and [Ctx.close] releases it win or lose. *)
    let tr_conn = Option.map (fun factory -> factory ()) transport in
    let ctx =
      match names with
      | None -> Ctx.create ?transport:tr_conn ~seed ()
      | Some names -> Ctx.create_named ?transport:tr_conn ~names ~seed ()
    in
    let result =
      Outcome.guard (fun () ->
          (match mode with
          | Plain -> ()
          | Record path -> Ctx.record ctx ~journal:path ~protocol
          | Resume_journal (path, j) -> Ctx.resume_from ctx ~path j);
          (match wire with
          | Some install -> install ~attempt:!attempt_no ctx
          | None -> ());
          driver ctx)
    in
    Ctx.close ctx;
    let tr = Ctx.transcript ctx in
    let bits = Transcript.total_bits tr in
    let rounds = Transcript.rounds tr in
    let rs = Ctx.replay_stats ctx in
    let replayed_bits = 8 * rs.Matprod_comm.Channel.replayed_bytes in
    fresh_bits := !fresh_bits + bits;
    fresh_rounds := !fresh_rounds + rounds;
    saved := !saved + replayed_bits;
    Metrics.incr_by c_saved replayed_bits;
    let failure = match result with Ok _ -> None | Error e -> Some e in
    attempts :=
      { rung; seed; fresh_bits = bits; fresh_rounds = rounds; replayed_bits;
        failure }
      :: !attempts;
    result
  in
  let finish output rung =
    Ok
      {
        output;
        rung;
        degraded = (match rung with Fallback _ -> true | _ -> false);
        attempts = List.rev !attempts;
        fresh_bits = !fresh_bits;
        fresh_rounds = !fresh_rounds;
        resume_bits_saved = !saved;
      }
  in
  let give_up err =
    Metrics.incr c_giveups;
    if Trace.enabled () then
      Trace.event ~name:"supervisor.give_up"
        ~attrs:
          [
            ("protocol", Json.String protocol);
            ("error", Json.String (Outcome.error_to_string err));
          ]
        ();
    Error err
  in
  (* Budget gate between rungs: escalating costs more bits; refuse when the
     cumulative spend already exceeds the cap. *)
  let over_budget () =
    match
      ( (match policy.max_bits with
        | Some limit when !fresh_bits >= limit -> Some ("bits", !fresh_bits, limit)
        | _ -> None),
        policy.max_rounds )
    with
    | Some b, _ -> Some b
    | None, Some limit when !fresh_rounds >= limit ->
        Some ("rounds", !fresh_rounds, limit)
    | None, _ -> None
  in
  let budget_error (resource, spent, limit) =
    Outcome.Budget_exhausted { resource; spent; limit }
  in
  (* A usable journal: same seed, at least one delivered message. *)
  let journal_for_resume () =
    match journal with
    | None -> None
    | Some path -> (
        match Journal.load path with
        | Ok j when j.Journal.seed = seed && j.Journal.entries <> [] -> Some (path, j)
        | Ok _ | Error _ -> None)
  in
  let rec fallback_rung last_err = function
    | [] -> give_up last_err
    | (name, driver) :: rest -> (
        match over_budget () with
        | Some b -> give_up (budget_error b)
        | None -> (
            match exec ~rung:(Fallback name) ~seed ~mode:Plain driver with
            | Ok v -> finish v (Fallback name)
            | Error err -> fallback_rung err rest))
  in
  let rec reseed_rung last_err i =
    if i > policy.max_reseeds then fallback_rung last_err fallbacks
    else
      match over_budget () with
      | Some b -> give_up (budget_error b)
      | None -> (
          let seed' = reseed_seed ~seed i in
          let mode =
            match journal with None -> Plain | Some path -> Record path
          in
          match exec ~rung:(Reseed seed') ~seed:seed' ~mode f with
          | Ok v -> finish v (Reseed seed')
          | Error err -> reseed_rung err (i + 1))
  in
  let rec resume_rung last_err i =
    if i > policy.max_resumes then reseed_rung last_err 1
    else
      match over_budget () with
      | Some b -> give_up (budget_error b)
      | None -> (
          match journal_for_resume () with
          | None -> reseed_rung last_err 1
          | Some (path, j) -> (
              match
                exec ~rung:Resume ~seed ~mode:(Resume_journal (path, j)) f
              with
              | Ok v -> finish v Resume
              | Error err -> resume_rung err (i + 1)))
  in
  let mode = match journal with None -> Plain | Some path -> Record path in
  match exec ~rung:Initial ~seed ~mode f with
  | Ok v -> finish v Initial
  | Error err -> resume_rung err 1
