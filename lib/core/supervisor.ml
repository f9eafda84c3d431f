module Ctx = Matprod_comm.Ctx
module Journal = Matprod_comm.Journal
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Json = Matprod_obs.Json

type policy = { max_resumes : int; max_reseeds : int }

let default_policy = { max_resumes = 2; max_reseeds = 1 }

let policy ?(max_resumes = 2) ?(max_reseeds = 1) () =
  if max_resumes < 0 then invalid_arg "Supervisor: max_resumes < 0";
  if max_reseeds < 0 then invalid_arg "Supervisor: max_reseeds < 0";
  { max_resumes; max_reseeds }

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
  let attempt_no = ref 0 in
  let scope_name ~rung n =
    Printf.sprintf "attempt%d-%s" n
      (match rung with
      | Initial -> "initial"
      | Resume -> "resume"
      | Reseed _ -> "reseed"
      | Fallback name -> "fallback-" ^ name)
  in
  (* One guarded run of [driver] at [seed] under [mode]; cost is counted
     even when the driver dies. *)
  let exec ~rung ~seed ~mode driver =
    incr attempt_no;
    (* Each attempt gets its own metrics scope and trace id, so retries do
       not conflate into one blob of counters. *)
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
       via the factory; the runner closes it win or lose. *)
    let transport = Option.map (fun factory -> factory ()) transport in
    let body ctx =
      Outcome.guard (fun () ->
          Option.iter (fun install -> install ~attempt:!attempt_no ctx) wire;
          driver ctx)
    in
    let run =
      match mode with
      | Plain -> Ctx.run ?names ?transport ~seed body
      | Record path ->
          Ctx.run_journaled ?names ?transport ~seed ~journal:path ~protocol body
      | Resume_journal (path, j) ->
          Ctx.resume ?names ?transport ~seed ~path ~journal:j body
    in
    Metrics.incr_by c_saved run.Ctx.replayed_bits;
    let failure = match run.Ctx.output with Ok _ -> None | Error e -> Some e in
    attempts :=
      {
        rung;
        seed;
        fresh_bits = run.Ctx.bits;
        fresh_rounds = run.Ctx.rounds;
        replayed_bits = run.Ctx.replayed_bits;
        failure;
      }
      :: !attempts;
    run.Ctx.output
  in
  let finish output rung =
    let attempts = List.rev !attempts in
    let total f = List.fold_left (fun acc a -> acc + f a) 0 attempts in
    Ok
      {
        output;
        rung;
        degraded = (match rung with Fallback _ -> true | _ -> false);
        attempts;
        fresh_bits = total (fun (a : attempt) -> a.fresh_bits);
        fresh_rounds = total (fun (a : attempt) -> a.fresh_rounds);
        resume_bits_saved = total (fun (a : attempt) -> a.replayed_bits);
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
  (* A usable journal: same seed, at least one delivered message. *)
  let journal_for_resume () =
    match journal with
    | None -> None
    | Some path -> (
        match Journal.load path with
        | Ok j when j.Journal.seed = seed && j.Journal.entries <> [] -> Some (path, j)
        | Ok _ | Error _ -> None)
  in
  (* Fresh runs journal whenever the caller gave a journal path. *)
  let fresh_mode = match journal with None -> Plain | Some path -> Record path in
  let rec fallback_rung last_err = function
    | [] -> give_up last_err
    | (name, driver) :: rest -> (
        match exec ~rung:(Fallback name) ~seed ~mode:Plain driver with
        | Ok v -> finish v (Fallback name)
        | Error err -> fallback_rung err rest)
  in
  let rec reseed_rung last_err i =
    if i > policy.max_reseeds then fallback_rung last_err fallbacks
    else
      let seed' = reseed_seed ~seed i in
      match exec ~rung:(Reseed seed') ~seed:seed' ~mode:fresh_mode f with
      | Ok v -> finish v (Reseed seed')
      | Error err -> reseed_rung err (i + 1)
  in
  let rec resume_rung last_err i =
    if i > policy.max_resumes then reseed_rung last_err 1
    else
      match journal_for_resume () with
      | None -> reseed_rung last_err 1
      | Some (path, j) -> (
          match exec ~rung:Resume ~seed ~mode:(Resume_journal (path, j)) f with
          | Ok v -> finish v Resume
          | Error err -> resume_rung err (i + 1))
  in
  match exec ~rung:Initial ~seed ~mode:fresh_mode f with
  | Ok v -> finish v Initial
  | Error err -> resume_rung err 1
