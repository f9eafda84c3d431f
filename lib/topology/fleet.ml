module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Transcript = Matprod_comm.Transcript
module Estimator = Matprod_core.Estimator
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Engine = Matprod_engine.Engine
module Verify = Matprod_verify.Verify
module Prng = Matprod_util.Prng
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Json = Matprod_obs.Json

type link_policy = {
  max_resumes : int;
  max_reseeds : int;
  deadline_s : float option;
}

let default_link_policy = { max_resumes = 2; max_reseeds = 1; deadline_s = None }

type config = {
  workers : int;
  quorum : int;
  seed : int;
  replicas : int;
  verify : bool;
  link_policy : link_policy;
  journal : string option;
  transport : Matprod_comm.Transport.factory option;
}

let check ?quorum ?(replicas = 1) ~workers () =
  let quorum = Option.value quorum ~default:workers in
  if workers < 1 then Error "workers must be >= 1"
  else if replicas < 1 || replicas > 16 then
    Error "replicas must be in [1, 16]"
  else if quorum < 1 || quorum > workers then
    Error "quorum must be in [1, workers]"
  else Ok quorum

let config ?quorum ?(replicas = 1) ?(verify = false)
    ?(link_policy = default_link_policy) ?journal ?transport ~workers ~seed
    () =
  match check ?quorum ~replicas ~workers () with
  | Error msg -> invalid_arg ("Fleet.config: " ^ msg)
  | Ok quorum ->
      { workers; quorum; seed; replicas; verify; link_policy; journal; transport }

(* Replica 0 runs at the fleet seed — a replicas = 1 fleet is bit-identical
   to the pre-replica fleet. Higher replicas derive independent seeds from
   (fleet seed, rank, replica). *)
let replica_seed cfg ~rank ~replica =
  if replica = 0 then cfg.seed
  else Prng.fresh_seed (Prng.derive cfg.seed rank replica)

type link_report = {
  rank : int;
  replica : int;
  range : Shard.range;
  attempts : Supervisor.attempt list;
  answer : (Estimator.answer, Outcome.error) result;
  fresh_bits : int;
  fresh_rounds : int;
  resume_bits_saved : int;
  straggled : bool;
}

type suspect = {
  s_rank : int;
  s_replica : int;
  s_check : string;
  s_detail : string;
}

type report = {
  answer : Estimator.answer Outcome.graded;
  links : link_report list;
  suspects : suspect list;
  survivors : int;
  coverage : float;
  fresh_bits : int;
  fresh_rounds : int;
  resume_bits_saved : int;
}

let c_links = Metrics.counter "fleet_links"
let c_link_failures = Metrics.counter "fleet_link_failures"
let c_stragglers = Metrics.counter "fleet_stragglers"
let c_degraded = Metrics.counter "fleet_degraded"
let c_giveups = Metrics.counter "fleet_giveups"
let c_quarantined = Metrics.counter "fleet_quarantined"

let link_names rank = function
  | Transcript.Alice -> Printf.sprintf "worker%d" rank
  | Transcript.Bob -> "coordinator"

(* Journal filenames derive from the estimator's registry name; keep them
   shell-friendly. *)
let sanitize name =
  String.map (fun c -> if c = ' ' || c = '=' || c = '/' then '-' else c) name

let quarantine_event ~rank ~replica ~check ~detail =
  Metrics.incr c_quarantined;
  if Trace.enabled () then
    Trace.event ~name:"fleet.quarantine"
      ~attrs:
        [
          ("rank", Json.Int rank);
          ("replica", Json.Int replica);
          ("check", Json.String check);
          ("detail", Json.String detail);
        ]
      ()

(* One link: the per-link supervisor ladder around [body], with straggler
   detection folded into the guarded body — a late answer is discarded
   and the ladder escalates exactly as for a crash, so the next rung is a
   journal resume that replays the delivered prefix without re-paying the
   delay spike. *)
let run_link ~cfg ~wire ~protocol ~rank ~replica ~seed ~(range : Shard.range)
    ~body =
  let straggled = ref false in
  let deadline_body ctx =
    let v = body ctx in
    (match cfg.link_policy.deadline_s with
    | None -> ()
    | Some d ->
        let diag = Outcome.diagnostics_of_ctx ctx in
        if diag.Outcome.waited > d then begin
          straggled := true;
          Metrics.incr c_stragglers;
          if Trace.enabled () then
            Trace.event ~name:"fleet.straggler"
              ~attrs:
                [
                  ("rank", Json.Int rank);
                  ("replica", Json.Int replica);
                  ("waited", Json.Float diag.Outcome.waited);
                  ("deadline", Json.Float d);
                ]
              ();
          failwith
            (Printf.sprintf
               "straggler: worker %d waited %.3fs > deadline %.3fs" rank
               diag.Outcome.waited d)
        end);
    v
  in
  let policy =
    Supervisor.policy ~max_resumes:cfg.link_policy.max_resumes
      ~max_reseeds:cfg.link_policy.max_reseeds ()
  in
  let suffix = if replica = 0 then "" else Printf.sprintf ".r%d" replica in
  let journal =
    Option.map
      (fun base -> Printf.sprintf "%s.worker%d%s" base rank suffix)
      cfg.journal
  in
  let wire =
    Option.map (fun f ~attempt ctx -> f ~rank ~replica ~attempt ctx) wire
  in
  Metrics.incr c_links;
  let result =
    Metrics.in_scope (Printf.sprintf "link%d%s" rank suffix) @@ fun () ->
    Trace.with_span ~name:"fleet.link"
      ~attrs:
        [
          ("rank", Json.Int rank);
          ("replica", Json.Int replica);
          ("rows", Json.Int range.Shard.length);
          ("protocol", Json.String protocol);
        ]
    @@ fun () ->
    Supervisor.run ~policy ?journal ?wire ?transport:cfg.transport
      ~names:(link_names rank) ~seed
      ~protocol:(Printf.sprintf "%s@worker%d%s" protocol rank suffix)
      deadline_body
  in
  if Metrics.enabled () then (
    match result with
    | Error _ -> Metrics.incr c_link_failures
    | Ok _ -> ());
  (result, !straggled)

let last_error results =
  List.fold_left
    (fun acc res -> match res with Error e -> Some e | Ok _ -> acc)
    None results

(* Quorum decision shared by the estimator and engine fleets: [merge]
   sees only the surviving parts, so a degraded answer is by construction
   the full-fleet merge restricted to the surviving links. *)
let decide ~cfg ~rows ~merge links_out =
  let answered =
    List.filter_map
      (fun (rank, range, res) ->
        match res with
        | Ok (rep : _ Supervisor.report) ->
            Some { Merge.rank; range; value = rep.Supervisor.output }
        | Error _ -> None)
      links_out
  in
  let survivors = List.length answered in
  if survivors >= cfg.quorum then begin
    let merged = merge answered in
    if survivors = cfg.workers then Ok (Outcome.Full merged, survivors, 1.0)
    else begin
      let coverage =
        Shard.coverage ~rows (List.map (fun p -> p.Merge.range) answered)
      in
      Metrics.incr c_degraded;
      if Trace.enabled () then
        Trace.event ~name:"fleet.degraded"
          ~attrs:
            [
              ("survivors", Json.Int survivors);
              ("workers", Json.Int cfg.workers);
              ("coverage", Json.Float coverage);
            ]
          ();
      let d = Outcome.degradation ~survivors ~parties:cfg.workers ~coverage in
      Ok (Outcome.Degraded (merged, d), survivors, coverage)
    end
  end
  else begin
    Metrics.incr c_giveups;
    if Trace.enabled () then
      Trace.event ~name:"fleet.give_up"
        ~attrs:
          [
            ("survivors", Json.Int survivors);
            ("quorum", Json.Int cfg.quorum);
          ]
        ();
    match last_error (List.map (fun (_, _, res) -> res) links_out) with
    | Some e -> Error e
    | None -> Error (Outcome.Protocol_failure "fleet: quorum unsatisfiable")
  end

(* One replica run of one shard, after link-level success/failure has been
   settled but before verification and voting. *)
type 'a replica_out = {
  ro_replica : int;
  ro_seed : int;
  ro_result : ('a Supervisor.report, Outcome.error) result;
  ro_straggled : bool;
  (* (check, detail) when the coordinator quarantined this replica *)
  mutable ro_quarantine : (string * string) option;
}

(* What [drive] asks of one shard: the link body, the validator
   run on each decoded answer, and the replica vote — the representative
   replica and the outvoted ones with their detail, or [None] when no
   strict majority agrees. *)
type 'a shard = {
  body : Ctx.t -> 'a;
  check : seed:int -> 'a -> Verify.verdict;
  vote : (int * 'a) list -> (int * (int * string) list) option;
}

(* Verification + voting for one shard's replica group. Returns the
   shard's surviving representative (feeding the quorum ladder); the
   quarantines made along the way are recorded on the replicas. A
   quarantined replica keeps its supervisor attempts in the link report
   but its answer is replaced by the typed {!Outcome.Byzantine_detected}. *)
let reconcile ~cfg ~rank shard replicas =
  let quarantine ro check detail =
    ro.ro_quarantine <- Some (check, detail);
    quarantine_event ~rank ~replica:ro.ro_replica ~check ~detail
  in
  (* 1. per-answer validation (the semantic firewall) *)
  if cfg.verify then
    List.iter
      (fun ro ->
        match ro.ro_result with
        | Error _ -> ()
        | Ok rep -> (
            match shard.check ~seed:ro.ro_seed rep.Supervisor.output with
            | Verify.Pass -> ()
            | Verify.Fail { invariant; detail } ->
                quarantine ro invariant detail))
      replicas;
  (* 2. replica vote among the validator-passing survivors; a lone passer
     wins its own vote under either rule, without asking it *)
  let passers =
    List.filter_map
      (fun ro ->
        match (ro.ro_result, ro.ro_quarantine) with
        | Ok rep, None -> Some (ro, rep)
        | _ -> None)
      replicas
  in
  let voted =
    match passers with
    | [] -> None
    | [ (ro, _) ] -> Some (ro.ro_replica, [])
    | _ ->
        shard.vote
          (List.map
             (fun (ro, rep) -> (ro.ro_replica, rep.Supervisor.output))
             passers)
  in
  match voted with
  | Some (chosen, outvoted) ->
      List.iter
        (fun (replica, detail) ->
          quarantine
            (List.find (fun ro -> ro.ro_replica = replica) replicas)
            "replica_vote" detail)
        outvoted;
      Ok (snd (List.find (fun (ro, _) -> ro.ro_replica = chosen) passers))
  | None -> (
      (* No strict majority (or no passer at all): the whole replica
         group is lost and the quorum/Degraded ladder takes over, blaming
         the first quarantined replica. *)
      List.iter
        (fun (ro, _) ->
          quarantine ro "ambiguous_vote"
            "no strict-majority agreement among replicas")
        passers;
      match List.find_opt (fun ro -> ro.ro_quarantine <> None) replicas with
      | Some { ro_replica; ro_quarantine = Some (check, _); _ } ->
          Error
            (Outcome.Byzantine_detected { rank; replica = ro_replica; check })
      | _ -> (
          match last_error (List.map (fun ro -> ro.ro_result) replicas) with
          | Some e -> Error e
          | None -> Error (Outcome.Protocol_failure "fleet: empty replica group")
          ))

(* The per-link answer a report shows: a quarantined replica's is the
   typed byzantine verdict even though its link-level run succeeded. *)
let link_answer ~rank ro =
  match (ro.ro_quarantine, ro.ro_result) with
  | Some (check, _), Ok _ ->
      Error (Outcome.Byzantine_detected { rank; replica = ro.ro_replica; check })
  | None, Ok rep -> Ok rep.Supervisor.output
  | _, Error e -> Error e

let link_stat f ro =
  match ro.ro_result with Ok rep -> f rep | Error _ -> 0

let link_attempts ro =
  match ro.ro_result with Ok rep -> rep.Supervisor.attempts | Error _ -> []

(* The one fleet pipeline: per shard, [cfg.replicas] supervised links at
   [seed_of]'s seeds, then verify → vote ({!reconcile}), then the quorum
   ladder ({!decide}) over the shard representatives. The byzantine
   boundary sits in the link body: a fault rule armed on a link's wire
   may perturb the decoded answer after correct framing — CRC and ARQ
   pass by construction, only the coordinator's semantic checks can catch
   it. Returns the graded answer with every (rank, range, replica) in
   rank-major, replica-minor order. *)
let drive ?wire cfg ~protocol ~a ~seed_of ~corrupt ~shard ~merge =
  match
    Outcome.guard (fun () ->
        (Bmat.rows a, Shard.ranges ~rows:(Bmat.rows a) ~workers:cfg.workers))
  with
  | Error e -> Error e
  | Ok (rows, ranges) -> (
      Trace.with_span ~name:"fleet.run"
        ~attrs:
          [
            ("workers", Json.Int cfg.workers);
            ("quorum", Json.Int cfg.quorum);
            ("replicas", Json.Int cfg.replicas);
            ("protocol", Json.String protocol);
          ]
      @@ fun () ->
      let shards =
        Array.to_list
          (Array.mapi
             (fun rank range ->
               let shard = shard range in
               let body ctx =
                 let v = shard.body ctx in
                 match
                   Option.bind (Ctx.installed_fault ctx) Fault.check_byzantine
                 with
                 | None -> v
                 | Some (mode, g) -> corrupt mode g v
               in
               let replicas =
                 List.init cfg.replicas (fun replica ->
                     let seed = seed_of ~rank ~replica in
                     let result, straggled =
                       run_link ~cfg ~wire ~protocol ~rank ~replica ~seed
                         ~range ~body
                     in
                     {
                       ro_replica = replica;
                       ro_seed = seed;
                       ro_result = result;
                       ro_straggled = straggled;
                       ro_quarantine = None;
                     })
               in
               (rank, range, replicas, reconcile ~cfg ~rank shard replicas))
             ranges)
      in
      match
        Outcome.guard (fun () ->
            decide ~cfg ~rows ~merge
              (List.map (fun (rank, range, _, res) -> (rank, range, res)) shards))
      with
      | Error e | Ok (Error e) -> Error e
      | Ok (Ok graded) ->
          let links =
            List.concat_map
              (fun (rank, range, replicas, _) ->
                List.map (fun ro -> (rank, range, ro)) replicas)
              shards
          in
          let suspects =
            List.filter_map
              (fun (rank, _, ro) ->
                Option.map
                  (fun (check, detail) ->
                    {
                      s_rank = rank;
                      s_replica = ro.ro_replica;
                      s_check = check;
                      s_detail = detail;
                    })
                  ro.ro_quarantine)
              links
          in
          Ok (graded, links, suspects))

let run ?wire cfg (e : Estimator.t) ~a ~b =
  let shard range =
    let shard_a = Shard.slice a range in
    let summary = lazy (Verify.summarize ~a:shard_a ~b) in
    {
      body = (fun ctx -> e.run ctx ~a:shard_a ~b);
      check =
        (fun ~seed v ->
          Verify.check ~name:e.name e.contract (Lazy.force summary) ~seed v);
      vote =
        (fun answers ->
          Option.map
            (fun vr -> (vr.Verify.chosen, vr.Verify.outvoted))
            (Verify.vote e.contract (Lazy.force summary) answers));
    }
  in
  drive ?wire cfg ~protocol:(sanitize e.name) ~a
    ~seed_of:(replica_seed cfg) ~corrupt:Verify.corrupt ~shard
    ~merge:(Merge.merge ~seed:cfg.seed ~rows:(Bmat.rows a) e.contract)
  |> Result.map (fun ((answer, survivors, coverage), links, suspects) ->
         let links =
           List.map
             (fun (rank, range, ro) ->
               {
                 rank;
                 replica = ro.ro_replica;
                 range;
                 attempts = link_attempts ro;
                 answer = link_answer ~rank ro;
                 fresh_bits = link_stat (fun r -> r.Supervisor.fresh_bits) ro;
                 fresh_rounds = link_stat (fun r -> r.Supervisor.fresh_rounds) ro;
                 resume_bits_saved =
                   link_stat (fun r -> r.Supervisor.resume_bits_saved) ro;
                 straggled = ro.ro_straggled;
               })
             links
         in
         let total f = List.fold_left (fun acc l -> acc + f l) 0 links in
         {
           answer;
           links;
           suspects;
           survivors;
           coverage;
           fresh_bits = total (fun (l : link_report) -> l.fresh_bits);
           fresh_rounds =
             List.fold_left
               (fun acc (l : link_report) -> max acc l.fresh_rounds)
               0 links;
           resume_bits_saved =
             total (fun (l : link_report) -> l.resume_bits_saved);
         })

type batch_link = {
  b_rank : int;
  b_replica : int;
  b_range : Shard.range;
  b_attempts : Supervisor.attempt list;
  b_answers : (Engine.answer array, Outcome.error) result;
}

type batch_report = {
  batch_answers : Engine.answer array Outcome.graded;
  batch_links : batch_link list;
  batch_suspects : suspect list;
  batch_survivors : int;
  batch_coverage : float;
  batch_fresh_bits : int;
}

(* Batch replicas all run at the fleet seed: the engine's determinism
   contract makes honest replicas byte-identical, so the vote is exact
   agreement on the whole answer array — classic TMR. [compare] rather
   than [=]: it treats equal nans as equal. *)
let batch_vote answers =
  List.find_map
    (fun (replica, xs) ->
      let agree, disagree =
        List.partition (fun (_, ys) -> compare xs ys = 0) answers
      in
      let n = List.length agree in
      if 2 * n <= List.length answers then None
      else
        let detail =
          Printf.sprintf "replica output disagrees with the %d-replica majority"
            n
        in
        Some (replica, List.map (fun (r, _) -> (r, detail)) disagree))
    answers

let run_batch ?wire cfg engine queries ~a ~b =
  if queries = [] then
    Error (Outcome.Precondition "Fleet.run_batch: empty batch")
  else
    let bi = Imat.of_bmat b in
    (* Every link runs at the fleet seed over [bi]: the engine holds the
       coordinator's B-row messages, built and encoded once for the batch. *)
    let contracts = Array.of_list (List.map Engine.contract queries) in
    let shard range =
      let shard_a = Shard.slice a range in
      let ai = Imat.of_bmat shard_a in
      let summary = lazy (Verify.summarize ~a:shard_a ~b) in
      {
        body =
          (fun ctx ->
            (Engine.run engine ctx ~a:ai ~b:bi queries).Engine.answers);
        (* the first failing query's verdict quarantines the replica *)
        check =
          (fun ~seed answers ->
            Seq.zip (Array.to_seq contracts) (Array.to_seq answers)
            |> Seq.map (fun (c, answer) ->
                   Verify.check ~name:"engine" c (Lazy.force summary) ~seed answer)
            |> Seq.find (fun v -> v <> Verify.Pass)
            |> Option.value ~default:Verify.Pass);
        vote = batch_vote;
      }
    in
    drive ?wire cfg ~protocol:"engine-batch" ~a
      ~seed_of:(fun ~rank:_ ~replica:_ -> cfg.seed)
      ~corrupt:(fun mode g -> Array.map (Verify.corrupt mode g))
      ~shard
      ~merge:(Merge.merge_batch ~seed:cfg.seed ~rows:(Bmat.rows a) queries)
    |> Result.map
         (fun
           ((batch_answers, batch_survivors, batch_coverage), links, suspects) ->
           {
             batch_answers;
             batch_links =
               List.map
                 (fun (rank, range, ro) ->
                   {
                     b_rank = rank;
                     b_replica = ro.ro_replica;
                     b_range = range;
                     b_attempts = link_attempts ro;
                     b_answers = link_answer ~rank ro;
                   })
                 links;
             batch_suspects = suspects;
             batch_survivors;
             batch_coverage;
             batch_fresh_bits =
               List.fold_left
                 (fun acc (_, _, ro) ->
                   acc + link_stat (fun r -> r.Supervisor.fresh_bits) ro)
                 0 links;
           })
