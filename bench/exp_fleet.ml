(* C3: the fleet chaos experiment. A coordinator + k workers answer
   estimator queries over row-sharded inputs while per-link chaos kills
   or delays individual workers; the tables price the topology (bits and
   rounds as k grows), the recovery paths (journal resume vs rerun for a
   crashed or straggling worker), and the quorum ladder (full, degraded
   with a widened bound, or a typed failure). Writes BENCH_c3.json. *)

module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Workload = Matprod_workload.Workload
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Shard = Matprod_topology.Shard
module Fleet = Matprod_topology.Fleet
module Json = Matprod_obs.Json

let seed = 1

let pair ~n =
  let rng = Prng.create (47 * seed) in
  ( Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2,
    Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2 )

let estimators = [ "lp p=0"; "l1_exact"; "matprod" ]

let kill_both ~after ctx =
  Ctx.install_wire ctx
    ~fault:
      (Fault.of_string ~seed:1
         (Printf.sprintf "kind=crash,party=a,after=%d;kind=crash,party=b,after=%d"
            after after))
    ()

let with_tmp_journals k =
  let base = Filename.temp_file "matprod_c3_" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      let dir = Filename.dirname base and stem = Filename.basename base in
      Array.iter
        (fun f ->
          if String.length f >= String.length stem
             && String.sub f 0 (String.length stem) = stem
          then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir))
    (fun () -> k base)

let c3 ~quick =
  Report.section
    ~id:
      "C3  fleet chaos: sharded topology, straggler recovery, quorum \
       degradation"
    ~claim:
      "k sharded links answer every estimator exactly as the two-party \
       protocol does per shard; a crashed or straggling worker is cheaper \
       to resume from its journal than to rerun; losing links past the \
       quorum degrades the answer with a widened bound instead of \
       corrupting it";
  let n = if quick then 24 else 48 in
  let a, b = pair ~n in

  (* --- cost vs fleet size -------------------------------------------- *)
  let ks = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let cols =
    [ ("estimator", 12); ("k", 3); ("bits", 10); ("rounds", 7); ("answer", 14) ]
  in
  Report.table_header cols;
  let all_full = ref true in
  List.iter
    (fun name ->
      let est = Option.get (Registry.find name) in
      List.iter
        (fun k ->
          let cfg = Fleet.config ~workers:k ~seed () in
          match Fleet.run cfg est ~a ~b with
          | Error _ -> all_full := false
          | Ok rep ->
              if Outcome.is_degraded rep.Fleet.answer then all_full := false;
              Report.row cols
                [
                  name;
                  string_of_int k;
                  Report.fbits rep.Fleet.fresh_bits;
                  string_of_int rep.Fleet.fresh_rounds;
                  Format.asprintf "%a" Estimator.pp_answer
                    (Outcome.graded_value rep.Fleet.answer);
                ];
              Report.bench_row
                [
                  ("experiment", Json.String "fleet_size");
                  ("estimator", Json.String name);
                  ("n", Json.Int n);
                  ("workers", Json.Int k);
                  ("bits", Json.Int rep.Fleet.fresh_bits);
                  ("rounds", Json.Int rep.Fleet.fresh_rounds);
                  ("survivors", Json.Int rep.Fleet.survivors);
                ])
        ks)
    estimators;
  Report.record_verdict !all_full
    "every estimator answers Full over every fleet size";

  (* --- recovery: resume vs rerun for a crashed worker ----------------- *)
  let est = Option.get (Registry.find "lp p=0") in
  let workers = 4 and victim = 1 in
  (* one journaled message before the crash, so the Resume rung has a
     prefix to replay *)
  let crash_wire ~rank ~replica:_ ~attempt ctx =
    if rank = victim && attempt = 1 then kill_both ~after:1 ctx
  in
  let straggle_wire ~rank ~replica:_ ~attempt ctx =
    if rank = victim && attempt = 1 then
      Ctx.install_wire ctx
        ~fault:(Fault.of_string "kind=straggle,after=0,burst=2,delay=5")
        ()
  in
  let deadline_policy =
    { Fleet.default_link_policy with Fleet.deadline_s = Some 0.5 }
  in
  let victim_link (rep : Fleet.report) = List.nth rep.Fleet.links victim in
  let run ?journal ?(policy = Fleet.default_link_policy) wire =
    let cfg = Fleet.config ~workers ~link_policy:policy ?journal ~seed () in
    match Fleet.run ~wire cfg est ~a ~b with
    | Ok rep -> rep
    | Error e -> failwith (Outcome.error_to_string e)
  in
  let clean = run (fun ~rank:_ ~replica:_ ~attempt:_ _ -> ()) in
  let rcols =
    [
      ("chaos", 10);
      ("recovery", 8);
      ("victim bits", 11);
      ("replayed", 9);
      ("attempts", 8);
      ("answer ok", 9);
    ]
  in
  Printf.printf "\nrecovery cost on the victim link (worker %d of %d):\n"
    victim workers;
  Report.table_header rcols;
  let recovery_rows = ref [] in
  let measure ~chaos ~journaled wire ~policy =
    let rep =
      if journaled then with_tmp_journals (fun base -> run ~journal:base ~policy wire)
      else run ~policy wire
    in
    let l = victim_link rep in
    let resumed =
      List.exists
        (fun (at : Supervisor.attempt) -> at.Supervisor.rung = Supervisor.Resume)
        l.Fleet.attempts
    in
    let answer_ok =
      (not (Outcome.is_degraded rep.Fleet.answer))
      && Outcome.graded_value rep.Fleet.answer
         = Outcome.graded_value clean.Fleet.answer
    in
    Report.row rcols
      [
        chaos;
        (if resumed then "resume" else "rerun");
        Report.fbits l.Fleet.fresh_bits;
        Report.fbits l.Fleet.resume_bits_saved;
        string_of_int (List.length l.Fleet.attempts);
        string_of_bool answer_ok;
      ];
    Report.bench_row
      [
        ("experiment", Json.String "recovery");
        ("chaos", Json.String chaos);
        ("journaled", Json.Bool journaled);
        ("recovery", Json.String (if resumed then "resume" else "rerun"));
        ("victim_bits", Json.Int l.Fleet.fresh_bits);
        ("replayed_bits", Json.Int l.Fleet.resume_bits_saved);
        ("attempts", Json.Int (List.length l.Fleet.attempts));
        ("straggled", Json.Bool l.Fleet.straggled);
        ("answer_ok", Json.Bool answer_ok);
      ];
    recovery_rows := (chaos, journaled, l, answer_ok) :: !recovery_rows
  in
  measure ~chaos:"crash" ~journaled:false crash_wire
    ~policy:Fleet.default_link_policy;
  measure ~chaos:"crash" ~journaled:true crash_wire
    ~policy:Fleet.default_link_policy;
  measure ~chaos:"straggle" ~journaled:false straggle_wire
    ~policy:deadline_policy;
  measure ~chaos:"straggle" ~journaled:true straggle_wire
    ~policy:deadline_policy;
  let find ~chaos ~journaled =
    let _, _, l, ok =
      List.find
        (fun (c, j, _, _) -> c = chaos && j = journaled)
        !recovery_rows
    in
    (l, ok)
  in
  let all_ok = List.for_all (fun (_, _, _, ok) -> ok) !recovery_rows in
  Report.record_verdict all_ok
    "every recovery path restores the clean fleet answer";
  List.iter
    (fun chaos ->
      let resumed, _ = find ~chaos ~journaled:true in
      let rerun, _ = find ~chaos ~journaled:false in
      Report.record_verdict
        (resumed.Fleet.resume_bits_saved > 0
        && resumed.Fleet.fresh_bits < rerun.Fleet.fresh_bits)
        "%s: journal resume beats rerun (%s fresh vs %s, %s replayed free)"
        chaos
        (Report.fbits resumed.Fleet.fresh_bits)
        (Report.fbits rerun.Fleet.fresh_bits)
        (Report.fbits resumed.Fleet.resume_bits_saved))
    [ "crash"; "straggle" ];
  let straggler, _ = find ~chaos:"straggle" ~journaled:true in
  Report.record_verdict straggler.Fleet.straggled
    "the late worker is flagged as a straggler by its deadline";

  (* --- quorum ladder --------------------------------------------------- *)
  let kill_ranks ranks ~rank ~replica:_ ~attempt:_ ctx =
    if List.mem rank ranks then kill_both ~after:0 ctx
  in
  let qcols =
    [
      ("dead links", 10);
      ("quorum", 6);
      ("outcome", 9);
      ("coverage", 8);
      ("bound x", 8);
    ]
  in
  Printf.printf "\nquorum ladder (k = %d):\n" workers;
  Report.table_header qcols;
  let ladder_ok = ref true in
  List.iter
    (fun (dead, quorum) ->
      let cfg = Fleet.config ~workers ~quorum ~seed () in
      let wire = kill_ranks dead in
      let survivors = workers - List.length dead in
      let outcome, coverage, bound =
        match Fleet.run ~wire cfg est ~a ~b with
        | Ok rep -> (
            match rep.Fleet.answer with
            | Outcome.Full _ ->
                if survivors < workers then ladder_ok := false;
                ("full", 1.0, 1.0)
            | Outcome.Degraded (_, d) ->
                if survivors >= workers || survivors < quorum then
                  ladder_ok := false;
                ("degraded", d.Outcome.coverage, d.Outcome.bound_factor))
        | Error _ ->
            if survivors >= quorum then ladder_ok := false;
            ("failed", 0.0, 0.0)
      in
      Report.row qcols
        [
          (if dead = [] then "none"
           else String.concat "," (List.map string_of_int dead));
          string_of_int quorum;
          outcome;
          Printf.sprintf "%.2f" coverage;
          Printf.sprintf "%.2f" bound;
        ];
      Report.bench_row
        [
          ("experiment", Json.String "quorum");
          ( "dead",
            Json.String
              (if dead = [] then "none"
               else String.concat "," (List.map string_of_int dead)) );
          ("quorum", Json.Int quorum);
          ("outcome", Json.String outcome);
          ("coverage", Json.Float coverage);
          ("bound_factor", Json.Float bound);
        ])
    [
      ([], 4);
      ([ 2 ], 4);
      ([ 2 ], 3);
      ([ 1; 3 ], 3);
      ([ 1; 3 ], 2);
    ];
  Report.record_verdict !ladder_ok
    "outcomes follow the quorum ladder: full when all links answer, \
     degraded (with bound 1/coverage) down to the quorum, typed failure \
     below it"
