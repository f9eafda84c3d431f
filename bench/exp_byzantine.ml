(* C4: the byzantine defense experiment. One worker per fleet delivers a
   perfectly framed wrong answer (CRC/ARQ pass by construction); the
   tables price the two semantic defenses — coordinator-side answer
   verification and replica voting — as detection rate and overhead for
   replicas in {1, 2, 3} x every corruption mode. Writes BENCH_c4.json. *)

module Prng = Matprod_util.Prng
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Workload = Matprod_workload.Workload
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Outcome = Matprod_core.Outcome
module Verify = Matprod_verify.Verify
module Fleet = Matprod_topology.Fleet
module Metrics = Matprod_obs.Metrics
module Json = Matprod_obs.Json

let seed = 1
let workers = 3
let victim = 1

let pair ~n =
  let rng = Prng.create (53 * seed) in
  ( Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2,
    Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2 )

(* One estimator per answer family: exact scalar, numeric sketch, additive
   shares (Freivalds), drawn samples, coordinate report. *)
let estimators ~quick =
  if quick then [ "l1_exact"; "lp p=0"; "matprod" ]
  else [ "l1_exact"; "lp p=0"; "matprod"; "l0_sampling"; "hh_binary" ]

(* The coordinate-report family needs coordinates to lie about: uniform
   noise has no heavy pairs relative to a shard's mass, so every shard's
   honest answer would be empty and a byzantine rule a no-op. Keep the
   noise thin (so a shard's ||C||_1 stays small against the default
   phi = 0.2) and plant enough overlap pairs that the victim's row shard
   reports some. *)
let inputs ~n name =
  if name = "hh_binary" then
    let rng = Prng.create (59 * seed) in
    Workload.planted_heavy_hitters rng ~n ~density:0.01
      ~heavy:[ (2 * workers, n - n / 6) ]
  else pair ~n

let byzantine_wire ~mode ~rank ~replica ~attempt ctx =
  if rank = victim && replica = 0 && attempt = 1 then
    Ctx.install_wire ctx
      ~fault:
        (Fault.of_string ~seed:(97 * (victim + 1))
           ("kind=byzantine,mode=" ^ Fault.byzantine_mode_to_string mode))
      ()

let c4 ~quick =
  Report.section
    ~id:"C4  byzantine defense: answer verification and replica voting"
    ~claim:
      "a worker that lies with valid framing is invisible to the transport \
       layer; coordinator-side validators catch out-of-range junk on their \
       own, replica voting catches every mode at r >= 2, verification adds \
       zero wire bits, and the replica-r fleet costs r x the bits of the \
       single-replica fleet";
  let n = if quick then 24 else 48 in
  let replica_counts = [ 1; 2; 3 ] in

  (* --- overhead: clean fleets, verification on vs off ------------------ *)
  let cols =
    [ ("estimator", 12); ("r", 2); ("bits", 10); ("verify bits", 11);
      ("checks", 7) ]
  in
  Printf.printf "clean-fleet overhead (k = %d):\n" workers;
  Report.table_header cols;
  let zero_cost = ref true and linear = ref true in
  let clean_answers = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let est = Option.get (Registry.find name) in
      let a, b = inputs ~n name in
      let base_bits = ref 0 in
      List.iter
        (fun r ->
          let run ~verify =
            let cfg = Fleet.config ~quorum:(workers - 1) ~replicas:r ~verify
                ~workers ~seed ()
            in
            match Fleet.run cfg est ~a ~b with
            | Ok rep -> rep
            | Error e ->
                failwith
                  (Printf.sprintf "%s clean r=%d: %s" name r
                     (Outcome.error_to_string e))
          in
          let plain = run ~verify:false in
          let checks0 = Metrics.total "verify_checks" in
          let verified = run ~verify:true in
          let checks = Metrics.total "verify_checks" - checks0 in
          if r = 1 then base_bits := plain.Fleet.fresh_bits;
          Hashtbl.replace clean_answers (name, r)
            (Outcome.graded_value verified.Fleet.answer);
          if verified.Fleet.fresh_bits <> plain.Fleet.fresh_bits then
            zero_cost := false;
          if verified.Fleet.suspects <> [] then zero_cost := false;
          let ratio =
            float_of_int plain.Fleet.fresh_bits /. float_of_int !base_bits
          in
          if ratio < 0.9 *. float_of_int r || ratio > 1.1 *. float_of_int r
          then linear := false;
          Report.row cols
            [
              name;
              string_of_int r;
              Report.fbits plain.Fleet.fresh_bits;
              Report.fbits verified.Fleet.fresh_bits;
              string_of_int checks;
            ];
          Report.bench_row
            [
              ("experiment", Json.String "overhead");
              ("estimator", Json.String name);
              ("n", Json.Int n);
              ("replicas", Json.Int r);
              ("bits", Json.Int plain.Fleet.fresh_bits);
              ("verify_bits", Json.Int verified.Fleet.fresh_bits);
              ("verify_checks", Json.Int checks);
            ])
        replica_counts)
    (estimators ~quick);
  Report.record_verdict !zero_cost
    "verification adds zero wire bits and quarantines nobody on an honest \
     fleet";
  Report.record_verdict !linear
    "the replica-r fleet costs r x the single-replica bits (within 10%%)";

  (* --- detection: one lying worker, every mode x replicas -------------- *)
  let dcols =
    [ ("estimator", 12); ("mode", 9); ("r", 2); ("verdict", 22);
      ("detected", 8) ]
  in
  Printf.printf "\ndetection (worker %d lies on replica 0):\n" victim;
  Report.table_header dcols;
  let garbage_caught = ref true and no_silent = ref true in
  let detected_at = Hashtbl.create 64 in
  List.iter
    (fun name ->
      let est = Option.get (Registry.find name) in
      let a, b = inputs ~n name in
      let summary = Verify.summarize ~a ~b in
      List.iter
        (fun mode ->
          List.iter
            (fun r ->
              let cfg =
                Fleet.config ~quorum:(workers - 1) ~replicas:r ~verify:true
                  ~workers ~seed ()
              in
              let wire = byzantine_wire ~mode in
              let failures0 = Metrics.total "verify_failures" in
              let result = Fleet.run ~wire cfg est ~a ~b in
              let vfailures = Metrics.total "verify_failures" - failures0 in
              let clean = Hashtbl.find clean_answers (name, r) in
              let detected, verdict =
                match result with
                | Error (Outcome.Byzantine_detected { check; _ }) ->
                    (true, "failed: " ^ check)
                | Error e -> (false, Outcome.error_to_string e)
                | Ok rep -> (
                    match rep.Fleet.suspects with
                    | s :: _ -> (true, "quarantined: " ^ s.Fleet.s_check)
                    | [] ->
                        if Outcome.is_degraded rep.Fleet.answer then
                          (true, "degraded")
                        else (false, "undetected"))
              in
              (* never silent: an undetected Full answer must be the clean
                 one or within the family's own consistency bound of it *)
              (match result with
              | Ok rep when not detected -> (
                  match rep.Fleet.answer with
                  | Outcome.Full v
                    when v <> clean
                         && (match
                               Verify.vote est.contract summary
                                 [ (0, clean); (1, v) ]
                             with
                            | Some vr -> vr.Verify.outvoted <> []
                            | None -> true) ->
                      no_silent := false
                  | _ -> ())
              | _ -> ());
              if mode = Fault.Garbage && vfailures = 0 then
                garbage_caught := false;
              if detected then Hashtbl.replace detected_at (name, mode, r) ();
              Report.row dcols
                [
                  name;
                  Fault.byzantine_mode_to_string mode;
                  string_of_int r;
                  verdict;
                  string_of_bool detected;
                ];
              Report.bench_row
                [
                  ("experiment", Json.String "detection");
                  ("estimator", Json.String name);
                  ("mode", Json.String (Fault.byzantine_mode_to_string mode));
                  ("replicas", Json.Int r);
                  ("detected", Json.Int (if detected then 1 else 0));
                  ("verify_failures", Json.Int vfailures);
                  ("verdict", Json.String verdict);
                ])
            replica_counts)
        Fault.all_byzantine_modes)
    (estimators ~quick);
  let replicated_catch =
    List.for_all
      (fun name ->
        List.for_all
          (fun mode ->
            List.exists
              (fun r -> r >= 2 && Hashtbl.mem detected_at (name, mode, r))
              replica_counts)
          Fault.all_byzantine_modes)
      (estimators ~quick)
  in
  Report.record_verdict !garbage_caught
    "garbage is always caught by the validators alone (every replica \
     count, no vote needed)";
  Report.record_verdict replicated_catch
    "every corruption mode is caught for every estimator once replicas \
     >= 2";
  Report.record_verdict !no_silent
    "no undetected run ever answers outside the family's consistency \
     bound of the clean fleet";
  let total = Hashtbl.length detected_at in
  let combos =
    List.length (estimators ~quick)
    * List.length Fault.all_byzantine_modes
    * List.length replica_counts
  in
  Report.note "detection rate %d/%d over estimator x mode x replicas" total
    combos
