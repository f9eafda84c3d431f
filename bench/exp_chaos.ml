(* C1: the robustness sweep. Protocols are replayed over an unreliable
   wire under several fault profiles; the table shows what reliability
   costs (bits inflation from retransmissions and acks) and what it buys
   (every completed run equals the fault-free one — the trichotomy of
   docs/ROBUSTNESS.md, here as a measured verdict rather than a unit
   test). The last column prices the clean transcript on a WAN with
   matching frame loss via Netmodel. *)

module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Journal = Matprod_comm.Journal
module Reliable = Matprod_comm.Reliable
module Netmodel = Matprod_comm.Netmodel
module Transcript = Matprod_comm.Transcript
module Workload = Matprod_workload.Workload
module Outcome = Matprod_core.Outcome
module Json = Matprod_obs.Json

(* (name, fault spec, comparable WAN loss probability). The clean
   profile arms an inert wire, so its overhead column measures what the
   reliability layer costs when nothing fires. *)
let profiles =
  [
    ("clean", "kind=drop,rate=0", 0.0);
    ("drop 10%", "kind=drop,rate=0.1", 0.1);
    ("corrupt 20%", "kind=corrupt,rate=0.2", 0.2);
    ("truncate 15%", "kind=truncate,rate=0.15", 0.15);
    ( "storm",
      "kind=drop,rate=0.08;kind=corrupt,rate=0.1;kind=truncate,rate=0.08;\
       kind=duplicate,rate=0.1;kind=delay,rate=0.15,delay=0.1",
      0.26 );
  ]

(* Each runner returns a digest of its output so clean and faulted runs
   can be compared across heterogeneous result types. *)
let protocols ~n ~seed =
  let rng = Prng.create (31 * seed) in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2 in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.2 in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  [
    ( "Algorithm 1 (p=0, eps=.5)",
      fun ctx ->
        Hashtbl.hash
          (Matprod_core.Lp_protocol.run ctx
             (Matprod_core.Lp_protocol.default_params ~eps:0.5 ())
             ~a:ai ~b:bi) );
    ( "Algorithm 2 (eps=.5)",
      fun ctx ->
        Hashtbl.hash
          (Matprod_core.Linf_binary.run ctx
             (Matprod_core.Linf_binary.default_params ~eps:0.5)
             ~a ~b) );
    ( "Alg 5 (product shares)",
      fun ctx ->
        let s = Matprod_core.Matprod_protocol.run ctx ~a:ai ~b:bi in
        Hashtbl.hash
          Matprod_core.Common.
            (Entry_map.entries s.Matprod_core.Matprod_protocol.alice,
             Entry_map.entries s.Matprod_core.Matprod_protocol.bob) );
  ]

let reliable = Reliable.config ~max_attempts:16 ()

let c1 ~quick =
  Report.section
    ~id:"C1  unreliable wire: what reliability costs and what it buys"
    ~claim:
      "over a faulty wire every run ends in a typed verdict — a success \
       byte-identical to the fault-free run or a typed failure — and \
       retransmission overhead is the only price; a zero-rate wire is free";
  let n = if quick then 24 else 48 in
  let seeds = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  let cols =
    [
      ("profile", 13);
      ("protocol", 26);
      ("ok", 5);
      ("bits clean", 10);
      ("bits faulty", 11);
      ("retries", 7);
      ("wan+loss", 9);
    ]
  in
  Report.table_header cols;
  let trichotomy_violations = ref 0 in
  let clean_overhead = ref 0 in
  let faulted_inflation_ok = ref true in
  let total_retries = ref 0 in
  List.iter
    (fun (pname, spec, wan_loss) ->
      List.iter
        (fun (proto, _) ->
          let oks = ref 0 and runs = ref 0 in
          let bits_clean = ref [] and bits_faulty = ref [] in
          let retries = ref 0 in
          let wan_time = ref 0.0 in
          List.iter
            (fun seed ->
              (* rebuild the gallery per seed so inputs vary *)
              let f = List.assoc proto (protocols ~n ~seed) in
              incr runs;
              let clean = Ctx.run ~seed f in
              bits_clean := clean.Ctx.bits :: !bits_clean;
              wan_time :=
                !wan_time
                +. Netmodel.transfer_time
                     (if wan_loss = 0.0 then Netmodel.wan
                      else Netmodel.with_loss Netmodel.wan ~loss:wan_loss)
                     clean.Ctx.transcript;
              let faulted =
                try
                  Outcome.guard (fun () ->
                      Ctx.run ~seed (fun ctx ->
                          Ctx.install_wire ctx
                            ~fault:(Fault.of_string ~seed:(seed + 7000) spec)
                            ~reliable ();
                          let digest = f ctx in
                          (digest, Ctx.wire_stats ctx)))
                with _ ->
                  incr trichotomy_violations;
                  Error (Outcome.Protocol_failure "escaped exception")
              in
              match faulted with
              | Ok run ->
                  incr oks;
                  let digest, wire = run.Ctx.output in
                  if digest <> clean.Ctx.output then
                    incr trichotomy_violations;
                  bits_faulty := run.Ctx.bits :: !bits_faulty;
                  retries := !retries + wire.Matprod_comm.Channel.retries;
                  if pname = "clean" then
                    clean_overhead :=
                      !clean_overhead + (run.Ctx.bits - clean.Ctx.bits)
                  else if run.Ctx.bits < clean.Ctx.bits then
                    faulted_inflation_ok := false
              | Error _ -> ())
            seeds;
          total_retries := !total_retries + !retries;
          let mean xs =
            match xs with
            | [] -> 0
            | _ ->
                List.fold_left ( + ) 0 xs / List.length xs
          in
          Report.row cols
            [
              pname;
              proto;
              Printf.sprintf "%d/%d" !oks !runs;
              Report.fbits (mean !bits_clean);
              (if !bits_faulty = [] then "-" else Report.fbits (mean !bits_faulty));
              string_of_int !retries;
              Printf.sprintf "%.2fs" (!wan_time /. float_of_int !runs);
            ];
          Report.bench_row
            [
              ("profile", Json.String pname);
              ("protocol", Json.String proto);
              ("n", Json.Int n);
              ("ok", Json.Int !oks);
              ("runs", Json.Int !runs);
              ("bits_clean", Json.Int (mean !bits_clean));
              ("bits_faulty", Json.Int (mean !bits_faulty));
              ("retries", Json.Int !retries);
              ("wan_loss", Json.Float wan_loss);
            ])
        (protocols ~n ~seed:1))
    profiles;
  Report.note
    "every Ok is checked against the fault-free digest; failures are typed \
     Link/Decode/Protocol errors, never escaped exceptions";
  Report.record_verdict (!trichotomy_violations = 0)
    "trichotomy: no escaped exception, no silent wrong answer (%d violations)"
    !trichotomy_violations;
  Report.record_verdict (!clean_overhead = 0)
    "zero-rate wire adds zero bits (overhead %d)" !clean_overhead;
  Report.record_verdict !faulted_inflation_ok
    "surviving faulted runs never undercount bits vs clean";
  Report.record_verdict (!total_retries > 0)
    "fault profiles actually exercise retransmission (%d retries)"
    !total_retries

(* C2: crash recovery. A party is killed after k delivered messages for
   every position k in the transcript; the crashed run's journal is then
   resumed. The table compares the cost of finishing via resume (only the
   suffix is fresh) against rerunning from scratch (the full transcript
   again), which is what a supervisor without a journal would pay. *)
let c2 ~quick =
  Report.section
    ~id:"C2  crash recovery: resume from journal vs rerun from scratch"
    ~claim:
      "for every crash position k >= 1, resuming from the write-ahead \
       journal costs strictly fewer fresh bits than a rerun, the saving is \
       exactly the journaled prefix, and the resumed output equals the \
       fault-free run";
  let n = if quick then 24 else 48 in
  let seed = 1 in
  let cols =
    [
      ("protocol", 26);
      ("crash at", 8);
      ("victim", 6);
      ("bits full", 10);
      ("replayed", 9);
      ("fresh", 9);
      ("saved", 6);
    ]
  in
  Report.table_header cols;
  let outputs_equal = ref true in
  let resume_cheaper = ref true in
  let accounted = ref true in
  let positions = ref 0 in
  List.iter
    (fun (proto, f) ->
      let base = Ctx.run ~seed f in
      let msgs = Transcript.messages base.Ctx.transcript in
      for k = 1 to List.length msgs - 1 do
        incr positions;
        let victim = (List.nth msgs k).Transcript.sender in
        let path = Filename.temp_file "matprod_c2_" ".journal" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            (match
               Outcome.guard (fun () ->
                   Ctx.run_journaled ~seed ~journal:path ~protocol:proto
                     (fun ctx ->
                       Ctx.install_wire ctx
                         ~fault:
                           (Fault.of_string
                              (Printf.sprintf "kind=crash,party=%s,after=%d"
                                 (Transcript.party_name victim) k))
                         ~reliable ();
                       f ctx))
             with
            | Error (Outcome.Crashed _) -> ()
            | _ -> outputs_equal := false (* the crash must fire, typed *));
            match Journal.load path with
            | Error _ -> outputs_equal := false
            | Ok j ->
                let r = Ctx.resume ~seed ~journal:j f in
                if r.Ctx.output <> base.Ctx.output then outputs_equal := false;
                if r.Ctx.bits >= base.Ctx.bits then resume_cheaper := false;
                if r.Ctx.bits + r.Ctx.replayed_bits <> base.Ctx.bits then
                  accounted := false;
                let saved = base.Ctx.bits - r.Ctx.bits in
                Report.row cols
                  [
                    proto;
                    string_of_int k;
                    Transcript.party_name victim;
                    Report.fbits base.Ctx.bits;
                    Report.fbits r.Ctx.replayed_bits;
                    Report.fbits r.Ctx.bits;
                    Printf.sprintf "%d%%" (100 * saved / max 1 base.Ctx.bits);
                  ];
                Report.bench_row
                  [
                    ("protocol", Json.String proto);
                    ("n", Json.Int n);
                    ("crash_after", Json.Int k);
                    ("victim", Json.String (Transcript.party_name victim));
                    ("bits_full", Json.Int base.Ctx.bits);
                    ("bits_replayed", Json.Int r.Ctx.replayed_bits);
                    ("bits_resume_fresh", Json.Int r.Ctx.bits);
                    ("bits_saved", Json.Int saved);
                    ("replayed_messages", Json.Int r.Ctx.replayed_messages);
                  ])
      done)
    (protocols ~n ~seed);
  Report.note
    "a rerun-from-scratch supervisor pays 'bits full' again after every \
     crash; resume pays only 'fresh', saving the journaled prefix";
  Report.record_verdict (!positions > 0)
    "the sweep covered %d crash positions" !positions;
  Report.record_verdict !outputs_equal
    "every crash is typed and every resumed run equals the fault-free output";
  Report.record_verdict !resume_cheaper
    "resume is strictly cheaper than rerun at every crash position k >= 1";
  Report.record_verdict !accounted
    "fresh + replayed bits account exactly for the fault-free transcript"
