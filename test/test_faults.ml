(* Chaos harness: sweep fault configurations over every core protocol and
   assert the trichotomy — each run ends in an in-guarantee success or a
   typed error, never an escaped exception and never a silently wrong
   answer. "In guarantee" is checked the strong way: the reliability layer
   delivers intact bytes or nothing, so whenever a chaotic run completes,
   its output must EQUAL the fault-free run at the same seed.

   The seed matrix is fixed (override with MATPROD_CHAOS_SEEDS=1,2,...). *)

module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Fault = Matprod_comm.Fault
module Reliable = Matprod_comm.Reliable
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Metrics = Matprod_obs.Metrics
module Json = Matprod_obs.Json
module Trace = Matprod_obs.Trace

module Outcome = Matprod_core.Outcome
module Boosting = Matprod_core.Boosting
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Session = Matprod_core.Session
module Supervisor = Matprod_core.Supervisor
module Journal = Matprod_comm.Journal
module Verify = Matprod_verify.Verify

let check = Alcotest.check

let seeds =
  match Sys.getenv_opt "MATPROD_CHAOS_SEEDS" with
  | None -> [ 1; 2; 3 ]
  | Some s ->
      let parsed = List.filter_map int_of_string_opt (String.split_on_char ',' s) in
      if parsed = [] then [ 1; 2; 3 ] else parsed

(* ------------------------------------------------------------------ *)
(* Fault configurations: >= 4 kinds plus a mixed storm. *)

let storm =
  "kind=drop,rate=0.08;kind=corrupt,rate=0.1;kind=truncate,rate=0.08;\
   kind=duplicate,rate=0.1;kind=delay,rate=0.15,delay=0.1"

let fault_kinds =
  [
    ("drop", "kind=drop,rate=0.15");
    ("corrupt", "kind=corrupt,rate=0.25");
    ("truncate", "kind=truncate,rate=0.25");
    ("duplicate", "kind=duplicate,rate=0.3");
    ("delay", "kind=delay,rate=0.3,delay=0.12");
    ("mixed", storm);
  ]

(* ------------------------------------------------------------------ *)
(* The protocol gallery is the estimator registry: every driver the
   registry knows about runs its default query here, so adding a driver
   to Registry automatically enrolls it in the chaos sweep. Outputs are
   already projected into Estimator.answer, so a chaotic Ok can be
   checked equal to the fault-free baseline structurally. *)

let protocols ~seed =
  let rng = Prng.create (7 * seed) in
  let n = 20 in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  List.map
    (fun (e : Estimator.t) -> (e.name, fun ctx -> e.run ctx ~a ~b))
    Registry.all

let protocol_exn name ~seed =
  match List.assoc_opt name (protocols ~seed) with
  | Some f -> f
  | None -> Alcotest.failf "estimator %S missing from the registry" name

let reliable = Reliable.config ~max_attempts:12 ~base_timeout:0.05 ()

let run_baseline ~seed f = (Ctx.run ~seed f).Ctx.output

let run_chaotic ~seed ~fault_seed ~spec f =
  Outcome.guard (fun () ->
      Ctx.run ~seed (fun ctx ->
          Ctx.install_wire ctx
            ~fault:(Fault.of_string ~seed:fault_seed spec)
            ~reliable ();
          f ctx))

(* The trichotomy, for one fault kind over every protocol and seed. Any
   exception other than the typed families turns into an alcotest error
   (it escapes), which is exactly what the sweep forbids. *)
let test_trichotomy (kind, spec) () =
  let failures = ref 0 and successes = ref 0 in
  List.iter
    (fun seed ->
      List.iteri
        (fun i (name, f) ->
          let run_seed = (1000 * seed) + i in
          let baseline = run_baseline ~seed:run_seed f in
          match
            run_chaotic ~seed:run_seed ~fault_seed:(run_seed + 500_000) ~spec f
          with
          | Ok run ->
              incr successes;
              if run.Ctx.output <> baseline then
                Alcotest.failf
                  "%s/%s seed %d: chaotic run completed with an output that \
                   differs from the fault-free run (silent corruption)"
                  kind name seed
          | Error (Outcome.Link_failure _)
          | Error (Outcome.Decode_failure _)
          | Error (Outcome.Protocol_failure _)
          | Error (Outcome.Crashed _) ->
              incr failures
          | Error (Outcome.Precondition m) ->
              (* Valid inputs: a precondition error here is a harness bug. *)
              Alcotest.failf "%s/%s seed %d: unexpected precondition: %s" kind
                name seed m
          | Error (Outcome.Byzantine_detected _) ->
              (* No byzantine rule is armed in this sweep. *)
              Alcotest.failf "%s/%s seed %d: byzantine verdict without a rule"
                kind name seed)
        (protocols ~seed))
    seeds;
  (* The sweep must actually exercise the success path (the reliability
     layer recovering), not just fail everything. *)
  check Alcotest.bool
    (Printf.sprintf "%s: some chaotic runs complete (%d ok, %d failed)" kind
       !successes !failures)
    true (!successes > 0)

(* With every rate at zero the wire must be invisible: same output, same
   bits, same rounds — byte for byte. *)
let test_zero_rates_transparent () =
  List.iter
    (fun seed ->
      List.iteri
        (fun i (name, f) ->
          let run_seed = (2000 * seed) + i in
          let base = Ctx.run ~seed:run_seed f in
          let wired =
            Ctx.run ~seed:run_seed (fun ctx ->
                Ctx.install_wire ctx
                  ~fault:(Fault.of_string ~seed:99 "kind=drop,rate=0")
                  ~reliable ();
                f ctx)
          in
          if wired.Ctx.output <> base.Ctx.output then
            Alcotest.failf "%s: zero-rate wire changed the output" name;
          check Alcotest.int
            (Printf.sprintf "%s: bits unchanged" name)
            base.Ctx.bits wired.Ctx.bits;
          check Alcotest.int
            (Printf.sprintf "%s: rounds unchanged" name)
            base.Ctx.rounds wired.Ctx.rounds)
        (protocols ~seed))
    [ List.hd seeds ]

(* A wire that drops everything must end in Link_failure, with every
   attempt charged to the transcript. *)
let test_total_loss_is_typed () =
  let tr = ref None in
  (match
     Outcome.guard (fun () ->
         Ctx.run ~seed:4 (fun ctx ->
             Ctx.install_wire ctx
               ~fault:(Fault.of_string ~seed:5 "kind=drop,rate=1")
               ~reliable:(Reliable.config ~max_attempts:7 ())
               ();
             tr := Some (Ctx.transcript ctx);
             Ctx.a2b ctx ~label:"doomed" Matprod_comm.Codec.uint 42))
   with
  | Error (Outcome.Link_failure { label = "doomed"; attempts = 7 }) -> ()
  | Ok _ -> Alcotest.fail "total loss cannot succeed"
  | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e));
  match !tr with
  | None -> Alcotest.fail "transcript not captured"
  | Some tr ->
      check Alcotest.int "all 7 attempts charged" 7 (Transcript.message_count tr)

(* Retransmissions show up in the transcript (ack labels, extra bytes) and
   in the Matprod_obs counters. *)
let test_accounting_and_counters () =
  Metrics.set_enabled true;
  Metrics.reset ();
  let name, f = List.hd (protocols ~seed:1) in
  ignore name;
  let base = Ctx.run ~seed:11 f in
  let result =
    run_chaotic ~seed:11 ~fault_seed:42 ~spec:"kind=drop,rate=0.3" f
  in
  let retries = Metrics.value (Metrics.counter "reliable_retries") in
  let dropped = Metrics.value (Metrics.counter "faults_dropped") in
  let frames = Metrics.value (Metrics.counter "reliable_frames") in
  Metrics.set_enabled false;
  check Alcotest.bool "faults injected" true (dropped > 0);
  check Alcotest.bool "retries counted" true (retries > 0);
  check Alcotest.bool "frames counted" true (frames > 0);
  match result with
  | Ok run ->
      check Alcotest.bool "retransmission bits priced into transcript" true
        (run.Ctx.bits > base.Ctx.bits);
      let labels = Transcript.by_label run.Ctx.transcript in
      check Alcotest.bool "ack labels present" true
        (List.exists
           (fun (l, _) ->
             String.length l > 4
             && String.sub l (String.length l - 4) 4 = "/ack")
           labels)
  | Error _ -> () (* drop storm killed the run: typed, also fine *)

(* Per-direction / per-label rules: a wire hostile only to Bob leaves
   Alice's messages untouched. *)
let test_rule_scoping () =
  let fault = Fault.of_string ~seed:3 "kind=drop,rate=1,from=bob" in
  match
    Outcome.guard (fun () ->
        Ctx.run ~seed:8 (fun ctx ->
            Ctx.install_wire ctx ~fault
              ~reliable:(Reliable.config ~max_attempts:3 ())
              ();
            let x = Ctx.a2b ctx ~label:"alice speaks" Matprod_comm.Codec.uint 9 in
            ignore (Ctx.b2a ctx ~label:"bob speaks" Matprod_comm.Codec.uint x);
            x))
  with
  | Error (Outcome.Link_failure { label; _ }) ->
      (* Alice's message survives (only her data frame crosses; its ack is
         sent by Bob and is dropped) — so the failing label is either her
         ack-starved message or Bob's own. Both name the hostile side. *)
      check Alcotest.bool "failure names a bob-sent frame" true
        (label = "alice speaks" || label = "bob speaks")
  | Ok _ -> Alcotest.fail "bob-side total loss must fail"
  | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Byte clauses: every clause matching a frame applies, per kind the
   first one wins. A single clause, or clauses of distinct kinds in one
   scope, draw exactly as the one merged rule they describe. *)

let byte_kinds = [ "drop"; "corrupt"; "truncate"; "duplicate"; "delay" ]

(* 10 000 frames sent by Alice under label "x" through a seed-7 model. *)
let probe spec =
  let fault = Fault.of_string ~seed:7 spec in
  for i = 0 to 9_999 do
    ignore
      (Fault.apply fault ~from:Transcript.Alice ~label:"x"
         (string_of_int i ^ "payload"))
  done;
  Fault.stats fault

let injected (s : Fault.stats) = function
  | "drop" -> s.Fault.dropped
  | "corrupt" -> s.Fault.corrupted
  | "truncate" -> s.Fault.truncated
  | "duplicate" -> s.Fault.duplicated
  | "delay" -> s.Fault.delayed
  | kind -> Alcotest.failf "not a byte kind: %s" kind

let test_every_matching_clause_fires () =
  let both spec k1 k2 =
    let s = probe spec in
    if injected s k1 = 0 || injected s k2 = 0 then
      Alcotest.failf "%s: %s %d, %s %d" spec k1 (injected s k1) k2
        (injected s k2)
  in
  both "kind=drop,rate=0.1;kind=corrupt,rate=0.2" "drop" "corrupt";
  both "kind=corrupt,rate=0.2;kind=drop,rate=0.1" "corrupt" "drop";
  List.iter
    (fun (scope1, scope2) ->
      List.iter
        (fun k1 ->
          List.iter
            (fun k2 ->
              if k1 <> k2 then
                both
                  (Printf.sprintf "kind=%s,rate=0.2%s;kind=%s,rate=0.2%s" k1
                     scope1 k2 scope2)
                  k1 k2)
            byte_kinds)
        byte_kinds)
    [ ("", ""); (",from=a", ",label=x"); (",label=x", ",from=alice") ]

let test_byte_draws_pinned () =
  let counts s = List.map (injected s) byte_kinds in
  let pinned spec expected =
    check (Alcotest.list Alcotest.int) spec expected (counts (probe spec))
  in
  pinned "kind=corrupt,rate=0.2" [ 0; 1969; 0; 0; 0 ];
  pinned "kind=drop,rate=0.1" [ 977; 0; 0; 0; 0 ];
  pinned storm [ 806; 1045; 833; 849; 1495 ];
  (* Per kind the first matching clause wins; one that does not match the
     frame shadows nothing. *)
  pinned "kind=drop,rate=0.1;kind=drop,rate=1" [ 977; 0; 0; 0; 0 ];
  pinned "kind=drop,rate=1,from=b;kind=drop,rate=0.1" [ 977; 0; 0; 0; 0 ]

(* ------------------------------------------------------------------ *)
(* Crash recovery: seeded crash faults, journal resume, and the
   degradation supervisor. The strong property mirrors the trichotomy
   one: a run resumed from a crash's journal must EQUAL the fault-free
   run at the same seed, and fresh + replayed bits must account for
   exactly the fault-free transcript. *)

let with_tmp_journal name k =
  let path = Filename.temp_file ("matprod_" ^ name ^ "_") ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> k path)

(* Crash the sender of message k after k delivered messages, at every
   message index k of every protocol, then resume from the journal: the
   journal holds exactly the delivered prefix, the prefix replays for
   free, and the completed run matches the fault-free baseline
   byte-for-byte. *)
let test_crash_then_resume () =
  List.iteri
    (fun i (name, f) ->
      let seed = 3000 + i in
      let base = Ctx.run ~seed f in
      let msgs = Transcript.messages base.Ctx.transcript in
      List.iteri
        (fun k (m : Transcript.message) ->
          let at = Printf.sprintf "%s, crash at message %d" name k in
          with_tmp_journal name @@ fun path ->
          let crashed =
            Outcome.guard (fun () ->
                Ctx.run_journaled ~seed ~journal:path ~protocol:name (fun ctx ->
                    Ctx.install_wire ctx
                      ~fault:
                        (Fault.of_string
                           (Printf.sprintf "kind=crash,after=%d,party=%s" k
                              (Transcript.party_name m.sender)))
                      ~reliable ();
                    f ctx))
          in
          (match crashed with
          | Error (Outcome.Crashed { party; after_messages }) ->
              check Alcotest.bool (at ^ ": crash names the victim") true
                (party = m.sender);
              check Alcotest.int (at ^ ": crash position") k after_messages
          | Ok _ -> Alcotest.failf "%s: crash rule did not fire" at
          | Error e ->
              Alcotest.failf "%s: wrong error: %s" at
                (Outcome.error_to_string e));
          let journal =
            match Journal.load path with
            | Ok j -> j
            | Error e -> Alcotest.failf "%s: journal unreadable: %s" at e
          in
          check Alcotest.bool (at ^ ": journal clean") true
            journal.Journal.clean;
          let prefix = List.filteri (fun idx _ -> idx < k) msgs in
          check
            Alcotest.(list (triple string string int))
            (at ^ ": journal holds the delivered prefix")
            (List.map
               (fun (p : Transcript.message) ->
                 (Transcript.party_name p.sender, p.label, p.bytes))
               prefix)
            (List.map
               (fun (e : Journal.entry) ->
                 ( Transcript.party_name e.sender,
                   e.label,
                   Journal.entry_bytes e ))
               journal.Journal.entries);
          let resumed = Ctx.resume ~seed ~journal f in
          if resumed.Ctx.output <> base.Ctx.output then
            Alcotest.failf "%s: resumed output differs from fault-free run" at;
          let prefix_bytes =
            List.fold_left
              (fun acc (p : Transcript.message) -> acc + p.bytes)
              0 prefix
          in
          check Alcotest.int
            (at ^ ": replayed bits = the prefix's bits")
            (8 * prefix_bytes) resumed.Ctx.replayed_bits;
          check Alcotest.int
            (at ^ ": fresh + replayed = fault-free bits")
            base.Ctx.bits
            (resumed.Ctx.bits + resumed.Ctx.replayed_bits))
        msgs)
    (protocols ~seed:1)

(* Journaling a crash-free run is invisible: same output, same cost; and
   the resulting journal replays the whole run for zero fresh bits. *)
let test_journal_transparency () =
  List.iteri
    (fun i (name, f) ->
      let seed = 4000 + i in
      let base = Ctx.run ~seed f in
      with_tmp_journal name @@ fun path ->
      let journaled = Ctx.run_journaled ~seed ~journal:path ~protocol:name f in
      if journaled.Ctx.output <> base.Ctx.output then
        Alcotest.failf "%s: journaling changed the output" name;
      check Alcotest.int
        (Printf.sprintf "%s: bits unchanged" name)
        base.Ctx.bits journaled.Ctx.bits;
      check Alcotest.int
        (Printf.sprintf "%s: rounds unchanged" name)
        base.Ctx.rounds journaled.Ctx.rounds;
      let journal =
        match Journal.load path with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: journal unreadable: %s" name e
      in
      check Alcotest.int
        (Printf.sprintf "%s: one entry per message" name)
        (Transcript.message_count base.Ctx.transcript)
        (List.length journal.Journal.entries);
      let replayed = Ctx.resume ~seed ~journal f in
      if replayed.Ctx.output <> base.Ctx.output then
        Alcotest.failf "%s: full replay changed the output" name;
      check Alcotest.int
        (Printf.sprintf "%s: full replay costs 0 fresh bits" name)
        0 replayed.Ctx.bits;
      check Alcotest.int
        (Printf.sprintf "%s: full replay serves every message" name)
        (Transcript.message_count base.Ctx.transcript)
        replayed.Ctx.replayed_messages)
    (protocols ~seed:1)

(* Tentpole invariant: tracing is free on the wire. With tracing and
   metrics both enabled, every registry protocol produces the same
   output, bits, and rounds as its untraced run — the propagated span
   context is accounted only in telemetry_bytes. *)
let test_tracing_transparency () =
  List.iteri
    (fun i (name, f) ->
      let seed = 6000 + i in
      let base = Ctx.run ~seed f in
      Metrics.reset ();
      Metrics.set_enabled true;
      Trace.reset ();
      Trace.enable ();
      let traced, telemetry =
        Fun.protect
          ~finally:(fun () ->
            Trace.disable ();
            Trace.reset ();
            Metrics.set_enabled false;
            Metrics.reset ())
          (fun () ->
            let r = Ctx.run ~seed f in
            (r, Metrics.total "telemetry_bytes"))
      in
      if traced.Ctx.output <> base.Ctx.output then
        Alcotest.failf "%s: tracing changed the output" name;
      check Alcotest.int
        (Printf.sprintf "%s: bits identical under tracing" name)
        base.Ctx.bits traced.Ctx.bits;
      check Alcotest.int
        (Printf.sprintf "%s: rounds identical under tracing" name)
        base.Ctx.rounds traced.Ctx.rounds;
      check Alcotest.bool
        (Printf.sprintf "%s: context frames accounted out-of-band" name)
        true (telemetry > 0))
    (protocols ~seed:1)

(* A journal written under tracing carries the writer's trace id as a 'T'
   record, has byte-identical logical entries, and still replays for zero
   fresh bits — with tracing off. *)
let test_journal_origin_trace () =
  let name = "linf_binary" in
  let f = protocol_exn name ~seed:1 in
  let seed = 33 in
  with_tmp_journal "untraced" @@ fun plain_path ->
  with_tmp_journal "traced" @@ fun traced_path ->
  let base = Ctx.run_journaled ~seed ~journal:plain_path ~protocol:name f in
  Trace.enable ();
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Trace.disable ();
        Trace.reset ())
      (fun () -> Ctx.run_journaled ~seed ~journal:traced_path ~protocol:name f)
  in
  if traced.Ctx.output <> base.Ctx.output then
    Alcotest.fail "tracing changed the journaled run";
  let load path =
    match Journal.load path with
    | Ok j -> j
    | Error e -> Alcotest.failf "journal unreadable: %s" e
  in
  let plain = load plain_path and traced_j = load traced_path in
  check Alcotest.bool "untraced journal has no origin" true
    (plain.Journal.origin_trace = None);
  check Alcotest.bool "traced journal stamps the run's trace id" true
    (traced_j.Journal.origin_trace = Some (Trace.trace_id_of_seed seed));
  check Alcotest.bool "logical entries byte-identical" true
    (plain.Journal.entries = traced_j.Journal.entries);
  let resumed = Ctx.resume ~seed ~journal:traced_j f in
  if resumed.Ctx.output <> base.Ctx.output then
    Alcotest.fail "replay of traced journal changed the output";
  check Alcotest.int "replay of traced journal costs 0 fresh bits" 0
    resumed.Ctx.bits

(* A transient crash (first attempt only, the way a real process death
   behaves): the supervisor answers from the Resume rung, pays only the
   suffix fresh, and the observability counters record the decision. *)
let test_supervisor_resume_rung () =
  let name = "linf_binary" (* 3 messages: room to crash after the first *) in
  let f = protocol_exn name ~seed:1 in
  let seed = 51 in
  let base = run_baseline ~seed f in
  Metrics.set_enabled true;
  Metrics.reset ();
  let result =
    with_tmp_journal "supervisor" @@ fun path ->
    Supervisor.run ~journal:path
      ~wire:(fun ~attempt ctx ->
        if attempt = 1 then
          Ctx.install_wire ctx
            ~fault:(Fault.of_string "kind=crash,party=b,after=1")
            ~reliable ())
      ~seed ~protocol:name f
  in
  (* Each attempt records into its own scope: sum across the tree. *)
  let attempts_c = Metrics.total "supervisor_attempts" in
  let resumes_c = Metrics.total "supervisor_resumes" in
  let saved_c = Metrics.total "supervisor_resume_bits_saved" in
  let scopes =
    match Json.member "scopes" (Metrics.snapshot ()) with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> []
  in
  Metrics.set_enabled false;
  match result with
  | Ok r ->
      if r.Supervisor.output <> base then
        Alcotest.fail "supervisor output differs from fault-free run";
      check Alcotest.bool "answered from the resume rung" true
        (r.Supervisor.rung = Supervisor.Resume);
      check Alcotest.bool "not degraded" false r.Supervisor.degraded;
      check Alcotest.int "two attempts" 2 (List.length r.Supervisor.attempts);
      (match r.Supervisor.attempts with
      | [ a1; a2 ] ->
          check Alcotest.bool "first attempt crashed" true
            (match a1.Supervisor.failure with
            | Some (Outcome.Crashed _) -> true
            | _ -> false);
          check Alcotest.bool "second attempt clean" true
            (a2.Supervisor.failure = None);
          check Alcotest.bool "resume replayed bits" true
            (a2.Supervisor.replayed_bits > 0)
      | _ -> Alcotest.fail "unexpected attempt shape");
      check Alcotest.bool "bits saved recorded" true
        (r.Supervisor.resume_bits_saved > 0);
      check Alcotest.int "attempts counter" 2 attempts_c;
      check Alcotest.int "resumes counter" 1 resumes_c;
      check Alcotest.int "saved counter matches report"
        r.Supervisor.resume_bits_saved saved_c;
      (* Regression (metric conflation): the two attempts must have
         recorded into distinct scopes, one counter tick each, not into
         one root-level blob. *)
      check
        (Alcotest.list Alcotest.string)
        "one scope per attempt"
        [ "attempt1-initial"; "attempt2-resume" ]
        scopes;
      check Alcotest.int "root scope has no attempts counter" 0
        (Metrics.value (Metrics.counter "supervisor_attempts"))
  | Error e -> Alcotest.failf "supervisor gave up: %s" (Outcome.error_to_string e)

(* A persistent crash at message 0 leaves nothing to resume and kills the
   reseed too; the ladder must degrade to the registered fallback. *)
let test_supervisor_fallback () =
  let lp = protocol_exn "lp p=1" ~seed:1 in
  let l1 = protocol_exn "l1_exact" ~seed:1 in
  let result =
    with_tmp_journal "fallback" @@ fun path ->
    Supervisor.run ~journal:path
      ~wire:(fun ~attempt ctx ->
        if attempt <= 2 then
          Ctx.install_wire ctx
            ~fault:(Fault.of_string "kind=crash,party=a;kind=crash,party=b")
            ~reliable ())
      ~fallbacks:[ ("l1_exact", l1) ]
      ~seed:52 ~protocol:"lp p=1" lp
  in
  match result with
  | Ok r ->
      check Alcotest.bool "degraded" true r.Supervisor.degraded;
      check Alcotest.bool "fallback rung" true
        (r.Supervisor.rung = Supervisor.Fallback "l1_exact");
      (* initial crash, no journal entries -> reseed crash -> fallback *)
      check Alcotest.int "three attempts" 3 (List.length r.Supervisor.attempts);
      if r.Supervisor.output <> run_baseline ~seed:52 l1 then
        Alcotest.fail "fallback output differs from its fault-free run"
  | Error e -> Alcotest.failf "ladder gave up: %s" (Outcome.error_to_string e)

(* A bug (an exception outside the typed families) escapes the ladder, but
   the attempt's transport is still closed: one close per connection the
   factory opened. *)
let test_supervisor_closes_transport () =
  let opened = ref 0 and closed = ref 0 in
  let factory () =
    incr opened;
    { (Matprod_comm.Transport.sim ()) with close = (fun () -> incr closed) }
  in
  (match
     Supervisor.run ~transport:factory ~seed:54 ~protocol:"bug" (fun ctx ->
         ignore (Ctx.a2b ctx ~label:"x" Matprod_comm.Codec.uint 1);
         raise Not_found)
   with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "a bug must escape the supervisor");
  check Alcotest.int "one attempt opened" 1 !opened;
  check Alcotest.int "closes match opens" !opened !closed

(* Session under Outcome.capture gives the same trichotomy: a crash mid
   establish is typed, and the session then comes up clean on a quiet
   wire with the same answers. *)
let test_session_safe () =
  let rng = Prng.create 99 in
  let a = Imat.of_bmat (Workload.uniform_bool rng ~rows:12 ~cols:12 ~density:0.3) in
  let b = Imat.of_bmat (Workload.uniform_bool rng ~rows:12 ~cols:12 ~density:0.3) in
  let crashed =
    Ctx.run ~seed:61 (fun ctx ->
        Ctx.install_wire ctx
          ~fault:(Fault.of_string "kind=crash,party=b,after=0")
          ~reliable ();
        Outcome.capture ctx (fun () -> Session.establish ctx ~beta:0.5 ~a ~b))
  in
  (match crashed.Ctx.output with
  | Error (Outcome.Crashed { party = Transcript.Bob; _ }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e)
  | Ok _ -> Alcotest.fail "establish over a dead wire cannot succeed");
  let clean =
    Ctx.run ~seed:61 (fun ctx ->
        match
          Outcome.capture ctx (fun () -> Session.establish ctx ~beta:0.5 ~a ~b)
        with
        | Error e ->
            Alcotest.failf "clean establish failed: %s"
              (Outcome.error_to_string e)
        | Ok (s, d) -> (
            check Alcotest.bool "establish billed" true (d.Outcome.bits > 0);
            let direct = Session.norm_pow s in
            match Outcome.capture ctx (fun () -> Session.refine ctx s) with
            | Ok (refined, d2) ->
                check Alcotest.bool "refine billed on top" true
                  (d2.Outcome.bits > d.Outcome.bits);
                (direct, refined)
            | Error e ->
                Alcotest.failf "clean refine failed: %s"
                  (Outcome.error_to_string e)))
  in
  let direct, refined = clean.Ctx.output in
  let baseline =
    Ctx.run ~seed:61 (fun ctx ->
        let s = Session.establish ctx ~beta:0.5 ~a ~b in
        (Session.norm_pow s, Session.refine ctx s))
  in
  check (Alcotest.float 0.0) "norm matches unsafe" (fst baseline.Ctx.output) direct;
  check (Alcotest.float 0.0) "refine matches unsafe" (snd baseline.Ctx.output)
    refined

(* ------------------------------------------------------------------ *)
(* Fail-safe boosting: quorum behaviour under a lossy wire and the edge
   cases of the result-typed refactor. *)

let flaky_estimator ~fault_seed ~spec ctx =
  Ctx.install_wire ctx ~fault:(Fault.of_string ~seed:fault_seed spec)
    ~reliable:(Reliable.config ~max_attempts:2 ())
    ();
  ignore (Ctx.a2b ctx ~label:"est" Matprod_comm.Codec.uint 21);
  21.0

let test_boosting_degrades () =
  let next_fault = ref 0 in
  match
    Boosting.run_median_safe ~seed:5 ~repetitions:9 (fun ctx ->
        incr next_fault;
        flaky_estimator ~fault_seed:!next_fault ~spec:"kind=drop,rate=0.55" ctx)
  with
  | Ok r ->
      check (Alcotest.float 0.0) "median over survivors" 21.0 r.Boosting.estimate;
      (match r.Boosting.verdict with
      | Boosting.Degraded { survived; total } ->
          check Alcotest.int "total" 9 total;
          check Alcotest.int "survivors + casualties" 9
            (survived + List.length r.Boosting.failures);
          check Alcotest.bool "some casualties" true
            (List.length r.Boosting.failures > 0)
      | Boosting.Full_quorum ->
          (* With a 0.55 drop rate and 2 attempts some repetition dies with
             overwhelming probability; but if not, full quorum is honest. *)
          check Alcotest.int "no casualties" 0 (List.length r.Boosting.failures));
      check Alcotest.bool "failed repetitions still billed" true
        (r.Boosting.total_bits > 0)
  | Error e ->
      (* All nine dying is possible in principle; it must come back typed. *)
      check Alcotest.bool "typed quorum loss" true
        (match e with Outcome.Protocol_failure _ -> true | _ -> false)

let test_boosting_all_failed () =
  match
    Boosting.run_median_safe ~seed:1 ~repetitions:5 (fun _ -> failwith "boom")
  with
  | Error (Outcome.Protocol_failure m) ->
      check Alcotest.bool "mentions quorum" true
        (String.length m > 0 && String.sub m 0 8 = "Boosting")
  | _ -> Alcotest.fail "all-runs-failed must be a typed error"

let test_boosting_edge_repetitions () =
  (match Boosting.run_median_safe ~seed:1 ~repetitions:0 (fun _ -> 1.0) with
  | Error (Outcome.Precondition _) -> ()
  | _ -> Alcotest.fail "repetitions < 1 must be a typed precondition error");
  (match Boosting.run_median_safe ~seed:1 ~repetitions:3 ~min_survivors:4 (fun _ -> 1.0) with
  | Error (Outcome.Precondition _) -> ()
  | _ -> Alcotest.fail "min_survivors > repetitions must be rejected");
  (* Even repetition count: median averages the two middle outputs. *)
  let calls = ref 0 in
  match
    Boosting.run_median_safe ~seed:1 ~repetitions:4 (fun _ ->
        incr calls;
        float_of_int !calls)
  with
  | Ok r ->
      check (Alcotest.float 1e-9) "even-count median" 2.5 r.Boosting.estimate;
      check Alcotest.bool "full quorum" true (r.Boosting.verdict = Boosting.Full_quorum)
  | Error e -> Alcotest.failf "unexpected: %s" (Outcome.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Reliable-layer unit checks. *)

(* ------------------------------------------------------------------ *)
(* One-shot rules must stay fired across supervisor escalation: when the
   SAME model instance is re-installed on a later attempt (the Reseed
   rung reuses whatever the wire hook hands it), a crash/straggle/
   byzantine rule that already fired must not kill/slow/corrupt the
   retry — otherwise the ladder dies identically forever. *)

let test_one_shot_crash_no_rearm () =
  let name = "linf_binary" in
  let f = protocol_exn name ~seed:1 in
  let shared = Fault.of_string "kind=crash,party=b,after=1" in
  let installs = ref 0 in
  let result =
    Supervisor.run
      ~wire:(fun ~attempt:_ ctx ->
        incr installs;
        Ctx.install_wire ctx ~fault:shared ~reliable ())
      ~seed:61 ~protocol:name f
  in
  (match result with
  | Ok r ->
      check Alcotest.int "two attempts" 2 (List.length r.Supervisor.attempts);
      check Alcotest.bool "recovered on the reseed rung" true
        (match r.Supervisor.rung with Supervisor.Reseed _ -> true | _ -> false)
  | Error e ->
      Alcotest.failf "fired crash rule re-armed: %s" (Outcome.error_to_string e));
  check Alcotest.int "model installed on both attempts" 2 !installs;
  check Alcotest.int "crash fired exactly once" 1 (Fault.stats shared).Fault.crashed

let test_one_shot_straggle_no_rearm () =
  let f = protocol_exn "l1_exact" ~seed:1 in
  let shared = Fault.of_string "kind=straggle,after=0,burst=2,delay=0.5" in
  let run () =
    (Ctx.run ~seed:62 (fun ctx ->
         Ctx.install_wire ctx ~fault:shared ~reliable ();
         f ctx))
      .Ctx.output
  in
  let first = run () in
  let fired = (Fault.stats shared).Fault.straggled in
  check Alcotest.bool "burst fired" true (fired > 0);
  let again = run () in
  check Alcotest.int "spent burst stays spent" fired
    (Fault.stats shared).Fault.straggled;
  if first <> again then Alcotest.fail "straggle spike changed the output"

let test_one_shot_byzantine_no_rearm () =
  let shared = Fault.of_string ~seed:7 "kind=byzantine,mode=scale" in
  (match Fault.check_byzantine shared with
  | Some (Fault.Scale, _) -> ()
  | Some _ -> Alcotest.fail "wrong byzantine mode"
  | None -> Alcotest.fail "armed byzantine rule did not fire");
  (match Fault.check_byzantine shared with
  | None -> ()
  | Some _ -> Alcotest.fail "fired byzantine rule re-armed");
  check Alcotest.int "byzantined counted once" 1
    (Fault.stats shared).Fault.byzantined;
  check Alcotest.bool "byzantine model stays wire-transparent" false
    (Fault.is_active shared);
  check Alcotest.int "counted in total_injected" 1
    (Fault.total_injected (Fault.stats shared))

(* ------------------------------------------------------------------ *)
(* Every [Outcome.error] constructor renders: non-empty, pairwise
   distinct, payload included, and [pp_error] agrees with
   [error_to_string]. The [constructor_name] match is deliberately
   exhaustive — adding a constructor breaks this test at compile time
   until the gallery below grows with it. *)

let all_errors =
  [
    Outcome.Link_failure { label = "sketch/row3"; attempts = 12 };
    Outcome.Decode_failure "bad varint";
    Outcome.Precondition "rows mismatch";
    Outcome.Protocol_failure "sketch width";
    Outcome.Crashed { party = Transcript.Bob; after_messages = 4 };
    Outcome.Byzantine_detected { rank = 2; replica = 1; check = "freivalds" };
  ]

let constructor_name : Outcome.error -> string = function
  | Outcome.Link_failure _ -> "Link_failure"
  | Outcome.Decode_failure _ -> "Decode_failure"
  | Outcome.Precondition _ -> "Precondition"
  | Outcome.Protocol_failure _ -> "Protocol_failure"
  | Outcome.Crashed _ -> "Crashed"
  | Outcome.Byzantine_detected _ -> "Byzantine_detected"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_error_rendering_exhaustive () =
  let names = List.map constructor_name all_errors in
  check
    (Alcotest.list Alcotest.string)
    "one error of each constructor"
    (List.sort_uniq compare names)
    (List.sort compare names);
  let payloads =
    [
      [ "sketch/row3"; "12" ];
      [ "bad varint" ];
      [ "rows mismatch" ];
      [ "sketch width" ];
      [ "4" ];
      [ "2"; "1"; "freivalds" ];
    ]
  in
  List.iter2
    (fun e expected ->
      let s = Outcome.error_to_string e in
      if s = "" then Alcotest.failf "%s renders empty" (constructor_name e);
      check Alcotest.string
        (constructor_name e ^ ": pp agrees with to_string")
        s
        (Format.asprintf "%a" Outcome.pp_error e);
      List.iter
        (fun sub ->
          if not (contains s sub) then
            Alcotest.failf "%s: %S missing from %S" (constructor_name e) sub s)
        expected)
    all_errors payloads;
  let strings = List.sort_uniq compare (List.map Outcome.error_to_string all_errors) in
  check Alcotest.int "renderings pairwise distinct" (List.length all_errors)
    (List.length strings)

(* ------------------------------------------------------------------ *)
(* Byzantine corruption gallery, two-party half: for every estimator and
   every corruption mode, the composed defense must leave no silent
   escape — either the validators flag the corrupted answer, or a
   replica vote against the honest answer flags it, or the corruption
   stays within the family's own consistency bound (an acceptable
   answer, by the estimator's published guarantee). Honest answers must
   always pass (no false positives: a validator that cried wolf here
   would quarantine healthy workers in the fleet), and [Garbage] — the
   out-of-range junk mode — must be caught by the validators alone,
   without spending replicas. *)

let test_byzantine_corruption_gallery () =
  let check_detected = ref 0 and vote_detected = ref 0 and within = ref 0 in
  List.iter
    (fun seed ->
      let rng = Prng.create (7 * seed) in
      let n = 20 in
      let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
      let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
      List.iter
        (fun (e : Estimator.t) ->
          let name = e.name in
          let summary = Verify.summarize ~a ~b in
          let honest = (Ctx.run ~seed (fun ctx -> e.run ctx ~a ~b)).Ctx.output in
          (match Verify.check ~name e.contract summary ~seed honest with
          | Verify.Pass -> ()
          | Verify.Fail { invariant; detail } ->
              Alcotest.failf "%s seed %d: honest answer failed %s (%s)" name
                seed invariant detail);
          List.iteri
            (fun i mode ->
              let g = Prng.create (1000 + (17 * i) + seed) in
              let corrupted = Verify.corrupt mode g honest in
              if corrupted <> honest then
                match Verify.check ~name e.contract summary ~seed corrupted with
                | Verify.Fail _ -> incr check_detected
                | Verify.Pass -> (
                    if mode = Fault.Garbage then
                      Alcotest.failf
                        "%s seed %d: garbage passed the validators" name seed;
                    match
                      Verify.vote e.contract summary [ (0, honest); (1, corrupted) ]
                    with
                    | Some v when v.Verify.outvoted = [] ->
                        (* within the family's own bound: not silent, just
                           an acceptable answer *)
                        incr within
                    | _ ->
                        (* a 2-replica vote against an honest twin flags it *)
                        incr vote_detected))
            Fault.all_byzantine_modes)
        Registry.all)
    seeds;
  check Alcotest.bool "validators caught something" true (!check_detected > 0);
  if !check_detected + !vote_detected + !within = 0 then
    Alcotest.fail "corruption gallery exercised nothing";
  (* Every verdict is a pure function of (summary, seed, answer): at the
     default and the `make chaos` seed sets the tallies are pinned, so a
     refactor of the checks or the voting families cannot move one. *)
  let pinned =
    [ ([ 1; 2; 3 ], (187, 2, 8)); ([ 1; 2; 3; 4; 5 ], (311, 6, 13)) ]
  in
  match List.assoc_opt seeds pinned with
  | None -> ()
  | Some pinned ->
      check
        Alcotest.(triple int int int)
        "(check_detected, vote_detected, within)" pinned
        (!check_detected, !vote_detected, !within)

let test_crc32_vectors () =
  (* Standard check value for "123456789" under IEEE CRC32. *)
  check Alcotest.int "crc32 check vector" 0xCBF43926
    (Reliable.crc32 "123456789");
  check Alcotest.int "crc32 empty" 0 (Reliable.crc32 "")

let test_frame_roundtrip_and_rejection () =
  let payload = "hello, wire" in
  let f = Reliable.data_frame ~seq:42 payload in
  (match Reliable.parse f with
  | Ok (Reliable.Data, 42, p) -> check Alcotest.string "payload" payload p
  | _ -> Alcotest.fail "frame roundtrip");
  (match Reliable.parse (Reliable.ack_frame ~seq:7) with
  | Ok (Reliable.Ack, 7, "") -> ()
  | _ -> Alcotest.fail "ack roundtrip");
  (* Every 1-bit corruption and every truncation must be rejected. *)
  for bit = 0 to (8 * String.length f) - 1 do
    let b = Bytes.of_string f in
    let i = bit / 8 in
    Bytes.set b i
      (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    match Reliable.parse (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "bit flip %d accepted" bit
  done;
  for len = 0 to String.length f - 1 do
    match Reliable.parse (String.sub f 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncation to %d accepted" len
  done

let () =
  Alcotest.run "faults"
    [
      ( "trichotomy",
        List.map
          (fun (kind, spec) ->
            Alcotest.test_case kind `Quick (test_trichotomy (kind, spec)))
          fault_kinds );
      ( "transparency",
        [
          Alcotest.test_case "zero rates byte-identical" `Quick
            test_zero_rates_transparent;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "total loss typed" `Quick test_total_loss_is_typed;
          Alcotest.test_case "accounting + counters" `Quick
            test_accounting_and_counters;
          Alcotest.test_case "rule scoping" `Quick test_rule_scoping;
          Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "frame rejection" `Quick
            test_frame_roundtrip_and_rejection;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash then resume" `Quick test_crash_then_resume;
          Alcotest.test_case "tracing transparency" `Quick
            test_tracing_transparency;
          Alcotest.test_case "journal origin trace" `Quick
            test_journal_origin_trace;
          Alcotest.test_case "journal transparency" `Quick
            test_journal_transparency;
          Alcotest.test_case "supervisor resume rung" `Quick
            test_supervisor_resume_rung;
          Alcotest.test_case "supervisor fallback" `Quick
            test_supervisor_fallback;
          Alcotest.test_case "supervisor closes transport" `Quick
            test_supervisor_closes_transport;
          Alcotest.test_case "session safe entry points" `Quick
            test_session_safe;
        ] );
      ( "boosting",
        [
          Alcotest.test_case "degrades to quorum" `Quick test_boosting_degrades;
          Alcotest.test_case "all runs failed" `Quick test_boosting_all_failed;
          Alcotest.test_case "edge repetitions" `Quick
            test_boosting_edge_repetitions;
        ] );
      ( "one-shot rules",
        [
          Alcotest.test_case "crash does not re-arm" `Quick
            test_one_shot_crash_no_rearm;
          Alcotest.test_case "straggle burst stays spent" `Quick
            test_one_shot_straggle_no_rearm;
          Alcotest.test_case "byzantine fires once" `Quick
            test_one_shot_byzantine_no_rearm;
        ] );
      ( "errors",
        [
          Alcotest.test_case "every constructor renders" `Quick
            test_error_rendering_exhaustive;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "corruption gallery" `Slow
            test_byzantine_corruption_gallery;
        ] );
      ( "byte clauses",
        [
          Alcotest.test_case "every matching clause fires" `Quick
            test_every_matching_clause_fires;
          Alcotest.test_case "draws pinned" `Quick test_byte_draws_pinned;
        ] );
    ]
