(* The transport seam and the serve daemon.

   The contract under test is byte-identity: the logical transcript a
   protocol produces must not depend on the wire carrying it. Every
   estimator in the registry runs twice at the same seed — once over the
   in-process simulator, once over a real TCP loopback connection — and
   the two runs must agree message-for-message. On top of that seam sit
   the daemon tests: concurrent sessions, pipelined batches, and the
   crash-recovery path where a re-requested batch replays its journal
   with zero fresh bits. *)

module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Transport = Matprod_comm.Transport
module Transcript = Matprod_comm.Transcript
module Channel = Matprod_comm.Channel
module Codec = Matprod_comm.Codec
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Journal = Matprod_comm.Journal
module Trace = Matprod_obs.Trace
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Engine = Matprod_engine.Engine
module Proto = Matprod_serve.Proto
module Server = Matprod_serve.Server
module Client = Matprod_serve.Client
module Loadgen = Matprod_serve.Loadgen

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Frame grammar *)

let test_frame_roundtrip () =
  Trace.disable ();
  List.iter
    (fun payload ->
      let f = Transport.frame payload in
      let got, ctx = Transport.unframe f in
      check Alcotest.string "payload" payload got;
      check Alcotest.bool "no ctx without tracing" true (ctx = None))
    [ ""; "x"; String.make 100_000 '\xAB'; "\x00\x01\xFF" ]

let test_frame_carries_trace_context () =
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  Trace.with_trace ~seed:42 @@ fun () ->
  let f = Transport.frame "hello" in
  let got, ctx = Transport.unframe f in
  check Alcotest.string "payload" "hello" got;
  match ctx with
  | None -> Alcotest.fail "expected a context frame"
  | Some c ->
      check Alcotest.int "ctx length" Trace.context_frame_length
        (String.length c);
      check Alcotest.bool "ctx parses" true (Trace.parse_context_frame c <> None)

let test_frame_rejects_corruption () =
  Trace.disable ();
  let f = Transport.frame "some payload bytes" in
  (* Flip one payload byte: the CRC must catch it. *)
  let b = Bytes.of_string f in
  Bytes.set b 7 (Char.chr (Char.code (Bytes.get b 7) lxor 0x40));
  (match Transport.unframe (Bytes.to_string b) with
  | exception Transport.Frame_error _ -> ()
  | _ -> Alcotest.fail "corrupted frame accepted");
  (* Unknown flag bits are a protocol error, not silently ignored. *)
  let b = Bytes.of_string f in
  Bytes.set b 4 (Char.chr (Char.code (Bytes.get b 4) lor 0x80));
  (match Transport.unframe (Bytes.to_string b) with
  | exception Transport.Frame_error _ -> ()
  | _ -> Alcotest.fail "unknown flag accepted");
  (* A truncated buffer must not decode. *)
  match Transport.unframe (String.sub f 0 (String.length f - 2)) with
  | exception Transport.Frame_error _ -> ()
  | _ -> Alcotest.fail "truncated frame accepted"

let test_frame_io_over_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  Transport.write_frame a "first";
  Transport.write_frame a "second";
  check Alcotest.string "first" "first" (Transport.read_frame b);
  check Alcotest.string "second" "second" (Transport.read_frame b);
  (* Clean close at a frame boundary reads as End_of_file... *)
  Unix.close a;
  (match Transport.read_frame b with
  | exception End_of_file -> ()
  | _ -> Alcotest.fail "expected End_of_file");
  (* ...but a close mid-frame is a Frame_error. *)
  let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let f = Transport.frame "interrupted" in
  let partial = String.sub f 0 (String.length f - 3) in
  ignore (Unix.write_substring c partial 0 (String.length partial) : int);
  Unix.close c;
  match Transport.read_frame d with
  | exception Transport.Frame_error _ -> Unix.close d
  | exception End_of_file -> Alcotest.fail "mid-frame close read as clean EOF"
  | _ -> Alcotest.fail "short frame decoded"

let test_tcp_loopback_deliver () =
  let t = Transport.tcp_loopback () in
  Fun.protect ~finally:t.Transport.close @@ fun () ->
  check Alcotest.string "small" "ping"
    (t.Transport.deliver ~from:Transcript.Alice ~label:"l" "ping");
  (* Big enough to overflow any socket buffer: the deliver pump must
     interleave writes and reads since both ends live in this process. *)
  let big = String.init 3_000_000 (fun i -> Char.chr (i land 0xff)) in
  check Alcotest.bool "3MB payload" true
    (t.Transport.deliver ~from:Transcript.Bob ~label:"big" big = big);
  check Alcotest.string "alternating" "after"
    (t.Transport.deliver ~from:Transcript.Alice ~label:"l" "after")

(* ------------------------------------------------------------------ *)
(* Sim/Tcp byte-identity over the whole registry *)

let gallery ~seed =
  let rng = Prng.create (7 * seed) in
  let n = 20 in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  List.map
    (fun (e : Estimator.t) -> (e.name, fun ctx -> e.run ctx ~a ~b))
    Registry.all

let msg_to_string (m : Transcript.message) =
  Printf.sprintf "%s r%d %s %dB"
    (Transcript.party_name m.Transcript.sender)
    m.Transcript.round m.Transcript.label m.Transcript.bytes

let test_registry_tcp_byte_identity () =
  let seed = 11 in
  List.iter
    (fun (name, driver) ->
      let sim = Ctx.run ~seed driver in
      let tcp =
        Ctx.run ~transport:(Transport.tcp_loopback ()) ~seed driver
      in
      check Alcotest.bool
        (name ^ ": answers equal over sim and tcp")
        true
        (sim.Ctx.output = tcp.Ctx.output);
      check Alcotest.int
        (name ^ ": bits equal")
        sim.Ctx.bits tcp.Ctx.bits;
      check
        Alcotest.(list string)
        (name ^ ": transcript messages identical")
        (List.map msg_to_string (Transcript.messages sim.Ctx.transcript))
        (List.map msg_to_string (Transcript.messages tcp.Ctx.transcript)))
    (gallery ~seed)

let test_tcp_journal_resume_no_wire () =
  (* A journaled run over TCP, then a full replay: the resume path must
     never touch the transport — all bits replayed, zero fresh. *)
  let path = Filename.temp_file "matprod_serve_" ".mpj" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let seed = 5 in
  let name, driver = List.hd (gallery ~seed) in
  let first =
    Ctx.run_journaled
      ~transport:(Transport.tcp_loopback ())
      ~seed ~journal:path ~protocol:"test" driver
  in
  let j =
    match Journal.load path with Ok j -> j | Error e -> Alcotest.fail e
  in
  let again = Ctx.resume ~seed ~path ~journal:j driver in
  check Alcotest.bool (name ^ ": replayed answer equal") true
    (first.Ctx.output = again.Ctx.output);
  check Alcotest.int "all bits replayed" first.Ctx.bits again.Ctx.replayed_bits;
  check Alcotest.int "no fresh bits" 0 again.Ctx.bits

(* ------------------------------------------------------------------ *)
(* Channel configuration surface *)

let test_channel_create_config () =
  (* All wire config through [Channel.configure]. *)
  let path = Filename.temp_file "matprod_serve_" ".mpj" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let w = Journal.create ~path ~protocol:"t" ~seed:3 in
  let ch = Channel.create () in
  Channel.configure ch ~fault:(Fault.of_string ~seed:1 "kind=drop,rate=0")
    ~journal:w ();
  let v = [| 1; 4; 9 |] in
  let got =
    Channel.send ch ~from:Transcript.Alice ~label:"xs" Codec.sorted_int_array v
  in
  check Alcotest.bool "payload intact" true (v = got);
  check Alcotest.bool "fault armed" true (Channel.installed_fault ch <> None);
  Channel.close ch;
  let j =
    match Journal.load path with Ok j -> j | Error e -> Alcotest.fail e
  in
  check Alcotest.int "journaled" 1 (List.length j.Journal.entries);
  (* Replay: the same message comes back off the log, and the replay
     path needs no live wire. *)
  let ch2 = Channel.create () in
  Channel.configure ch2 ~replay:j.Journal.entries ();
  let got2 =
    Channel.send ch2 ~from:Transcript.Alice ~label:"xs" Codec.sorted_int_array v
  in
  check Alcotest.bool "replayed payload intact" true (v = got2);
  check Alcotest.int "one replayed message" 1
    (Channel.replay_stats ch2).Channel.replayed_messages;
  check Alcotest.bool "replay after a message is rejected" true
    (match Channel.configure ch ~replay:[] () with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Chaos grammar *)

let test_chaos_roundtrip () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error e -> Alcotest.fail (spec ^ ": " ^ e)
      | Ok t -> (
          let printed = Fault.to_string t in
          match Fault.parse printed with
          | Error e -> Alcotest.fail (printed ^ ": " ^ e)
          | Ok t' ->
              check Alcotest.bool
                (spec ^ " -> " ^ printed ^ " round-trips")
                true (t = t')))
    [
      "kind=drop,rate=0.1";
      "kind=crash,party=b,after=3;kind=drop,rate=0.1";
      "kind=crash,worker=2,after=1,permanent;kind=crash,worker=2,party=b";
      "kind=corrupt,rate=0.25,from=a;kind=truncate,rate=0.5,label=lp";
      "kind=delay,rate=0.3,delay=0.12";
      "kind=straggle,worker=1,delay=5,after=1,burst=2";
      "kind=byzantine,worker=0,mode=sign-flip";
      "kind=duplicate,rate=1";
      "";
    ]

let test_chaos_canonical_idempotent () =
  let spec =
    match
      Fault.parse "kind=crash,party=bob,after=2;kind=drop,rate=0.5,from=alice"
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let s1 = Fault.to_string spec in
  let s2 =
    match Fault.parse s1 with
    | Ok t -> Fault.to_string t
    | Error e -> Alcotest.fail e
  in
  check Alcotest.string "canonical form is a fixpoint" s1 s2

let test_chaos_rejects () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec))
    [
      "kind=meteor,rate=0.1";
      "rate=0.1,kind=drop";
      "kind=drop";
      "kind=drop,rate=1.5";
      "kind=drop,rate=0.1,permanent";
      "kind=crash";
      "kind=crash,party=b,after=2,label=lp";
      "kind=straggle,worker=1";
      "kind=byzantine,mode=evil";
      "kind=drop,rate=0.1,worker=1";
    ]

let test_chaos_lowering_scope () =
  let spec =
    match
      Fault.parse
        "kind=crash,worker=2,after=1;kind=straggle,delay=3;kind=byzantine,worker=0"
    with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
  let model scope_worker = Option.get (Fault.create ?scope_worker ~seed:1 spec) in
  (* The crash clause fires on the second message. *)
  let crashes fault =
    match
      for _ = 1 to 2 do
        Fault.check_crash fault ~from:Transcript.Alice ~label:"x"
      done
    with
    | () -> false
    | exception Fault.Party_crash _ -> true
  in
  check Alcotest.bool "crash only on its rank" false (crashes (model (Some 1)));
  check Alcotest.bool "crash applies on rank 2" true (crashes (model (Some 2)));
  check Alcotest.bool "unkeyed straggle applies everywhere" true
    (Fault.is_active (model (Some 5)));
  check Alcotest.bool "worker-keyed clause invisible outside fleets" true
    (Fault.check_byzantine (model None) = None);
  check Alcotest.bool "byzantine armed on its rank" true
    (Fault.check_byzantine (model (Some 0)) <> None);
  check Alcotest.bool "two-party sees a fault model" true
    (Fault.create ~seed:1 spec <> None);
  check Alcotest.bool "rank 1 still straggles" true
    (Fault.create ~scope_worker:1 ~seed:1 spec <> None)

(* Every clause scoped to a link lowers into one model: a byte rule next
   to a crash keeps the crash armed, and the per-attempt policy holds. *)
let test_chaos_link_fault () =
  let parse s = match Fault.parse s with Ok t -> t | Error e -> Alcotest.fail e in
  let crashes fault =
    match Fault.check_crash fault ~from:Transcript.Alice ~label:"x" with
    | () -> false
    | exception Fault.Party_crash _ -> true
  in
  let link spec ~rank ~replica ~attempt =
    Fault.for_link ~seed:5 spec ~rank ~replica ~attempt
  in
  let mixed =
    parse
      "kind=crash,worker=1,permanent;kind=drop,rate=0.01;kind=byzantine,worker=1"
  in
  (match link mixed ~rank:1 ~replica:0 ~attempt:1 with
  | None -> Alcotest.fail "rank 1 has faults"
  | Some f ->
      check Alcotest.bool "drop rule active" true (Fault.is_active f);
      check Alcotest.bool "byzantine armed on replica 0" true
        (Fault.check_byzantine f <> None);
      check Alcotest.bool "crash survives the drop rule" true (crashes f));
  (match link mixed ~rank:1 ~replica:1 ~attempt:2 with
  | None -> Alcotest.fail "rank 1 retry has faults"
  | Some f ->
      check Alcotest.bool "permanent crash rearms" true (crashes f);
      check Alcotest.bool "byzantine only on attempt 1 of replica 0" true
        (Fault.check_byzantine f = None));
  (match link mixed ~rank:0 ~replica:0 ~attempt:1 with
  | None -> Alcotest.fail "byte rules apply to every rank"
  | Some f -> check Alcotest.bool "no crash off its rank" false (crashes f));
  let one_shot = parse "kind=crash,worker=1;kind=straggle,worker=2,delay=3" in
  check Alcotest.bool "one-shot crash fires on attempt 1" true
    (Option.fold ~none:false ~some:crashes
       (link one_shot ~rank:1 ~replica:0 ~attempt:1));
  check Alcotest.bool "one-shot crash not rearmed" true
    (link one_shot ~rank:1 ~replica:0 ~attempt:2 = None);
  check Alcotest.bool "straggle on attempt 1" true
    (Option.fold ~none:false ~some:Fault.is_active
       (link one_shot ~rank:2 ~replica:0 ~attempt:1));
  check Alcotest.bool "straggle not on attempt 2" true
    (link one_shot ~rank:2 ~replica:0 ~attempt:2 = None)

(* ------------------------------------------------------------------ *)
(* Pool shutdown *)

let test_pool_shutdown_respawn () =
  Pool.set_size 3;
  Fun.protect ~finally:(fun () ->
      Pool.shutdown ();
      Pool.set_size 1)
  @@ fun () ->
  let spin () =
    let out = Pool.init 64 (fun i -> (i * i) + 1) in
    check Alcotest.bool "parallel result" true
      (out = Array.init 64 (fun i -> (i * i) + 1))
  in
  spin ();
  Pool.shutdown ();
  (* Not terminal: the next parallel call respawns workers. *)
  spin ();
  Pool.shutdown ();
  Pool.shutdown ()

(* ------------------------------------------------------------------ *)
(* The serve daemon *)

let with_server ?journal_dir () f =
  let cfg =
    { Server.default_config with Server.journal_dir; grace_s = 1.0 }
  in
  let t = Server.create cfg in
  let th = Server.serve_background t in
  Fun.protect ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
  @@ fun () -> f t

(* [Proto.Answers] carries an inline record; project the fields we assert
   on into a plain one so helpers can return it. *)
type got = { g_answers : Engine.answer list; g_bits : int; g_replayed : int }

let batch_answers = function
  | Ok (Proto.Answers { answers; bits; replayed_bits; _ }) ->
      { g_answers = answers; g_bits = bits; g_replayed = replayed_bits }
  | Ok _ -> Alcotest.fail "expected Answers"
  | Error e -> Alcotest.fail e

let test_serve_batch_matches_direct_engine () =
  with_server () @@ fun srv ->
  let session_seed = 99 in
  let cl = Client.connect ~port:(Server.port srv) ~session_seed () in
  Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
  (match Client.gen cl ~name:"g" ~n:24 ~density:0.2 ~seed:4 ~zipf:false with
  | Ok (rows, cols) ->
      check Alcotest.int "rows" 24 rows;
      check Alcotest.int "cols" 24 cols
  | Error e -> Alcotest.fail e);
  let specs = [ "norm:eps=0.25"; "top:k=3"; "rows:beta=0.5" ] in
  let got = batch_answers (Client.batch cl ~id:7 ~pair:"g" ~specs) in
  (* The daemon promises nothing beyond what a local engine run at the
     derived batch seed produces: reproduce it and compare exactly. *)
  let rng = Prng.create 4 in
  let a = Workload.uniform_bool (Prng.split rng) ~rows:24 ~cols:24 ~density:0.2 in
  let b = Workload.uniform_bool (Prng.split rng) ~rows:24 ~cols:24 ~density:0.2 in
  let queries =
    List.map
      (fun s ->
        match Engine.query_of_string s with
        | Ok q -> q
        | Error e -> Alcotest.fail e)
      specs
  in
  let direct =
    Ctx.run
      ~seed:(Proto.batch_seed ~session_seed ~batch_id:7)
      (fun ctx ->
        Engine.run (Engine.create ()) ctx ~a:(Imat.of_bmat a)
          ~b:(Imat.of_bmat b) queries)
  in
  check Alcotest.bool "answers byte-identical to direct engine run" true
    (Array.of_list got.g_answers = direct.Ctx.output.Engine.answers);
  check Alcotest.int "bits match" direct.Ctx.bits got.g_bits

(* A Gen pair is keyed by its name, but the name must not hide a
   different workload: reusing it with the same parameters shares the
   pair, with any other parameters (or over an uploaded pair) it is an
   error, and the stored pair is left as it was. *)
let test_serve_gen_name_collision () =
  with_server () @@ fun srv ->
  let cl = Client.connect ~port:(Server.port srv) ~session_seed:5 () in
  Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
  let gen ?(name = "g") ?(n = 24) ?(density = 0.2) ?(seed = 4) ?(zipf = false)
      () =
    Client.gen cl ~name ~n ~density ~seed ~zipf
  in
  let specs = [ "norm:eps=0.25"; "top:k=3" ] in
  let answers id =
    (batch_answers (Client.batch cl ~id ~pair:"g" ~specs)).g_answers
  in
  check Alcotest.bool "first gen" true (gen () = Ok (24, 24));
  let before = answers 1 in
  check Alcotest.bool "same parameters share the pair" true
    (gen () = Ok (24, 24));
  List.iter
    (fun (what, r) ->
      match r with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "gen with another %s was accepted" what)
    [
      ("n", gen ~n:32 ());
      ("density", gen ~density:0.3 ());
      ("seed", gen ~seed:5 ());
      ("zipf", gen ~zipf:true ());
    ];
  check Alcotest.bool "stored pair unchanged" true (answers 1 = before);
  let id3 = Imat.of_dense [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |] in
  Client.send cl (Proto.Register { name = "up"; a = id3; b = id3 });
  (match Client.response cl with
  | Proto.Ready _ -> ()
  | _ -> Alcotest.fail "register refused");
  match gen ~name:"up" ~n:3 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "gen over an uploaded pair was accepted"

let test_serve_concurrent_sessions () =
  with_server () @@ fun srv ->
  let port = Server.port srv in
  let results = Array.make 4 None in
  let worker i () =
    let cl = Client.connect ~port ~session_seed:(1000 + i) () in
    Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
    (match Client.gen cl ~name:"w" ~n:20 ~density:0.25 ~seed:8 ~zipf:false with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    (* Pipeline three batches before reading any reply. *)
    for id = 0 to 2 do
      Client.send cl (Proto.Batch { id; pair = "w"; specs = [ "norm:eps=0.5" ] })
    done;
    let anss =
      List.init 3 (fun _ ->
          match Client.response cl with
          | Proto.Answers { answers; _ } -> List.length answers
          | _ -> Alcotest.fail "expected Answers")
    in
    results.(i) <- Some anss
  in
  let threads = Array.init 4 (fun i -> Thread.create (worker i) ()) in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.fail (Printf.sprintf "session %d died" i)
      | Some anss ->
          check Alcotest.int
            (Printf.sprintf "session %d answered all batches" i)
            3 (List.length anss);
          List.iter
            (fun k -> check Alcotest.int "one answer per query" 1 k)
            anss)
    results;
  let s = Server.stats srv in
  check Alcotest.int "sessions" 4 s.Server.sessions;
  check Alcotest.int "batches" 12 s.Server.batches;
  check Alcotest.int "queries" 12 s.Server.queries;
  check Alcotest.int "no errors" 0 s.Server.batch_errors

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let test_serve_kill_and_resume_from_journal () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "matprod_serve_j_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let session_seed = 321 in
  let specs = [ "norm:eps=0.25"; "l0:count=2" ] in
  let first =
    with_server ~journal_dir:dir () @@ fun srv ->
    let cl = Client.connect ~port:(Server.port srv) ~session_seed () in
    Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
    (match Client.gen cl ~name:"g" ~n:20 ~density:0.25 ~seed:6 ~zipf:false with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    batch_answers (Client.batch cl ~id:3 ~pair:"g" ~specs)
  in
  check Alcotest.int "first run paid fresh bits" 0 first.g_replayed;
  check Alcotest.bool "first run sent something" true (first.g_bits > 0);
  (* The daemon is now dead (killed mid-session as far as the client
     knows: no Quit was sent). A new daemon over the same journal
     directory must answer the re-requested batch entirely off the log. *)
  let second =
    with_server ~journal_dir:dir () @@ fun srv ->
    let cl = Client.connect ~port:(Server.port srv) ~session_seed () in
    Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
    (match Client.gen cl ~name:"g" ~n:20 ~density:0.25 ~seed:6 ~zipf:false with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    batch_answers (Client.batch cl ~id:3 ~pair:"g" ~specs)
  in
  check Alcotest.bool "same answers after resume" true
    (first.g_answers = second.g_answers);
  check Alcotest.int "all bits replayed" first.g_bits second.g_replayed;
  check Alcotest.int "zero fresh bits on resume" 0 second.g_bits

(* A stale journal never ends the session: re-asking an id with other
   specs finds that id's journal, whose replay diverges at the first
   message. The batch gets a typed error and the connection lives on. *)
let test_serve_replay_mismatch_keeps_session () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "matprod_serve_m_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  with_server ~journal_dir:dir () @@ fun srv ->
  let cl = Client.connect ~port:(Server.port srv) ~session_seed:77 () in
  Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
  (match Client.gen cl ~name:"g" ~n:20 ~density:0.25 ~seed:6 ~zipf:false with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  ignore (batch_answers (Client.batch cl ~id:3 ~pair:"g" ~specs:[ "norm:eps=0.25" ]));
  (match Client.batch cl ~id:3 ~pair:"g" ~specs:[ "l0:count=2" ] with
  | Error e ->
      check Alcotest.bool "error names the batch" true
        (String.starts_with ~prefix:"batch 3: " e)
  | Ok _ -> Alcotest.fail "a diverging journal was answered");
  let next = batch_answers (Client.batch cl ~id:4 ~pair:"g" ~specs:[ "l0:count=2" ]) in
  check Alcotest.int "next batch answered" 1 (List.length next.g_answers);
  check Alcotest.int "batch errors counted" 1 (Server.stats srv).Server.batch_errors

(* One frame cannot hold the compute lock for long: a batch asking for
   more than [Engine.max_batch_samples] samples is refused before any
   work (unbounded, 20 000 samples ran for minutes), and the session
   answers its next batch. *)
let test_serve_oversized_batch_refused () =
  with_server () @@ fun srv ->
  let cl = Client.connect ~port:(Server.port srv) ~session_seed:78 () in
  Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
  (match Client.gen cl ~name:"g" ~n:32 ~density:0.25 ~seed:6 ~zipf:false with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let t0 = Unix.gettimeofday () in
  (match Client.batch cl ~id:1 ~pair:"g" ~specs:[ "l0:count=20000" ] with
  | Error e ->
      check Alcotest.bool "error names the batch" true
        (String.starts_with ~prefix:"batch 1: " e)
  | Ok _ -> Alcotest.fail "an oversized batch was answered");
  check Alcotest.bool "refused quickly" true (Unix.gettimeofday () -. t0 < 10.0);
  let next = batch_answers (Client.batch cl ~id:2 ~pair:"g" ~specs:[ "l0:count=2" ]) in
  check Alcotest.int "next batch answered" 1 (List.length next.g_answers)

(* A tiny accuracy would size a sketch past memory: the daemon refuses
   the batch as this batch's error, counts it, and keeps the session. *)
let test_serve_sketch_budget_refused () =
  with_server () @@ fun srv ->
  let cl = Client.connect ~port:(Server.port srv) ~session_seed:79 () in
  Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
  (match Client.gen cl ~name:"g" ~n:32 ~density:0.25 ~seed:6 ~zipf:false with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Client.batch cl ~id:1 ~pair:"g" ~specs:[ "top:beta=0.0001,k=2" ] with
  | Error e ->
      check Alcotest.bool "error names the batch" true
        (String.starts_with ~prefix:"batch 1: " e)
  | Ok _ -> Alcotest.fail "a batch past the sketch budget was answered");
  check Alcotest.int "batch errors counted" 1 (Server.stats srv).Server.batch_errors;
  let next = batch_answers (Client.batch cl ~id:2 ~pair:"g" ~specs:[ "top:k=2" ]) in
  check Alcotest.int "next batch answered" 1 (List.length next.g_answers)

(* A journal of another format version is not replayed: the daemon runs
   the batch fresh, paying every bit again. *)
let test_serve_old_journal_runs_fresh () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "matprod_serve_v_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let session_seed = 55 in
  let specs = [ "norm:eps=0.25"; "l0:count=2"; "hh:phi=0.05" ] in
  let ask () =
    with_server ~journal_dir:dir () @@ fun srv ->
    let cl = Client.connect ~port:(Server.port srv) ~session_seed () in
    Fun.protect ~finally:(fun () -> Client.quit cl) @@ fun () ->
    (match Client.gen cl ~name:"g" ~n:20 ~density:0.25 ~seed:6 ~zipf:false with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e);
    batch_answers (Client.batch cl ~id:1 ~pair:"g" ~specs)
  in
  let first = ask () in
  let path =
    Filename.concat dir (Proto.journal_name ~session_seed ~batch_id:1)
  in
  let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
  Bytes.set bytes 4 '\001';
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  let again = ask () in
  check Alcotest.bool "same answers" true (first.g_answers = again.g_answers);
  check Alcotest.int "nothing replayed" 0 again.g_replayed;
  check Alcotest.int "every bit paid fresh" first.g_bits again.g_bits

let test_loadgen_deterministic_digest () =
  with_server () @@ fun srv ->
  let run () =
    Loadgen.run ~port:(Server.port srv) ~connections:3 ~batches:2 ~queries:4
      ~n:20 ~density:0.25 ~seed:17 ~specs:[ "norm:eps=0.5" ] ()
  in
  let r1 = run () in
  check Alcotest.int "all answered" 24 r1.Loadgen.answered;
  check Alcotest.int "no errors" 0 r1.Loadgen.errors;
  check Alcotest.int "peak in-flight = C*B*Q" 24 r1.Loadgen.in_flight;
  let r2 = run () in
  check Alcotest.int "digest reproducible" r1.Loadgen.digest r2.Loadgen.digest;
  check Alcotest.int "bits reproducible" r1.Loadgen.bits r2.Loadgen.bits

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "trace context" `Quick
            test_frame_carries_trace_context;
          Alcotest.test_case "rejects corruption" `Quick
            test_frame_rejects_corruption;
          Alcotest.test_case "socket io" `Quick test_frame_io_over_socketpair;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "loopback deliver" `Quick test_tcp_loopback_deliver;
          Alcotest.test_case "registry byte-identity" `Slow
            test_registry_tcp_byte_identity;
          Alcotest.test_case "journal resume off-wire" `Quick
            test_tcp_journal_resume_no_wire;
        ] );
      ( "channel",
        [
          Alcotest.test_case "create config" `Quick test_channel_create_config;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "round-trip" `Quick test_chaos_roundtrip;
          Alcotest.test_case "canonical fixpoint" `Quick
            test_chaos_canonical_idempotent;
          Alcotest.test_case "rejects" `Quick test_chaos_rejects;
          Alcotest.test_case "lowering scope" `Quick test_chaos_lowering_scope;
          Alcotest.test_case "link fault" `Quick test_chaos_link_fault;
        ] );
      ( "pool",
        [
          Alcotest.test_case "shutdown respawn" `Quick
            test_pool_shutdown_respawn;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "batch matches direct engine" `Quick
            test_serve_batch_matches_direct_engine;
          Alcotest.test_case "gen name collision" `Quick
            test_serve_gen_name_collision;
          Alcotest.test_case "concurrent sessions" `Quick
            test_serve_concurrent_sessions;
          Alcotest.test_case "kill and resume" `Quick
            test_serve_kill_and_resume_from_journal;
          Alcotest.test_case "replay mismatch keeps the session" `Quick
            test_serve_replay_mismatch_keeps_session;
          Alcotest.test_case "oversized batch refused" `Quick
            test_serve_oversized_batch_refused;
          Alcotest.test_case "sketch budget refused" `Quick
            test_serve_sketch_budget_refused;
          Alcotest.test_case "old journal version runs fresh" `Quick
            test_serve_old_journal_runs_fresh;
          Alcotest.test_case "loadgen digest" `Quick
            test_loadgen_deterministic_digest;
        ] );
    ]
