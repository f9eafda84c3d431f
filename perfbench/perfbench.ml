(* Benchmark of the matprod serve daemon and the k-party fleet.

     perfbench --workload W --seed N --seconds S --trace 0|1

   serve-steady    open loop against a fresh `matprod serve` with journals
   serve-saturate  closed loop, 2 connections x 8 in flight, no journals
   fleet-verify    Fleet.run_batch in-process, 4 workers, verify on

   Every workload runs the same six distinct query specs against one
   96x96 boolean pair generated from --seed. Batch counts are a fixed
   function of --seconds, never a time budget, so transcript counts and
   the response digest repeat exactly at a given seed. With --trace 0 the
   last stdout line carries the end-to-end metrics; with --trace 1 half
   the batches run untraced and then the same batches run traced, which
   gives the per-layer split and the tracing overhead. The timings of
   serve-steady and fleet-verify are scaled by a memory probe of the
   host's speed. NOTES.md explains the workloads, the scaling, and which
   end-to-end metric each layer metric moves. *)

module Proto = Matprod_serve.Proto
module Transport = Matprod_comm.Transport
module Reliable = Matprod_comm.Reliable
module Codec = Matprod_comm.Codec
module Ctx = Matprod_comm.Ctx
module Engine = Matprod_engine.Engine
module Fleet = Matprod_topology.Fleet
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Json = Matprod_obs.Json
module Trace = Matprod_obs.Trace
module Metrics = Matprod_obs.Metrics

let now = Proc.now

(* ------------------------------------------------------------------ *)
(* Inputs *)

let n = 96
let density = 0.05

(* The batch a join-aware optimiser sends: join sizes for p=0 and p=1,
   the heaviest rows, per-row sizes, a sampled pair and heavy pairs. *)
let specs =
  [ "norm:eps=0.25"; "norm:p=1,eps=0.25"; "top:k=3"; "rows:beta=0.5";
    "l0:count=1"; "hh:phi=0.05" ]

let queries =
  List.map
    (fun s ->
      match Engine.query_of_string s with Ok q -> q | Error e -> failwith e)
    specs

let per_batch = List.length specs

let gen_pair seed =
  let root = Prng.create seed in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  ( Workload.uniform_bool rng_a ~rows:n ~cols:n ~density,
    Workload.uniform_bool rng_b ~rows:n ~cols:n ~density )

(* The daemon caches pairs by name only, so the name carries every
   parameter of the pair (NOTES.md, "Pitfalls"). *)
let pair_name seed = Printf.sprintf "uniform-n%d-d%g-seed%d" n density seed

let connections = 2
let depth = 8 (* batches in flight per connection, serve-saturate *)
let steady_rate = 4.0 (* batches/s, about a third of serve-saturate's rate *)
let replay_every = 8
let check_every = 10 (* fresh batch ids checked against in-process Engine.run *)
let setups = 9

(* Timings are scaled to the memory speed at which Proc.probe_ms takes
   this long, its time on this host in quiet stretches (NOTES.md, "Noise"). *)
let probe_ref_ms = 8.5

(* serve-saturate sends bursts of this many batches, and every burst (and
   every fleet set-up) is followed by an idle pause as long as itself: the
   host then runs the program at half duty, where its speed is steadier
   than under unbroken load (NOTES.md, "Noise"). Throughput counts busy
   time only. *)
let burst = 4 * connections * depth

(* Batches per second of run, pauses included: they size each run from
   --seconds and nothing else, so a run's batch count never depends on how
   fast it went. serve-saturate runs whole bursts. *)
let batches_for workload seconds =
  let seconds = float_of_int seconds in
  match workload with
  | "serve-steady" -> max 20 (int_of_float (steady_rate *. seconds))
  | "serve-saturate" ->
      burst * max 1 (Float.to_int (Float.round (6.0 *. seconds /. float_of_int burst)))
  | _ -> max 20 (int_of_float (3.4 *. seconds))

let session_seed seed c = Prng.fresh_seed (Prng.derive seed c 0x5e55)
let fleet_seed seed i = Prng.fresh_seed (Prng.derive seed i 0xf1ee7)

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Nearest-rank percentile: at q = 0.9 over >= 100 samples at least ten
   samples lie beyond it. *)
let pct q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  Matprod_obs.Telemetry.percentile_exact a q

let median = pct 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let digest_add d crc = (d + crc) land ((1 lsl 30) - 1)
let answers_bytes answers =
  String.concat "" (List.map (Codec.encode Proto.answer) answers)

(* What every pass of a workload yields. Counts first: they must be
   identical across runs at one seed. *)
type pass = {
  attempted : int;
  failed : int;
  answered_queries : int;
  fresh_bits : int;
  rounds : int;
  replayed : int;
  digest : int;
  latencies_ms : float list;
  elapsed_s : float;
  cpu_s : float;
  rss_mb : float;
  problems : string list;
}

let counts (p : pass) =
  (p.attempted, p.failed, p.fresh_bits, p.rounds, p.replayed, p.digest)

(* ------------------------------------------------------------------ *)
(* The serve daemon, driven over Proto frames *)

let exe = Filename.concat "_build" (Filename.concat "default" "bin/matprod.exe")

type conn = { fd : Unix.file_descr; sseed : int }

let send c req = Transport.write_frame c.fd (Proto.encode_request req)
let recv c = Proto.decode_response (Transport.read_frame c.fd)

(* Dial with a 2 ms retry while the daemon binds its port, so set-up time
   is not quantised by a coarse back-off. The benchmark keeps the raw
   socket ([Client.t] hides it): the open loop selects over both
   connections from one receiver thread. *)
let dial ~pid ~port ~sseed =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let deadline = now () +. 30.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _)
      when now () < deadline && not (Proc.exited pid) ->
        Unix.close fd;
        Thread.delay 0.002;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  let fd = go () in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  let c = { fd; sseed } in
  send c (Proto.Hello { session_seed = sseed });
  match recv c with
  | Proto.Welcome _ -> c
  | _ ->
      Unix.close fd;
      failwith "daemon did not welcome the session"

type daemon = {
  pid : int;
  conns : conn array;
  out : string;
  trace_file : string option;
  traced : bool;
  mutable running : bool;
}

let kill d =
  if d.running then begin
    d.running <- false;
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
    ignore (Proc.stop ~grace_s:2.0 d.pid)
  end

let batch_req ~name id = Proto.Batch { id; pair = name; specs }

(* From process start until the pair is registered and one untimed
   warm-up batch (id 0 on connection 0) is answered. *)
let start_daemon ~work ~tag ~journaled ~traced ~seed ~pair:(a, b) =
  let t0 = now () in
  let path suffix = Filename.concat work (tag ^ suffix) in
  let port = Proc.free_port () in
  let trace_file = if traced then Some (path ".trace.jsonl") else None in
  let args =
    [ "serve"; "--host"; "127.0.0.1"; "--port"; string_of_int port ]
    @ (if journaled then [ "--journal-dir"; path ".journal" ] else [])
    @ match trace_file with Some f -> [ "--json"; "--trace"; f ] | None -> []
  in
  let out = path ".out" in
  let pid = Proc.spawn ~exe ~args ~stdout_path:out ~stderr_path:(path ".err") in
  let d = { pid; conns = [||]; out; trace_file; traced; running = true } in
  match
    let conns =
      Array.init connections (fun c -> dial ~pid ~port ~sseed:(session_seed seed c))
    in
    let d = { d with conns } in
    let name = pair_name seed in
    send conns.(0)
      (Proto.Register { name; a = Imat.of_bmat a; b = Imat.of_bmat b });
    (match recv conns.(0) with
    | Proto.Ready _ -> ()
    | Proto.Err e -> failwith ("register: " ^ e)
    | _ -> failwith "register: unexpected reply");
    send conns.(0) (batch_req ~name 0);
    match recv conns.(0) with
    | Proto.Answers _ as warm -> (d, warm, (t0, now ()))
    | Proto.Err e -> failwith ("warm-up batch: " ^ e)
    | _ -> failwith "warm-up batch: unexpected reply"
  with
  | r -> r
  | exception e ->
      kill d;
      raise e

let ints_of line =
  String.map (fun ch -> if ch >= '0' && ch <= '9' then ch else ' ') line
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt

(* Quit every session, SIGTERM, and read the drain counts (sessions,
   batches, queries, batch errors) plus, with --json, the metrics. *)
let shutdown d =
  Array.iter
    (fun c ->
      (try send c Proto.Quit with Unix.Unix_error _ -> ());
      Unix.close c.fd)
    d.conns;
  d.running <- false;
  let status = Proc.stop d.pid in
  let lines =
    Proc.read_file d.out |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  let drain, summary =
    if d.traced then
      let j = Json.of_string (List.nth lines (List.length lines - 1)) in
      let int k = match Json.member k j with Some (Json.Int v) -> v | _ -> -1 in
      ( [ int "sessions"; int "batches"; int "queries"; int "batch_errors" ],
        Json.member "metrics" j )
    else
      ( (match
           List.find_opt
             (fun l -> String.starts_with ~prefix:"matprod serve: drained" l)
             lines
         with
        | Some l -> ints_of l
        | None -> []),
        None )
  in
  (status, drain, summary)

let check_drain ~batches (status, drain, _) =
  let want = [ connections; batches; batches * per_batch; 0 ] in
  (match status with Ok () -> [] | Error e -> [ "daemon exit: " ^ e ])
  @
  if drain = want then []
  else
    [ Printf.sprintf "drain counts [%s], expected [%s]"
        (String.concat "; " (List.map string_of_int drain))
        (String.concat "; " (List.map string_of_int want)) ]

(* One request as the client saw it. [due] is when the schedule wanted it
   sent; closed loops set it to the send time. *)
type shot = {
  conn : int;
  id : int;
  replay : bool;
  mutable due : float;
  mutable sent : float;
  mutable enc : float;
  mutable got : float;  (* frame read, before decode *)
  mutable dec : float;
  mutable resp : Proto.response option;
  mutable crc : int;
  mutable timed : bool;  (* counts in latency figures *)
}

let shot conn id replay =
  { conn; id; replay; due = 0.0; sent = 0.0; enc = 0.0; got = 0.0; dec = 0.0;
    resp = None; crc = 0; timed = true }

let fire c ~name s =
  s.sent <- now ();
  let payload = Proto.encode_request (batch_req ~name s.id) in
  s.enc <- now () -. s.sent;
  Transport.write_frame c.fd payload

let land_ s raw got =
  s.got <- got;
  s.crc <- Reliable.crc32 raw;
  let t = now () in
  s.resp <- Some (Proto.decode_response raw);
  s.dec <- now () -. t

let latency s = s.got +. s.dec -. s.due

(* serve-steady: a Poisson schedule alternating connections; every 8th
   request re-asks an id answered earlier on the same connection, which
   the daemon serves from its journal. The schedule is part of the
   workload, not of its inputs: one fixed seed, with the gaps rescaled to
   span exactly count / rate seconds, so every input seed meets the same
   bursts. Which ids are re-asked follows the input seed. *)
let steady_plan ~seed ~count =
  let rng = Prng.derive seed 0x57ead 1 in
  let next = Array.make connections 1 in
  let gaps =
    let g = Prng.create 0x57ead in
    Array.init count (fun _ -> Prng.exponential g)
  in
  let scale = float_of_int count /. steady_rate /. Array.fold_left ( +. ) 0.0 gaps in
  let t = ref 0.0 in
  Array.init count (fun r ->
      t := !t +. (gaps.(r) *. scale);
      let conn = r mod connections in
      let s =
        if r mod replay_every = replay_every - 1 && next.(conn) > 1 then
          shot conn (1 + Prng.int rng (next.(conn) - 1)) true
        else begin
          let id = next.(conn) in
          next.(conn) <- id + 1;
          shot conn id false
        end
      in
      s.due <- !t;
      s)

let saturate_plan ~count =
  Array.init count (fun r -> shot (r mod connections) ((r / connections) + 1) false)

(* Open loop: this thread sends on schedule, one receiver thread reads
   both connections. A response belongs to the oldest request pending on
   its connection — the daemon answers each connection in order. *)
let open_loop d ~name shots =
  let t0 = now () +. 0.05 in
  Array.iter (fun s -> s.due <- t0 +. s.due) shots;
  let m = Mutex.create () in
  let pending = Array.init connections (fun _ -> Queue.create ()) in
  let fds = Array.to_list (Array.map (fun c -> c.fd) d.conns) in
  let receive () =
    let left = ref (Array.length shots) in
    while !left > 0 do
      match Unix.select fds [] [] 60.0 with
      | [], _, _ -> failwith "open loop: no response for 60 s"
      | ready, _, _ ->
          List.iter
            (fun fd ->
              let raw = Transport.read_frame fd in
              let got = now () in
              let ci = if fd = d.conns.(0).fd then 0 else 1 in
              let s = Mutex.protect m (fun () -> Queue.pop pending.(ci)) in
              land_ s raw got;
              decr left)
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let err = ref None in
  let th = Thread.create (fun () -> try receive () with e -> err := Some e) () in
  Array.iter
    (fun s ->
      let wait = s.due -. now () in
      if wait > 0.0 then Thread.delay wait;
      Mutex.protect m (fun () -> Queue.push s pending.(s.conn));
      fire d.conns.(s.conn) ~name s)
    shots;
  Thread.join th;
  Option.iter raise !err;
  now () -. t0

(* Closed loop: one thread per connection keeps [depth] batches in flight
   and sends the next only when one returns. Only those replacements are
   timed: the first [depth] go out together into an empty queue. *)
let closed_loop d ~name shots =
  let body c =
    let mine = List.filter (fun s -> s.conn = c) (Array.to_list shots) |> Array.of_list in
    let k = Array.length mine in
    let next = ref 0 in
    let fire_next () =
      let s = mine.(!next) in
      fire d.conns.(c) ~name s;
      s.due <- s.sent;
      s.timed <- !next >= depth;
      incr next
    in
    while !next < min depth k do fire_next () done;
    for j = 0 to k - 1 do
      let raw = Transport.read_frame d.conns.(c).fd in
      land_ mine.(j) raw (now ());
      if !next < k then fire_next ()
    done
  in
  let err = ref None in
  let th = Thread.create (fun () -> try body 1 with e -> err := Some e) () in
  body 0;
  Thread.join th;
  Option.iter raise !err

(* serve-saturate: closed-loop bursts, each followed by an equal pause;
   returns the busy time. *)
let saturate_loop d ~name shots =
  let n = Array.length shots in
  let rec go i busy =
    if i >= n then busy
    else begin
      let t0 = now () in
      closed_loop d ~name (Array.sub shots i (min burst (n - i)));
      let took = now () -. t0 in
      if i + burst < n then Thread.delay took;
      go (i + burst) (busy +. took)
    end
  in
  go 0 0.0

(* Output checks: replays equal their first answer at zero fresh bits,
   and sampled batches equal an in-process Engine.run at the batch seed. *)
let check_serve ~seed ~pair:(a, b) ~warm shots =
  let a = Imat.of_bmat a and b = Imat.of_bmat b in
  let firsts = Hashtbl.create 64 in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let expect ~conn ~id ~answers ~bits ~rounds =
    let batch_seed = Proto.batch_seed ~session_seed:(session_seed seed conn) ~batch_id:id in
    let run =
      Ctx.run ~seed:batch_seed (fun ctx -> Engine.run (Engine.create ()) ctx ~a ~b queries)
    in
    let local = Array.to_list run.Ctx.output.Engine.answers in
    if answers_bytes local <> answers_bytes answers then
      bad "batch %d/%d: answers differ from in-process Engine.run" conn id;
    if run.Ctx.bits <> bits || run.Ctx.rounds <> rounds then
      bad "batch %d/%d: %d bits %d rounds, in-process %d bits %d rounds" conn id bits
        rounds run.Ctx.bits run.Ctx.rounds
  in
  (match warm with
  | Proto.Answers { id; bits; rounds; answers; _ } ->
      expect ~conn:0 ~id ~answers ~bits ~rounds
  | _ -> ());
  Array.iter
    (fun s ->
      match s.resp with
      | Some (Proto.Answers { id; bits; rounds; replayed_bits; answers }) when id = s.id
        -> (
          if not s.replay then begin
            Hashtbl.replace firsts (s.conn, id) (answers, bits);
            if id mod check_every = 0 then expect ~conn:s.conn ~id ~answers ~bits ~rounds
          end
          else
            match Hashtbl.find_opt firsts (s.conn, id) with
            | Some (first, first_bits) ->
                if answers_bytes first <> answers_bytes answers then
                  bad "replay %d/%d: answers differ from the first answer" s.conn id;
                if bits <> 0 || replayed_bits <> first_bits then
                  bad "replay %d/%d: %d fresh bits, %d of %d replayed" s.conn id bits
                    replayed_bits first_bits
            | None -> bad "replay %d/%d: no first answer" s.conn id)
      | _ -> ())
    shots;
  List.rev !problems

type serve_run = {
  pass : pass;
  shots : shot array;
  trace : string option;
  metrics : Json.t option;
}

(* serve-steady times a separate daemon, so the memory probe runs in a
   helper process beside it: `perfbench --probe-log` prints "time
   probe_ms" every 0.2 s until it is stopped (NOTES.md, "Noise"). *)
let probe_log () =
  while true do
    let p = Proc.probe_ms () in
    Printf.printf "%.6f %.4f\n%!" (now ()) p;
    Unix.sleepf 0.2
  done

let start_probe_log ~work =
  let out = Filename.concat work "probe.log" in
  let pid =
    Proc.spawn ~exe:Sys.executable_name ~args:[ "--probe-log" ] ~stdout_path:out
      ~stderr_path:(out ^ ".err")
  in
  (pid, out)

let read_probe_log path =
  Proc.read_file path |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ t; p ] -> Some (float_of_string t, float_of_string p)
         | _ -> None)

(* The scale over [t0, t1] from the probes that ran during the pass
   [from, until] while no batch was in flight (the daemon's own work, or
   its start-up, would slow them): probe_ref_ms over their median inside
   the window, or over the nearest one when none is. *)
let host_scale log ~busy ~from ~until =
  let idle =
    List.filter
      (fun (t, p) ->
        let t0 = t -. (p /. 1000.0) in
        t0 >= from && t <= until && not (List.exists (fun (a, b) -> a < t && b > t0) busy))
      log
  in
  if idle = [] then failwith "no memory probe ran while the daemon was idle";
  fun t0 t1 ->
    let inside = List.filter (fun (t, _) -> t >= t0 && t <= t1) idle in
    let nearest () =
      let dist (t, _) = Float.abs (t -. ((t0 +. t1) /. 2.0)) in
      List.fold_left (fun a b -> if dist b < dist a then b else a) (List.hd idle) idle
    in
    let probes = if inside = [] then [ nearest () ] else inside in
    probe_ref_ms /. median (List.map snd probes)

let busy shots = Array.to_list (Array.map (fun s -> (s.sent, s.got)) shots)

(* With [host], the probe log read after the loop, timings are scaled by
   host speed: batch latencies by the probes within a second of the
   batch, CPU time by the whole pass. Elapsed time stays as measured:
   serve-steady's is its schedule. *)
let serve_pass ~work ~tag ~journaled ~traced ~seed ~pair ~open_ ~host shots =
  let d, warm, setup = start_daemon ~work ~tag ~journaled ~traced ~seed ~pair in
  Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
  let cpu0 = Proc.cpu_s d.pid in
  let elapsed_s = (if open_ then open_loop else saturate_loop) d ~name:(pair_name seed) shots in
  let until = now () in
  let cpu_s = Proc.cpu_s d.pid -. cpu0 in
  let rss_mb = Proc.rss_peak_mb d.pid in
  let ((_, _, metrics) as stopped) = shutdown d in
  let first = Array.fold_left (fun acc s -> Float.min acc s.due) infinity shots in
  let scale =
    match host with
    | None -> fun _ _ -> 1.0
    | Some read -> host_scale (read ()) ~busy:(busy shots) ~from:first ~until
  in
  let answered s =
    match s.resp with
    | Some (Proto.Answers { id; bits; rounds; replayed_bits; answers })
      when id = s.id && List.length answers = per_batch ->
        Some (s, bits, rounds, replayed_bits)
    | _ -> None
  in
  let good = List.filter_map answered (Array.to_list shots) in
  let total f = List.fold_left (fun acc g -> acc + f g) 0 good in
  let pass =
    {
      attempted = Array.length shots;
      failed = Array.length shots - List.length good;
      answered_queries = per_batch * List.length good;
      fresh_bits = total (fun (_, bits, _, _) -> bits);
      rounds = total (fun (_, _, rounds, _) -> rounds);
      replayed = total (fun (_, _, _, replayed) -> if replayed > 0 then 1 else 0);
      digest = Array.fold_left (fun acc s -> digest_add acc s.crc) 0 shots;
      latencies_ms =
        List.filter_map
          (fun (s, _, _, _) ->
            if s.timed then
              Some (1000.0 *. latency s *. scale (s.due -. 1.0) (s.got +. s.dec +. 1.0))
            else None)
          good;
      elapsed_s;
      cpu_s = cpu_s *. scale first until;
      rss_mb;
      problems =
        check_drain ~batches:(Array.length shots + 1) stopped
        @ check_serve ~seed ~pair ~warm shots;
    }
  in
  ({ pass; shots; trace = d.trace_file; metrics }, snd setup -. fst setup)

(* Set-up only: start, register, warm up, drain. *)
let serve_setup ~work ~tag ~journaled ~seed ~pair =
  let d, _, (t0, t1) = start_daemon ~work ~tag ~journaled ~traced:false ~seed ~pair in
  Fun.protect ~finally:(fun () -> kill d) @@ fun () ->
  (t1 -. t0, check_drain ~batches:1 (shutdown d))

(* ------------------------------------------------------------------ *)
(* The fleet, in-process *)

type fleet_shot = {
  f_lat : float;
  f_cpu : float;
  f_bits : int;
  f_rounds : int;
  f_crc : int;
  f_problem : string option;
}

let fleet_one engine (a, b) seed =
  let t0 = now () and c0 = Sys.time () in
  let r =
    Trace.with_span ~name:"bench.fleet_batch" ~attrs:[ ("seed", Json.Int seed) ]
      (fun () ->
        Fleet.run_batch
          (Fleet.config ~verify:true ~replicas:1 ~workers:4 ~seed ())
          engine queries ~a ~b)
  in
  let f_lat = now () -. t0 and f_cpu = Sys.time () -. c0 in
  match r with
  | Error e ->
      { f_lat; f_cpu; f_bits = 0; f_rounds = 0; f_crc = 0;
        f_problem = Some (Outcome.error_to_string e) }
  | Ok r ->
      (* Links run in parallel, so a batch's rounds are its slowest link's. *)
      let link_rounds l =
        List.fold_left
          (fun acc (at : Supervisor.attempt) -> acc + at.Supervisor.fresh_rounds)
          0 l.Fleet.b_attempts
      in
      let answers, f_problem =
        match r.Fleet.batch_answers with
        | Outcome.Full answers when r.Fleet.batch_suspects = [] -> (answers, None)
        | Outcome.Full answers -> (answers, Some "suspects reported")
        | Outcome.Degraded (answers, _) -> (answers, Some "degraded answer")
      in
      {
        f_lat;
        f_cpu;
        f_bits = r.Fleet.batch_fresh_bits;
        f_rounds = List.fold_left (fun acc l -> max acc (link_rounds l)) 0 r.Fleet.batch_links;
        f_crc = Reliable.crc32 (answers_bytes (Array.to_list answers));
        f_problem;
      }

let fleet_rounds = 2

(* Pair generation, a fresh engine, and one untimed warm-up batch; the
   time is scaled by the memory probe run right after (see fleet_pass). *)
let fleet_setup ~seed =
  let t0 = now () in
  let pair = gen_pair seed in
  let warm = fleet_one (Engine.create ()) pair (fleet_seed seed 0) in
  Option.iter (fun e -> failwith ("fleet warm-up batch: " ^ e)) warm.f_problem;
  let took = now () -. t0 in
  (pair, took *. probe_ref_ms /. Proc.probe_ms ())

(* Every batch runs [fleet_rounds] times, in interleaved rounds (batches
   1..N, then 1..N again), each round on a fresh engine so the plan cache
   behaves the same in every round. Each run is followed by the memory
   probe, and its wall and CPU time are scaled by probe_ref_ms over the
   median of the five probes around it: the host's memory speed drifts
   by up to 1.8x for tens of seconds, and the batch times drift with it
   (NOTES.md, "Noise"). A batch's figures are its faster round's. Every
   round must give the same answers, bits and rounds. *)
let fleet_pass pair ~seed ~count =
  let probed =
    Array.init fleet_rounds (fun _ ->
        let engine = Engine.create () in
        Array.init count (fun i ->
            let s = fleet_one engine pair (fleet_seed seed (i + 1)) in
            (s, Proc.probe_ms ())))
  in
  let runs = Array.map (Array.map fst) probed in
  let probes = Array.concat (Array.to_list (Array.map (Array.map snd) probed)) in
  let scale r i =
    let k = (r * count) + i in
    let lo = max 0 (k - 2) and hi = min (Array.length probes - 1) (k + 2) in
    probe_ref_ms /. median (Array.to_list (Array.sub probes lo (hi - lo + 1)))
  in
  let fastest f i =
    let best = ref infinity in
    Array.iteri (fun r run -> best := Float.min !best (f run.(i) *. scale r i)) runs;
    !best
  in
  let raw = Array.to_list (Array.map (fun s -> 1000.0 *. s.f_lat) runs.(0)) in
  Printf.printf
    "fleet-verify: unscaled first round p50 %.2f ms p90 %.2f ms; memory probe median %.2f ms, \
     reference %.1f ms\n"
    (median raw) (pct 0.9 raw) (median (Array.to_list probes)) probe_ref_ms;
  let first = Array.to_list runs.(0) in
  let lat = List.init count (fastest (fun s -> s.f_lat)) in
  let cpu = List.init count (fastest (fun s -> s.f_cpu)) in
  let key s = (s.f_bits, s.f_rounds, s.f_crc, s.f_problem) in
  let unstable =
    List.filter
      (fun i -> Array.exists (fun run -> key run.(i) <> key runs.(0).(i)) runs)
      (List.init count Fun.id)
  in
  let good = List.filter (fun s -> s.f_problem = None) first in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 good in
  {
    attempted = count;
    failed = count - List.length good;
    answered_queries = per_batch * List.length good;
    fresh_bits = total (fun s -> s.f_bits);
    rounds = total (fun s -> s.f_rounds);
    replayed = 0;
    digest = List.fold_left (fun acc s -> digest_add acc s.f_crc) 0 first;
    latencies_ms =
      List.filter_map
        (fun (s, l) -> if s.f_problem = None then Some (1000.0 *. l) else None)
        (List.combine first lat);
    elapsed_s = sum lat;
    cpu_s = sum cpu;
    rss_mb = Proc.rss_peak_mb 0;
    problems =
      List.filter_map (fun s -> Option.map (( ^ ) "fleet batch: ") s.f_problem) first
      @ List.map (Printf.sprintf "fleet batch %d: rounds disagree on answers or counts") unstable;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer split from traces and metric snapshots *)

type span = {
  name : string;
  id : int;
  parent : int option;
  start : float;
  dur : float;
  seed : int option;
  family : string option;
}

let span_of_json j =
  let get k = Json.member k j in
  let int k = match get k with Some (Json.Int v) -> v | _ -> 0 in
  let attr k = Option.bind (get "attrs") (Json.member k) in
  {
    name = (match get "name" with Some (Json.String s) -> s | _ -> "");
    id = int "id";
    parent = (match get "parent" with Some (Json.Int p) -> Some p | _ -> None);
    start = float_of_int (int "start_ns") /. 1e9;
    dur = float_of_int (int "dur_ns") /. 1e9;
    seed = (match attr "seed" with Some (Json.Int s) -> Some s | _ -> None);
    family = (match attr "family" with Some (Json.String s) -> Some s | _ -> None);
  }

let read_spans path =
  Proc.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> span_of_json (Json.of_string l))

(* Sum a counter, or a histogram's "sum", over every scope of a snapshot. *)
let rec metric_sum snap ~section ~key =
  let value v =
    match (section, v) with
    | "counters", Json.Int x -> float_of_int x
    | _, Json.Obj _ -> (
        match Json.member "sum" v with
        | Some (Json.Float x) -> x
        | Some (Json.Int x) -> float_of_int x
        | _ -> 0.0)
    | _ -> 0.0
  in
  let here =
    match Json.member section snap with
    | Some (Json.Obj cells) ->
        List.fold_left (fun acc (k, v) -> if key k then acc +. value v else acc) 0.0 cells
    | _ -> 0.0
  in
  match Json.member "scopes" snap with
  | Some (Json.Obj children) ->
      List.fold_left (fun acc (_, c) -> acc +. metric_sum c ~section ~key) here children
  | _ -> here

let counter snap name = metric_sum snap ~section:"counters" ~key:(String.equal name)

let hist_sum snap prefix =
  metric_sum snap ~section:"histograms" ~key:(String.starts_with ~prefix)

(* Leaf sketch builds only: Lp times its Stable_sketch, L0_sketch or Ams
   call again under the {lp} and {lp_planned} labels. *)
let sketch_build_ns snap =
  metric_sum snap ~section:"histograms" ~key:(fun k ->
      String.starts_with ~prefix:"sketch_build_ns" k
      && k <> "sketch_build_ns{lp}" && k <> "sketch_build_ns{lp_planned}")

let durs ?family name spans =
  List.filter_map
    (fun s ->
      if s.name = name && (family = None || s.family = family) then Some s.dur else None)
    spans

let ms x = 1000.0 *. x

(* Per batch, with the daemon's ctx.run span joined by batch seed (which
   fixes its trace id; a replay is the second span with its seed):
   latency = generator lag + request encode + queue + service + remainder
   + response decode. The daemon's span clock has its own epoch; the
   offset is pinned between "no batch starts before it was sent" and "no
   batch ends after its answer arrived". Empty inputs give zeros. *)
let serve_ledger ~seed shots spans =
  let runs = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.seed with
      | Some k when s.name = "ctx.run" ->
          Hashtbl.replace runs k (s :: Option.value ~default:[] (Hashtbl.find_opt runs k))
      | _ -> ())
    (List.rev spans);
  let joined =
    Array.to_list shots
    |> List.sort (fun x y -> Float.compare x.sent y.sent)
    |> List.filter_map (fun sh ->
           let k = Proto.batch_seed ~session_seed:(session_seed seed sh.conn) ~batch_id:sh.id in
           match Hashtbl.find_opt runs k with
           | Some (sp :: rest) ->
               Hashtbl.replace runs k rest;
               Some (sh, sp)
           | _ -> None)
  in
  let bound pick f init = List.fold_left (fun acc j -> pick acc (f j)) init joined in
  let lo = bound Float.max (fun (sh, sp) -> sh.sent +. sh.enc -. sp.start) neg_infinity in
  let hi = bound Float.min (fun (sh, sp) -> sh.got -. sp.start -. sp.dur) infinity in
  let off = (lo +. hi) /. 2.0 in
  let align_ms = if joined = [] then 0.0 else ms ((hi -. lo) /. 2.0) in
  (* Figures come from the timed batches: the closed loop's ramp-up
     batches join the offset bounds but not the medians. *)
  let timed = List.filter (fun (sh, _) -> sh.timed) joined in
  let col f = List.map f timed in
  let queue (sh, sp) = ms (sp.start +. off -. sh.sent -. sh.enc) in
  let service (_, sp) = ms sp.dur in
  let remainder (sh, sp) = ms (sh.got -. sp.start -. sp.dur -. off) in
  let codec_us (sh, _) = 1e6 *. (sh.enc +. sh.dec) in
  let lag (sh, _) = ms (sh.sent -. sh.due) in
  let replays, fresh = List.partition (fun (sh, _) -> sh.replay) timed in
  ( List.length joined,
    align_ms,
    [
      ("serve.queue_ms_p50", "ms", median (col queue));
      ("serve.service_ms_p50", "ms", median (col service));
      ("serve.remainder_ms_p50", "ms", median (col remainder));
      ("serve.client_codec_us_per_batch", "us", mean (col codec_us));
      ("loadgen.lag_ms_p90", "ms", pct 0.9 (col lag));
      ("journal.fresh_ms_p50", "ms", median (List.map service fresh));
      ("journal.replay_ms_p50", "ms", median (List.map service replays));
    ] )

(* Layers every workload reports; [batches] normalises per-batch sums. *)
let engine_layers ~batches ~journaled spans snap =
  let per_batch x = x /. float_of_int (max 1 batches) in
  let children_of s = List.filter (fun c -> c.parent = Some s.id) spans in
  let self_s name =
    List.fold_left
      (fun acc s ->
        if s.name = name then acc +. s.dur -. sum (List.map (fun c -> c.dur) (children_of s))
        else acc)
      0.0 spans
  in
  let hits = counter snap "engine_plan_hits" and misses = counter snap "engine_plan_misses" in
  let codec_ns = hist_sum snap "codec_encode_ns" +. hist_sum snap "codec_decode_ns" in
  [
    ("engine.batch_ms_p50", "ms", ms (median (durs "engine.batch" spans)));
    ( "engine.plan_hit_share", "share",
      if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
    ("comm.codec_ms_per_batch", "ms", per_batch (codec_ns /. 1e6));
    ("comm.messages_per_batch", "count", per_batch (counter snap "messages_sent"));
    ( "journal.append_mb_per_batch", "MB",
      if journaled then per_batch (counter snap "journal_append_bytes" /. 1e6) else 0.0 );
    ("sketch.build_ms_per_batch", "ms", per_batch (sketch_build_ns snap /. 1e6));
    ("sketch.plan_hash_evals_per_batch", "count", per_batch (counter snap "plan_hash_evals"));
    ("fleet.link_ms_p50", "ms", ms (median (durs "fleet.link" spans)));
    ("fleet.coord_ms_per_batch", "ms", per_batch (ms (self_s "fleet.run")));
    ("verify.ms_per_batch", "ms", per_batch (ms (sum (durs "verify.check" spans))));
    ("verify.failures", "count", counter snap "verify_failures");
  ]
  @ List.map
      (fun fam ->
        ( "engine.group_ms." ^ fam, "ms",
          per_batch (ms (sum (durs ~family:fam "engine.group" spans))) ))
      [ "lp"; "l0-sample"; "heavy-hitters" ]

(* ------------------------------------------------------------------ *)
(* Main *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let say fmt = Printf.printf (fmt ^^ "\n%!")

let describe label (p : pass) =
  say "%s: %d batches (%d failed), %d queries in %.3f s; latency n=%d p50 %.2f ms p90 %.2f ms"
    label p.attempted p.failed p.answered_queries p.elapsed_s
    (List.length p.latencies_ms) (median p.latencies_ms) (pct 0.9 p.latencies_ms);
  say "%s: exact counts: fresh bits %d, rounds %d, replayed %d, digest %d" label
    p.fresh_bits p.rounds p.replayed p.digest;
  List.iter (say "%s: CHECK FAILED: %s" label) p.problems

let end_to_end ~workload ~setup_all ~setup_problems (p : pass) =
  say "setup trials (s): %s" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_all));
  describe workload p;
  List.iter (say "CHECK FAILED: %s") setup_problems;
  let answered = float_of_int p.answered_queries in
  let batches = p.attempted - p.failed in
  {
    correct = p.failed = 0 && p.problems = [] && setup_problems = [];
    attempted = p.attempted;
    failed = p.failed;
    metrics =
      [
        ("qps", "1/s", answered /. p.elapsed_s);
        ("latency_p50_ms", "ms", median p.latencies_ms);
        ("latency_p90_ms", "ms", pct 0.9 p.latencies_ms);
        ("cpu_ms_per_query", "ms", 1000.0 *. p.cpu_s /. answered);
        ("rss_peak_mb", "MB", p.rss_mb);
        ("setup_s", "s", median setup_all);
        ("bits_per_query", "bits", float_of_int p.fresh_bits /. answered);
        ("rounds_per_batch", "rounds", float_of_int p.rounds /. float_of_int (max 1 batches));
        ("answered_share", "share", float_of_int batches /. float_of_int p.attempted);
      ];
  }

(* The same batches untraced, then traced: counts and digest must agree,
   and the p50 ratio is the tracing overhead. *)
let per_layer ~workload ~(plain : pass) ~(traced : pass) ~problems layers =
  describe (workload ^ " untraced") plain;
  describe (workload ^ " traced") traced;
  let problems =
    (if counts plain = counts traced then []
     else [ "counts differ between the untraced and the traced pass" ])
    @ problems
  in
  List.iter (say "CHECK FAILED: %s") problems;
  let overhead = 100.0 *. ((median traced.latencies_ms /. median plain.latencies_ms) -. 1.0) in
  {
    correct =
      problems = [] && plain.problems = [] && traced.problems = []
      && plain.failed = 0 && traced.failed = 0;
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    metrics = layers @ [ ("obs.trace_overhead_pct", "%", overhead) ];
  }

let run_serve ~workload ~seed ~seconds ~trace ~work =
  let journaled = workload = "serve-steady" in
  let open_ = journaled in
  let count = batches_for workload seconds in
  let pair = gen_pair seed in
  let plan count = if open_ then steady_plan ~seed ~count else saturate_plan ~count in
  let pass ~tag ~traced ~host count =
    serve_pass ~work ~tag ~journaled ~traced ~seed ~pair ~open_ ~host (plan count)
  in
  if not trace then begin
    (* Only the open loop is scaled: serve-saturate keeps the daemon busy
       for a whole burst, and probes in the pauses between bursts did not
       steady it (NOTES.md, "Noise"). *)
    let probe = if open_ then Some (start_probe_log ~work) else None in
    let stop_probe () = Option.iter (fun (pid, _) -> ignore (Proc.stop ~grace_s:2.0 pid)) probe in
    Fun.protect ~finally:stop_probe @@ fun () ->
    let trials =
      List.init (setups - 1) (fun k ->
          serve_setup ~work ~tag:(Printf.sprintf "setup%d" k) ~journaled ~seed ~pair)
    in
    let host = Option.map (fun (_, log) () -> read_probe_log log) probe in
    let r, last = pass ~tag:"measure" ~traced:false ~host count in
    (* Set-ups run daemons back to back, so no idle probe falls among them;
       they are scaled by the idle probes of the pass's first 5 s, which
       follow them directly. *)
    let setup_scale =
      match probe with
      | None -> 1.0
      | Some (_, log) ->
          let first = Array.fold_left (fun acc s -> Float.min acc s.due) infinity r.shots in
          let scale =
            host_scale (read_probe_log log) ~busy:(busy r.shots) ~from:first ~until:infinity
          in
          let raw = List.filter_map (fun s -> if s.timed then Some (latency s) else None) in
          say "%s: idle memory probe median %.2f ms, reference %.1f ms; unscaled p50 %.2f ms"
            workload
            (probe_ref_ms /. scale neg_infinity infinity)
            probe_ref_ms
            (1000.0 *. median (raw (Array.to_list r.shots)));
          scale first (first +. 5.0)
    in
    end_to_end ~workload
      ~setup_all:(List.map (( *. ) setup_scale) (last :: List.map fst trials))
      ~setup_problems:(List.concat_map snd trials) r.pass
  end
  else begin
    let half = max 20 (count / 2) in
    let plain, _ = pass ~tag:"plain" ~traced:false ~host:None half in
    let traced, _ = pass ~tag:"traced" ~traced:true ~host:None half in
    let spans = Option.fold ~none:[] ~some:read_spans traced.trace in
    let snap = Option.value traced.metrics ~default:(Json.Obj []) in
    let joined, align_ms, ledger = serve_ledger ~seed traced.shots spans in
    say "serve ledger: daemon clock offset known to +/- %.3f ms" align_ms;
    let replayed_share =
      float_of_int traced.pass.replayed /. float_of_int traced.pass.attempted
    in
    per_layer ~workload ~plain:plain.pass ~traced:traced.pass
      ~problems:
        (if joined = half then []
         else [ Printf.sprintf "joined %d of %d batches to daemon spans" joined half ])
      (ledger
      @ engine_layers ~batches:(List.length (durs "ctx.run" spans)) ~journaled spans snap
      @ [ ("journal.replayed_share", "share", replayed_share) ])
  end

let run_fleet ~seed ~seconds ~trace =
  Pool.set_size 1;
  let count = batches_for "fleet-verify" seconds in
  if not trace then begin
    let trials =
      List.init setups (fun _ ->
          let ((_, took) as trial) = fleet_setup ~seed in
          Thread.delay took;
          trial)
    in
    let pair, _ = List.nth trials (setups - 1) in
    let p = fleet_pass pair ~seed ~count in
    end_to_end ~workload:"fleet-verify" ~setup_all:(List.map snd trials)
      ~setup_problems:[] p
  end
  else begin
    let half = max 20 (count / 2) in
    let pair, _ = fleet_setup ~seed in
    let plain = fleet_pass pair ~seed ~count:half in
    let pair, _ = fleet_setup ~seed in
    Trace.reset ();
    Metrics.reset ();
    Trace.enable ();
    Metrics.set_enabled true;
    let traced = fleet_pass pair ~seed ~count:half in
    Trace.disable ();
    let snap = Metrics.snapshot () in
    Metrics.set_enabled false;
    let spans = List.map (fun sp -> span_of_json (Trace.to_json sp)) (Trace.spans ()) in
    (* The serve layers are bypassed here: the empty ledger reads 0. *)
    let _, _, ledger = serve_ledger ~seed [||] [] in
    per_layer ~workload:"fleet-verify" ~plain ~traced ~problems:[]
      (ledger
      @ engine_layers ~batches:(half * fleet_rounds) ~journaled:false spans snap
      @ [ ("journal.replayed_share", "share", 0.0) ])
  end

let workloads = [ "serve-steady"; "serve-saturate"; "fleet-verify" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length; sizes the batch count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer split");
      ("--probe-log", Arg.Unit probe_log, " only log the memory probe (a serve run's helper)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: daemon binary missing: " ^ exe);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let work = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Proc.mkdir_p work;
  let spin0 = Proc.spin_ms () in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Proc.rm_rf work;
        try Unix.rmdir (Filename.dirname work) with Unix.Unix_error _ -> ())
    @@ fun () ->
    let trace = !trace = 1 in
    if !workload = "fleet-verify" then run_fleet ~seed:!seed ~seconds:!seconds ~trace
    else run_serve ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace ~work
  in
  let spin1 = Proc.spin_ms () in
  say "host.spin_ms: start %.1f end %.1f" spin0 spin1;
  let metrics =
    if !trace = 1 then r.metrics @ [ ("host.spin_ms", "ms", (spin0 +. spin1) /. 2.0) ]
    else r.metrics
  in
  List.iter (fun (k, u, v) -> say "  %-36s %14.4f %s" k v u) metrics;
  let metric (k, u, v) = (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Int r.attempted);
            ("failed", Json.Int r.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))
