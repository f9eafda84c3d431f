module Transport = Matprod_comm.Transport
module Codec = Matprod_comm.Codec
module Ctx = Matprod_comm.Ctx
module Journal = Matprod_comm.Journal
module Engine = Matprod_engine.Engine
module Outcome = Matprod_core.Outcome
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Metrics = Matprod_obs.Metrics

type config = {
  host : string;
  port : int;
  journal_dir : string option;
  grace_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    journal_dir = None;
    grace_s = 5.0;
  }

type stats = {
  sessions : int;
  batches : int;
  queries : int;
  batch_errors : int;
}

(* The parameters a [Gen] pair was made from; [None] for an uploaded pair. *)
type gen = { n : int; density : float; seed : int; zipf : bool }

type t = {
  cfg : config;
  listener : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  engine : Engine.t;
  (* [m] guards the registry, connection list, and counters; [exec] is the
     compute lock — engine, pool fan-out, metrics scopes, and journals are
     single-writer shared state fed by many pipelined sessions. Never hold
     both at once. *)
  m : Mutex.t;
  exec : Mutex.t;
  pairs : (string, gen option * (Imat.t * Imat.t)) Hashtbl.t;
  mutable conns : Unix.file_descr list;
  mutable active : int;
  mutable sessions : int;
  mutable batches : int;
  mutable queries : int;
  mutable batch_errors : int;
}

let c_sessions = Metrics.counter "serve_sessions"
let c_batches = Metrics.counter "serve_batches"
let c_queries = Metrics.counter "serve_queries"
let c_errors = Metrics.counter "serve_batch_errors"
let h_batch = Metrics.histogram "serve_batch_ns"

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create cfg =
  Option.iter mkdir_p cfg.journal_dir;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listener 128
   with e ->
     Unix.close listener;
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  {
    cfg;
    listener;
    bound_port;
    stop_flag = Atomic.make false;
    engine = Engine.create ();
    m = Mutex.create ();
    exec = Mutex.create ();
    pairs = Hashtbl.create 16;
    conns = [];
    active = 0;
    sessions = 0;
    batches = 0;
    queries = 0;
    batch_errors = 0;
  }

let port t = t.bound_port
let stop t = Atomic.set t.stop_flag true

let stats t =
  Mutex.lock t.m;
  let s =
    {
      sessions = t.sessions;
      batches = t.batches;
      queries = t.queries;
      batch_errors = t.batch_errors;
    }
  in
  Mutex.unlock t.m;
  s

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let respond fd resp = Transport.write_frame fd (Proto.encode_response resp)

let find_entry t name = locked t.m (fun () -> Hashtbl.find_opt t.pairs name)
let find_pair t name = Option.map snd (find_entry t name)

(* Store [entry] unless [name] is taken; either way return what [name]
   holds, so two sessions racing on one name agree on the winner. *)
let claim t name entry =
  locked t.m (fun () ->
      match Hashtbl.find_opt t.pairs name with
      | Some held -> held
      | None ->
          Hashtbl.replace t.pairs name entry;
          entry)

let ready name (a, _b) =
  Proto.Ready { name; rows = Imat.rows a; cols = Imat.cols a }

let do_gen t ~name ~n ~density ~seed ~zipf =
  if n < 1 || n > 65536 then Proto.Err "gen: n outside [1, 65536]"
  else if not (density >= 0.0 && density <= 1.0) then
    Proto.Err "gen: density outside [0, 1]"
  else begin
    (* Deterministic in its parameters, so a duplicate Gen (another
       session, same workload) reuses the stored pair; a Gen that reuses
       the name with other parameters, or the name of an uploaded pair,
       is refused rather than answered with the wrong pair. *)
    let params = Some { n; density; seed; zipf } in
    let answer (held, pair) =
      if held = params then ready name pair
      else
        Proto.Err
          (Printf.sprintf "gen: pair %S already exists with other parameters"
             name)
    in
    match find_entry t name with
    | Some entry -> answer entry
    | None ->
        (* The CLI's generator: `Gen` answers match a local run at the
           same parameters bit for bit. *)
        let pair =
          locked t.exec (fun () ->
              let a, b = Workload.gen_pair ~zipf ~seed ~n ~density in
              (Imat.of_bmat a, Imat.of_bmat b))
        in
        answer (claim t name (params, pair))
  end

let do_register t ~name ~a ~b =
  if Imat.cols a <> Imat.rows b then
    Proto.Err
      (Printf.sprintf "register: cols a = %d <> rows b = %d" (Imat.cols a)
         (Imat.rows b))
  else begin
    locked t.m (fun () -> Hashtbl.replace t.pairs name (None, (a, b)));
    ready name (a, b)
  end

let count_batch t ~queries ~failed =
  locked t.m (fun () ->
      t.batches <- t.batches + 1;
      t.queries <- t.queries + queries;
      if failed then t.batch_errors <- t.batch_errors + 1)

let parse_specs specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match Engine.query_of_string s with
        | Ok q -> go (q :: acc) rest
        | Error e -> Error (Printf.sprintf "bad query spec %S: %s" s e))
  in
  go [] specs

let do_batch t ~session ~session_seed ~id ~pair ~specs =
  match find_pair t pair with
  | None -> Proto.Err (Printf.sprintf "batch %d: unknown pair %S" id pair)
  | Some (a, b) -> (
      match parse_specs specs with
      | Error e -> Proto.Err (Printf.sprintf "batch %d: %s" id e)
      | Ok [] -> Proto.Err (Printf.sprintf "batch %d: empty" id)
      | Ok queries -> (
          let seed = Proto.batch_seed ~session_seed ~batch_id:id in
          let body ctx = Engine.run t.engine ctx ~a ~b queries in
          let exec () =
            locked t.exec @@ fun () ->
            Metrics.in_scope (Printf.sprintf "session%d" session) @@ fun () ->
            Metrics.timed h_batch @@ fun () ->
            match t.cfg.journal_dir with
            | None -> Ctx.run ~seed body
            | Some dir -> (
                let path =
                  Filename.concat dir
                    (Proto.journal_name ~session_seed ~batch_id:id)
                in
                (* A journal for this (session_seed, id) means a previous
                   life of the daemon already paid for (part of) this
                   batch: replay it instead of re-sending. *)
                match
                  if Sys.file_exists path then Journal.load path
                  else Error "absent"
                with
                | Ok j when j.Journal.seed = seed ->
                    Ctx.resume ~seed ~path ~journal:j body
                | Ok _ | Error _ ->
                    Ctx.run_journaled ~seed ~journal:path ~protocol:"serve"
                      body)
          in
          (* Every failure Outcome types (a journal that no longer
             matches the batch included) is this batch's error, never the
             session's end. *)
          match Outcome.guard exec with
          | Ok run ->
              Proto.Answers
                {
                  id;
                  bits = run.Ctx.bits;
                  rounds = run.Ctx.rounds;
                  replayed_bits = run.Ctx.replayed_bits;
                  answers = Array.to_list run.Ctx.output.Engine.answers;
                }
          | Error (Outcome.Precondition e | Outcome.Protocol_failure e) ->
              Proto.Err (Printf.sprintf "batch %d: %s" id e)
          | Error e ->
              Proto.Err
                (Printf.sprintf "batch %d: %s" id (Outcome.error_to_string e))))

let handle t fd =
  let cleanup () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    locked t.m (fun () ->
        t.active <- t.active - 1;
        t.conns <- List.filter (fun c -> c != fd) t.conns)
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  try
    let session_seed =
      match Proto.decode_request (Transport.read_frame fd) with
      | Proto.Hello { session_seed } -> session_seed
      | _ ->
          respond fd (Proto.Err "protocol error: expected Hello");
          raise Exit
    in
    let session =
      locked t.m (fun () ->
          t.sessions <- t.sessions + 1;
          t.sessions)
    in
    Metrics.incr c_sessions;
    respond fd (Proto.Welcome { session });
    let rec loop () =
      match Proto.decode_request (Transport.read_frame fd) with
      | Proto.Quit -> ()
      | Proto.Hello _ ->
          respond fd (Proto.Err "protocol error: duplicate Hello");
          loop ()
      | Proto.Gen { name; n; density; seed; zipf } ->
          respond fd (do_gen t ~name ~n ~density ~seed ~zipf);
          loop ()
      | Proto.Register { name; a; b } ->
          respond fd (do_register t ~name ~a ~b);
          loop ()
      | Proto.Batch { id; pair; specs } ->
          let resp = do_batch t ~session ~session_seed ~id ~pair ~specs in
          let failed = match resp with Proto.Err _ -> true | _ -> false in
          count_batch t ~queries:(List.length specs) ~failed;
          if Metrics.enabled () then begin
            Metrics.incr c_batches;
            Metrics.incr_by c_queries (List.length specs);
            if failed then Metrics.incr c_errors
          end;
          respond fd resp;
          loop ()
    in
    loop ()
  with
  | End_of_file | Exit -> ()
  | Transport.Frame_error _ | Codec.Decode_error _ -> ()
  | Unix.Unix_error _ -> ()

let serve t =
  let rec accept_loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listener ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept t.listener with
          | exception
              Unix.Unix_error
                ( ( Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
              ()
          | fd, _ ->
              locked t.m (fun () ->
                  t.conns <- fd :: t.conns;
                  t.active <- t.active + 1);
              ignore (Thread.create (fun () -> handle t fd) () : Thread.t)));
      accept_loop ()
    end
  in
  accept_loop ();
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  (* Drain: give live sessions [grace_s] to finish, then cut their
     sockets so blocked reads/writes fail fast, and wait for the handler
     threads to unwind. *)
  let deadline = Unix.gettimeofday () +. t.cfg.grace_s in
  let rec drain forced =
    let n = locked t.m (fun () -> t.active) in
    if n > 0 then
      if (not forced) && Unix.gettimeofday () > deadline then begin
        locked t.m (fun () ->
            List.iter
              (fun fd ->
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
              t.conns);
        drain true
      end
      else begin
        Thread.delay 0.02;
        drain forced
      end
  in
  drain false;
  Matprod_util.Pool.shutdown ()

let serve_background t = Thread.create (fun () -> serve t) ()
