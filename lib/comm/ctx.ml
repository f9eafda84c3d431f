module Prng = Matprod_util.Prng
module Obs = Matprod_obs

type t = {
  chan : Channel.t;
  seed : int;
  public : Prng.t;
  alice : Prng.t;
  bob : Prng.t;
  turn : Transcript.party -> unit;
}

let make ?names ?transport ~seed () =
  let root = Prng.create seed in
  let public = Prng.split root in
  let alice = Prng.split root in
  let bob = Prng.split root in
  {
    chan = Channel.create ?names ?transport ();
    seed;
    public;
    alice;
    bob;
    turn = ignore;
  }

let create ?transport ~seed () = make ?transport ~seed ()

let install_wire t ~fault ?reliable () =
  Channel.configure t.chan ~fault ?reliable ()

let wire_stats t = Channel.stats t.chan
let send t ~from ~label codec v =
  t.turn from;
  Channel.send t.chan ~from ~label codec v

let a2b t ~label codec v = send t ~from:Transcript.Alice ~label codec v
let b2a t ~label codec v = send t ~from:Transcript.Bob ~label codec v

let b2a_encoded t ~label codec wire =
  t.turn Transcript.Bob;
  Channel.send_encoded t.chan ~from:Transcript.Bob ~label codec wire
let transcript t = Channel.transcript t.chan
let installed_fault t = Channel.installed_fault t.chan

let resume_from t ?path journal =
  if journal.Journal.seed <> t.seed then
    invalid_arg
      (Printf.sprintf "Ctx.resume: journal seed %d <> run seed %d"
         journal.Journal.seed t.seed);
  (* Cross-run trace link: the journal remembers which trace wrote it. *)
  (match journal.Journal.origin_trace with
  | Some tid when Obs.Trace.enabled () ->
      Obs.Trace.event ~name:"journal.resume"
        ~attrs:
          [
            ("origin_trace", Obs.Json.String (Obs.Trace.hex_id tid));
            ("entries", Obs.Json.Int (List.length journal.Journal.entries));
          ]
        ()
  | _ -> ());
  Channel.configure t.chan ~replay:journal.Journal.entries ();
  match path with
  | None -> ()
  | Some path ->
      Channel.configure t.chan ~journal:(Journal.reopen ~path journal) ()

let close t = Channel.close t.chan
let transport t = Channel.transport t.chan
let replay_stats t = Channel.replay_stats t.chan

type 'r run = {
  output : 'r;
  bits : int;
  rounds : int;
  transcript : Transcript.t;
  replayed_messages : int;
  replayed_bits : int;
}

let c_runs = Obs.Metrics.counter "ctx_runs"
let c_bits = Obs.Metrics.counter "bits_sent_total"
let c_rounds = Obs.Metrics.counter "rounds_total"
let h_run = Obs.Metrics.histogram "ctx_run_ns"

let run_prepared ?names ?transport ~seed ~prepare f =
  let t = make ?names ?transport ~seed () in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      (* with_trace wraps prepare too: a journal created there must stamp
         this run's trace id as its origin. *)
      let output =
        Obs.Trace.with_trace ~seed (fun () ->
            prepare t;
            Obs.Trace.with_span ~name:"ctx.run"
              ~attrs:[ ("seed", Obs.Json.Int seed) ]
              (fun () -> Obs.Metrics.timed h_run (fun () -> f t)))
      in
      let tr = transcript t in
      let bits = Transcript.total_bits tr and rounds = Transcript.rounds tr in
      if Obs.Metrics.enabled () then begin
        Obs.Metrics.incr c_runs;
        Obs.Metrics.incr_by c_bits bits;
        Obs.Metrics.incr_by c_rounds rounds
      end;
      let rs = replay_stats t in
      {
        output;
        bits;
        rounds;
        transcript = tr;
        replayed_messages = rs.Channel.replayed_messages;
        replayed_bits = 8 * rs.Channel.replayed_bytes;
      })

let run ?names ?transport ~seed f =
  run_prepared ?names ?transport ~seed ~prepare:ignore f

let run_journaled ?names ?transport ~seed ~journal ~protocol f =
  run_prepared ?names ?transport ~seed
    ~prepare:(fun t ->
      Channel.configure t.chan
        ~journal:(Journal.create ~path:journal ~protocol ~seed)
        ())
    f

let resume ?names ?transport ~seed ?path ~journal f =
  run_prepared ?names ?transport ~seed
    ~prepare:(fun t -> resume_from t ?path journal)
    f
