module Prng = Matprod_util.Prng
module Obs = Matprod_obs
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

(* The ARQ state of a wire armed with a fault model. *)
type wire = {
  fault : Fault.t;
  cfg : Reliable.config;
  mutable seq : int;
  mutable data_frames : int;
  mutable acks : int;
  mutable retries : int;
  mutable crc_rejects : int;
  mutable giveups : int;
  mutable waited : float;
}

(* The logical wire between the two parties. Mutable and held by
   reference, so every copy of a context ({ ctx with ... }) speaks on,
   charges and journals to the same wire. *)
type chan = {
  transcript : Transcript.t;
  names : Transcript.party -> string;
  transport : Transport.t;
  mutable wire : wire option;
  mutable journal : Journal.writer option;
  mutable replay : Journal.entry list;
  mutable replayed_messages : int;
  mutable replayed_bytes : int;
}

type t = {
  chan : chan;
  seed : int;
  public : Prng.t;
  alice : Prng.t;
  bob : Prng.t;
  turn : Transcript.party -> unit;
}

let create ?(names = Transcript.party_name) ?transport ~seed () =
  let transport =
    match transport with Some tr -> tr | None -> Transport.sim ()
  in
  let root = Prng.create seed in
  let public = Prng.split root in
  let alice = Prng.split root in
  let bob = Prng.split root in
  {
    chan =
      {
        transcript = Transcript.create ();
        names;
        transport;
        wire = None;
        journal = None;
        replay = [];
        replayed_messages = 0;
        replayed_bytes = 0;
      };
    seed;
    public;
    alice;
    bob;
    turn = ignore;
  }

let install_wire t ~fault ?(reliable = Reliable.default_config) () =
  t.chan.wire <-
    Some
      {
        fault;
        cfg = reliable;
        seq = 0;
        data_frames = 0;
        acks = 0;
        retries = 0;
        crc_rejects = 0;
        giveups = 0;
        waited = 0.0;
      }

let installed_fault t = Option.map (fun w -> w.fault) t.chan.wire
let transcript t = t.chan.transcript

type stats = {
  data_frames : int;
  acks : int;
  retries : int;
  crc_rejects : int;
  giveups : int;
  waited : float;
  faults : Fault.stats;
}

let wire_stats t =
  match t.chan.wire with
  | None ->
      {
        data_frames = 0;
        acks = 0;
        retries = 0;
        crc_rejects = 0;
        giveups = 0;
        waited = 0.0;
        faults = Fault.zero_stats;
      }
  | Some w ->
      {
        data_frames = w.data_frames;
        acks = w.acks;
        retries = w.retries;
        crc_rejects = w.crc_rejects;
        giveups = w.giveups;
        waited = w.waited;
        faults = Fault.stats w.fault;
      }

let c_messages = Metrics.counter "messages_sent"
let c_telemetry = Metrics.counter "telemetry_bytes"
let h_encode = Metrics.histogram "codec_encode_ns"
let h_decode = Metrics.histogram "codec_decode_ns"
let c_rel_frames = Metrics.counter "reliable_frames"
let c_rel_acks = Metrics.counter "reliable_acks"
let c_rel_retries = Metrics.counter "reliable_retries"
let c_rel_crc = Metrics.counter "reliable_crc_rejects"
let c_rel_giveups = Metrics.counter "reliable_giveups"

(* Charge one physical transmission to the transcript, metrics, and trace —
   the accounting path every message (and every frame) goes through.

   When tracing is on, every transmission also carries the active span
   context as an out-of-band frame (trace id + span id). Those bytes are
   telemetry riding alongside the protocol: they count only toward the
   telemetry_bytes counter, never toward transcript bits/rounds, so byte-
   identity galleries hold with tracing on. *)
let record_msg c ~from ~label ~bytes =
  let round_before = Transcript.rounds c.transcript in
  Transcript.record c.transcript ~sender:from ~label ~bytes;
  let round = Transcript.rounds c.transcript in
  if Metrics.enabled () then begin
    Metrics.incr c_messages;
    Metrics.in_scope (c.names from) (fun () ->
        Metrics.incr_by (Metrics.counter ~label "bytes_sent") bytes)
  end;
  if Trace.enabled () then begin
    if Metrics.enabled () then
      Metrics.incr_by c_telemetry Trace.context_frame_length;
    let tc = Trace.current_context () in
    if round > round_before then
      Trace.event ~name:"channel.round"
        ~attrs:
          [
            ("round", Obs.Json.Int round);
            ("speaker", Obs.Json.String (c.names from));
          ]
        ();
    Trace.event ~name:"channel.msg"
      ~attrs:
        [
          ("sender", Obs.Json.String (c.names from));
          ("label", Obs.Json.String label);
          ("bytes", Obs.Json.Int bytes);
          ("round", Obs.Json.Int round);
          ("trace", Obs.Json.String (Trace.hex_id tc.Trace.trace_id));
          ("span", Obs.Json.String (Trace.hex_id tc.Trace.span_id));
        ]
      ()
  end

(* Stop-and-wait over the faulty wire: frame, transmit, collect what the
   fault model lets through, ack, retransmit on silence with capped
   exponential backoff. Every frame and ack — including retransmissions —
   is charged through [record_msg], so the transcript prices reliability
   honestly. Returns the payload the receiver accepted; the CRC ensures it
   equals the payload sent. *)
let send_reliable c w ~from ~label payload =
  let seq = w.seq in
  w.seq <- seq + 1;
  let to_party = Transcript.other from in
  let ack_label = label ^ "/ack" in
  let received = ref None in
  let rec attempt n timeout =
    if n > w.cfg.max_attempts then begin
      w.giveups <- w.giveups + 1;
      Metrics.incr c_rel_giveups;
      if Trace.enabled () then
        Trace.event ~name:"reliable.giveup"
          ~attrs:
            [
              ("label", Obs.Json.String label);
              ("attempts", Obs.Json.Int w.cfg.max_attempts);
            ]
          ();
      raise (Reliable.Link_failure { label; attempts = w.cfg.max_attempts })
    end;
    if n > 1 then begin
      w.retries <- w.retries + 1;
      Metrics.incr c_rel_retries;
      if Trace.enabled () then
        Trace.event ~name:"reliable.retry"
          ~attrs:
            [ ("label", Obs.Json.String label); ("attempt", Obs.Json.Int n) ]
          ()
    end;
    (* Data frame: sender -> receiver. *)
    let frame = Reliable.data_frame ~seq payload in
    w.data_frames <- w.data_frames + 1;
    Metrics.incr c_rel_frames;
    record_msg c ~from ~label ~bytes:(String.length frame);
    let deliveries = Fault.apply w.fault ~from ~label frame in
    let arrived = ref false in
    List.iter
      (fun d ->
        if d.Fault.delay <= timeout then
          match Reliable.parse d.Fault.bytes with
          | Ok (Reliable.Data, s, p) when s = seq ->
              arrived := true;
              if !received = None then received := Some p
          | Ok _ -> () (* stale or duplicate sequence number *)
          | Error _ ->
              w.crc_rejects <- w.crc_rejects + 1;
              Metrics.incr c_rel_crc)
      deliveries;
    if not !arrived then begin
      (* Silence: wait out the timeout, back off, retransmit. *)
      w.waited <- w.waited +. timeout;
      attempt (n + 1) (Reliable.next_timeout timeout)
    end
    else begin
      (* Receiver acks (first arrival or duplicate alike); the ack crosses
         the same faulty wire. *)
      let ack = Reliable.ack_frame ~seq in
      w.acks <- w.acks + 1;
      Metrics.incr c_rel_acks;
      record_msg c ~from:to_party ~label:ack_label ~bytes:(String.length ack);
      let ack_deliveries =
        Fault.apply w.fault ~from:to_party ~label:ack_label ack
      in
      let ack_ok =
        List.exists
          (fun d ->
            d.Fault.delay <= timeout
            &&
            match Reliable.parse d.Fault.bytes with
            | Ok (Reliable.Ack, s, _) -> s = seq
            | Ok _ -> false
            | Error _ ->
                w.crc_rejects <- w.crc_rejects + 1;
                Metrics.incr c_rel_crc;
                false)
          ack_deliveries
      in
      if ack_ok then
        match !received with Some p -> p | None -> assert false
      else begin
        w.waited <- w.waited +. timeout;
        attempt (n + 1) (Reliable.next_timeout timeout)
      end
    end
  in
  attempt 1 w.cfg.base_timeout

let c_replayed = Metrics.counter "journal_replayed_messages"
let c_replayed_bytes = Metrics.counter "journal_replayed_bytes"

(* Serve one send from the journal: verify the determinism invariant (the
   re-run must produce exactly the journaled message) and charge nothing. *)
let replay_one c ~from ~label ~wire (e : Journal.entry) rest =
  let mismatch reason = raise (Journal.Replay_mismatch { label; reason }) in
  if e.Journal.sender <> from then
    mismatch
      (Printf.sprintf "journal has %s speaking, run has %s"
         (Transcript.party_name e.Journal.sender)
         (Transcript.party_name from));
  if e.Journal.label <> label then
    mismatch (Printf.sprintf "journal records label %S" e.Journal.label);
  if e.Journal.payload <> wire then
    mismatch
      (Printf.sprintf "payload differs from journal (%d vs %d bytes)"
         (String.length wire)
         (String.length e.Journal.payload));
  c.replay <- rest;
  c.replayed_messages <- c.replayed_messages + 1;
  c.replayed_bytes <- c.replayed_bytes + String.length wire;
  if Metrics.enabled () then begin
    Metrics.incr c_replayed;
    Metrics.incr_by c_replayed_bytes (String.length wire)
  end;
  if Trace.enabled () then
    Trace.event ~name:"journal.replay"
      ~attrs:
        [
          ("label", Obs.Json.String label);
          ("bytes", Obs.Json.Int (String.length wire));
        ]
      ()

let encode codec v = Metrics.timed h_encode (fun () -> Codec.encode codec v)

(* Deliver bytes already encoded with [codec] and return the receiver's
   decoded copy; the speaking turn has already been taken. *)
let send_encoded c ~from ~label codec wire =
  match c.replay with
  | e :: rest ->
      replay_one c ~from ~label ~wire e rest;
      Metrics.timed h_decode (fun () -> Codec.decode codec e.Journal.payload)
  | [] ->
      (match c.wire with
      | Some w -> Fault.check_crash w.fault ~from ~label
      | None -> ());
      let payload =
        match c.wire with
        | Some w when Fault.is_active w.fault ->
            send_reliable c w ~from ~label wire
        | _ ->
            record_msg c ~from ~label ~bytes:(String.length wire);
            wire
      in
      (* The accepted payload crosses the physical backend last: the
         transcript is already charged, so Sim and a faithful Tcp produce
         byte-identical transcripts. Replayed messages never get here —
         resume must not touch the wire. *)
      let payload = c.transport.deliver ~from ~label payload in
      (match c.journal with
      | Some jw -> Journal.append jw ~sender:from ~label ~payload
      | None -> ());
      Metrics.timed h_decode (fun () -> Codec.decode codec payload)

let send t ~from ~label codec v =
  t.turn from;
  send_encoded t.chan ~from ~label codec (encode codec v)

let a2b t ~label codec v = send t ~from:Transcript.Alice ~label codec v
let b2a t ~label codec v = send t ~from:Transcript.Bob ~label codec v

let b2a_encoded t ~label codec wire =
  t.turn Transcript.Bob;
  send_encoded t.chan ~from:Transcript.Bob ~label codec wire

(* Flush and close the journal writer, if any, and release the transport's
   OS resources. *)
let close t =
  Option.iter Journal.close t.chan.journal;
  t.chan.transport.close ()

type 'r run = {
  output : 'r;
  bits : int;
  rounds : int;
  transcript : Transcript.t;
  replayed_messages : int;
  replayed_bits : int;
}

let c_runs = Metrics.counter "ctx_runs"
let c_bits = Metrics.counter "bits_sent_total"
let c_rounds = Metrics.counter "rounds_total"
let h_run = Metrics.histogram "ctx_run_ns"

let run_prepared ?names ?transport ~seed ~prepare f =
  let t = create ?names ?transport ~seed () in
  Fun.protect
    ~finally:(fun () -> close t)
    (fun () ->
      (* with_trace wraps prepare too: a journal created there must stamp
         this run's trace id as its origin. *)
      let output =
        Trace.with_trace ~seed (fun () ->
            prepare t;
            Trace.with_span ~name:"ctx.run"
              ~attrs:[ ("seed", Obs.Json.Int seed) ]
              (fun () -> Metrics.timed h_run (fun () -> f t)))
      in
      let tr = t.chan.transcript in
      let bits = Transcript.total_bits tr and rounds = Transcript.rounds tr in
      if Metrics.enabled () then begin
        Metrics.incr c_runs;
        Metrics.incr_by c_bits bits;
        Metrics.incr_by c_rounds rounds
      end;
      {
        output;
        bits;
        rounds;
        transcript = tr;
        replayed_messages = t.chan.replayed_messages;
        replayed_bits = 8 * t.chan.replayed_bytes;
      })

let run ?names ?transport ~seed f =
  run_prepared ?names ?transport ~seed ~prepare:ignore f

let run_journaled ?names ?transport ~seed ~journal ~protocol f =
  run_prepared ?names ?transport ~seed
    ~prepare:(fun t ->
      t.chan.journal <- Some (Journal.create ~path:journal ~protocol ~seed))
    f

let resume ?names ?transport ~seed ?path ~journal f =
  run_prepared ?names ?transport ~seed
    ~prepare:(fun t ->
      if journal.Journal.seed <> seed then
        invalid_arg
          (Printf.sprintf "Ctx.resume: journal seed %d <> run seed %d"
             journal.Journal.seed seed);
      (* Cross-run trace link: the journal remembers which trace wrote it. *)
      (match journal.Journal.origin_trace with
      | Some tid when Trace.enabled () ->
          Trace.event ~name:"journal.resume"
            ~attrs:
              [
                ("origin_trace", Obs.Json.String (Trace.hex_id tid));
                ("entries", Obs.Json.Int (List.length journal.Journal.entries));
              ]
            ()
      | _ -> ());
      t.chan.replay <- journal.Journal.entries;
      Option.iter
        (fun path -> t.chan.journal <- Some (Journal.reopen ~path journal))
        path)
    f
