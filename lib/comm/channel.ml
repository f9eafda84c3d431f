module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

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

type t = {
  transcript : Transcript.t;
  names : Transcript.party -> string;
  transport : Transport.t;
  mutable wire : wire option;
  mutable journal : Journal.writer option;
  mutable replay : Journal.entry list;
  mutable replayed_messages : int;
  mutable replayed_bytes : int;
}

let transcript t = t.transcript

let close_journal t =
  match t.journal with
  | None -> ()
  | Some w ->
      t.journal <- None;
      Journal.close w

let close t =
  close_journal t;
  t.transport.close ()

let transport t = t.transport

type replay_stats = { replayed_messages : int; replayed_bytes : int }

let replay_stats (t : t) =
  { replayed_messages = t.replayed_messages; replayed_bytes = t.replayed_bytes }

let configure t ?fault ?reliable ?journal ?replay () =
  (match (fault, reliable) with
  | Some fault, _ ->
      t.wire <-
        Some
          {
            fault;
            cfg = Option.value reliable ~default:Reliable.default_config;
            seq = 0;
            data_frames = 0;
            acks = 0;
            retries = 0;
            crc_rejects = 0;
            giveups = 0;
            waited = 0.0;
          }
  | None, Some _ ->
      invalid_arg "Channel.configure: ?reliable requires ?fault"
  | None, None -> ());
  (match replay with
  | Some entries ->
      if Transcript.message_count t.transcript > 0 then
        invalid_arg "Channel.configure: ?replay after messages were sent";
      t.replay <- entries
  | None -> ());
  match journal with Some w -> t.journal <- Some w | None -> ()

let create ?(names = Transcript.party_name) ?transport () =
  let transport =
    match transport with Some tr -> tr | None -> Transport.sim ()
  in
  {
    transcript = Transcript.create ();
    names;
    transport;
    wire = None;
    journal = None;
    replay = [];
    replayed_messages = 0;
    replayed_bytes = 0;
  }

let installed_fault t = Option.map (fun w -> w.fault) t.wire

type stats = {
  data_frames : int;
  acks : int;
  retries : int;
  crc_rejects : int;
  giveups : int;
  waited : float;
  faults : Fault.stats;
}

let zero_stats =
  {
    data_frames = 0;
    acks = 0;
    retries = 0;
    crc_rejects = 0;
    giveups = 0;
    waited = 0.0;
    faults = Fault.zero_stats;
  }

let stats t =
  match t.wire with
  | None -> zero_stats
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
let record_msg t ~from ~label ~bytes =
  let round_before = Transcript.rounds t.transcript in
  Transcript.record t.transcript ~sender:from ~label ~bytes;
  let round = Transcript.rounds t.transcript in
  if Metrics.enabled () then begin
    Metrics.incr c_messages;
    Metrics.in_scope (t.names from) (fun () ->
        Metrics.incr_by (Metrics.counter ~label "bytes_sent") bytes)
  end;
  if Trace.enabled () then begin
    if Metrics.enabled () then
      Metrics.incr_by c_telemetry Trace.context_frame_length;
    let c = Trace.current_context () in
    if round > round_before then
      Trace.event ~name:"channel.round"
        ~attrs:
          [
            ("round", Matprod_obs.Json.Int round);
            ("speaker", Matprod_obs.Json.String (t.names from));
          ]
        ();
    Trace.event ~name:"channel.msg"
      ~attrs:
        ([
           ("sender", Matprod_obs.Json.String (t.names from));
           ("label", Matprod_obs.Json.String label);
           ("bytes", Matprod_obs.Json.Int bytes);
           ("round", Matprod_obs.Json.Int round);
           ("trace", Matprod_obs.Json.String (Trace.hex_id c.Trace.trace_id));
           ("span", Matprod_obs.Json.String (Trace.hex_id c.Trace.span_id));
         ])
      ()
  end

(* Stop-and-wait over the faulty wire: frame, transmit, collect what the
   fault model lets through, ack, retransmit on silence with capped
   exponential backoff. Every frame and ack — including retransmissions —
   is charged through [record_msg], so the transcript prices reliability
   honestly. Returns the payload the receiver accepted; the CRC ensures it
   equals the payload sent. *)
let send_reliable t w ~from ~label payload =
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
              ("label", Matprod_obs.Json.String label);
              ("attempts", Matprod_obs.Json.Int w.cfg.max_attempts);
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
            [
              ("label", Matprod_obs.Json.String label);
              ("attempt", Matprod_obs.Json.Int n);
            ]
          ()
    end;
    (* Data frame: sender -> receiver. *)
    let frame = Reliable.data_frame ~seq payload in
    w.data_frames <- w.data_frames + 1;
    Metrics.incr c_rel_frames;
    record_msg t ~from ~label ~bytes:(String.length frame);
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
      record_msg t ~from:to_party ~label:ack_label ~bytes:(String.length ack);
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
let replay_one t ~from ~label ~wire (e : Journal.entry) rest =
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
  t.replay <- rest;
  t.replayed_messages <- t.replayed_messages + 1;
  t.replayed_bytes <- t.replayed_bytes + String.length wire;
  if Metrics.enabled () then begin
    Metrics.incr c_replayed;
    Metrics.incr_by c_replayed_bytes (String.length wire)
  end;
  if Trace.enabled () then
    Trace.event ~name:"journal.replay"
      ~attrs:
        [
          ("label", Matprod_obs.Json.String label);
          ("bytes", Matprod_obs.Json.Int (String.length wire));
        ]
      ()

let encode codec v = Metrics.timed h_encode (fun () -> Codec.encode codec v)

let send_encoded t ~from ~label codec wire =
  match t.replay with
  | e :: rest ->
      replay_one t ~from ~label ~wire e rest;
      Metrics.timed h_decode (fun () -> Codec.decode codec e.Journal.payload)
  | [] ->
      (match t.wire with
      | Some w -> Fault.check_crash w.fault ~from ~label
      | None -> ());
      let payload =
        match t.wire with
        | Some w when Fault.is_active w.fault ->
            send_reliable t w ~from ~label wire
        | _ ->
            record_msg t ~from ~label ~bytes:(String.length wire);
            wire
      in
      (* The accepted payload crosses the physical backend last: the
         transcript is already charged, so Sim and a faithful Tcp produce
         byte-identical transcripts. Replayed messages never get here —
         resume must not touch the wire. *)
      let payload = t.transport.deliver ~from ~label payload in
      (match t.journal with
      | Some jw -> Journal.append jw ~sender:from ~label ~payload
      | None -> ());
      Metrics.timed h_decode (fun () -> Codec.decode codec payload)

let send t ~from ~label codec v =
  send_encoded t ~from ~label codec (encode codec v)
