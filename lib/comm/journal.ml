module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

type entry = {
  sender : Transcript.party;
  label : string;
  payload : string;
}

let entry_bytes e = String.length e.payload

type t = {
  protocol : string;
  seed : int;
  entries : entry list;
  clean : bool;
  origin_trace : int64 option;
}

exception Replay_mismatch of { label : string; reason : string }

let magic = "MPJ1"
let version = '\x03'
let entry_tag = 'M'
let trace_tag = 'T'

(* --- varints (local: Codec frames whole values, we need raw fields) --- *)

let put_uvarint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let put_zigzag buf n = put_uvarint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

(* Reader over a string; [None] on any malformed field. *)
let get_uvarint s pos =
  let len = String.length s in
  let rec go p shift acc =
    if p >= len || shift > 63 then None
    else
      let b = Char.code s.[p] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Some (acc, p + 1) else go (p + 1) (shift + 7) acc
  in
  go pos 0 0

let get_zigzag s pos =
  match get_uvarint s pos with
  | None -> None
  | Some (u, p) -> Some ((u lsr 1) lxor (-(u land 1)), p)

let get_bytes s pos n =
  if n < 0 || pos + n > String.length s then None
  else Some (String.sub s pos n, pos + n)

(* --- record bodies --------------------------------------------------- *)

let sender_byte = function Transcript.Alice -> '\x00' | Transcript.Bob -> '\x01'

let entry_body e =
  let buf = Buffer.create (String.length e.payload + String.length e.label + 8) in
  Buffer.add_char buf (sender_byte e.sender);
  put_uvarint buf (String.length e.label);
  Buffer.add_string buf e.label;
  put_uvarint buf (String.length e.payload);
  Buffer.add_string buf e.payload;
  Buffer.contents buf

let crc32 e = Reliable.crc32 (entry_body e)

let crc32_of_le crc_bytes =
  Char.code crc_bytes.[0]
  lor (Char.code crc_bytes.[1] lsl 8)
  lor (Char.code crc_bytes.[2] lsl 16)
  lor (Char.code crc_bytes.[3] lsl 24)

let add_crc32_le buf c =
  Buffer.add_char buf (Char.chr (c land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((c lsr 24) land 0xff))

let entry_record e =
  let body = entry_body e in
  let buf = Buffer.create (String.length body + 5) in
  Buffer.add_char buf entry_tag;
  Buffer.add_string buf body;
  add_crc32_le buf (Reliable.crc32 body);
  Buffer.contents buf

(* Trace records are telemetry, not transcript: they let a resumed run
   link its spans back to the crashed run's trace, and replay ignores
   them entirely. Same tag+body+crc framing as entries. *)
let trace_record tid =
  let body = Buffer.create 8 in
  Buffer.add_int64_le body tid;
  let body = Buffer.contents body in
  let buf = Buffer.create 13 in
  Buffer.add_char buf trace_tag;
  Buffer.add_string buf body;
  add_crc32_le buf (Reliable.crc32 body);
  Buffer.contents buf

let header ~protocol ~seed =
  let buf = Buffer.create (String.length protocol + 16) in
  Buffer.add_string buf magic;
  Buffer.add_char buf version;
  put_uvarint buf (String.length protocol);
  Buffer.add_string buf protocol;
  put_zigzag buf seed;
  Buffer.contents buf

let to_bytes ~protocol ~seed entries =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header ~protocol ~seed);
  List.iter (fun e -> Buffer.add_string buf (entry_record e)) entries;
  Buffer.contents buf

(* --- parsing --------------------------------------------------------- *)

let parse_entry s pos =
  (* [None] = this record (and hence the rest of the log) is unusable. *)
  if pos >= String.length s || s.[pos] <> entry_tag then None
  else
    let body_start = pos + 1 in
    match get_uvarint s (body_start + 1) with
    | None -> None
    | Some (label_len, p) -> (
        match get_bytes s p label_len with
        | None -> None
        | Some (label, p) -> (
            match get_uvarint s p with
            | None -> None
            | Some (payload_len, p) -> (
                match get_bytes s p payload_len with
                | None -> None
                | Some (payload, body_end) -> (
                    let sender =
                      match s.[body_start] with
                      | '\x00' -> Some Transcript.Alice
                      | '\x01' -> Some Transcript.Bob
                      | _ -> None
                    in
                    match (sender, get_bytes s body_end 4) with
                    | Some sender, Some (crc_bytes, next) ->
                        let stored = crc32_of_le crc_bytes in
                        let body =
                          String.sub s body_start (body_end - body_start)
                        in
                        if Reliable.crc32 body <> stored then None
                        else Some ({ sender; label; payload }, next)
                    | _ -> None))))

let parse_trace s pos =
  if pos >= String.length s || s.[pos] <> trace_tag then None
  else
    match get_bytes s (pos + 1) 8 with
    | None -> None
    | Some (body, p) -> (
        match get_bytes s p 4 with
        | None -> None
        | Some (crc_bytes, next) ->
            if Reliable.crc32 body <> crc32_of_le crc_bytes then None
            else Some (String.get_int64_le body 0, next))

let of_bytes s =
  let mlen = String.length magic in
  if String.length s < mlen + 1 || String.sub s 0 mlen <> magic then
    Error "Journal: bad magic"
  else if s.[mlen] <> version then Error "Journal: unsupported version"
  else
    match get_uvarint s (mlen + 1) with
    | None -> Error "Journal: truncated header"
    | Some (plen, p) -> (
        match get_bytes s p plen with
        | None -> Error "Journal: truncated protocol id"
        | Some (protocol, p) -> (
            match get_zigzag s p with
            | None -> Error "Journal: truncated seed"
            | Some (seed, p) ->
                let rec records acc origin pos =
                  if pos = String.length s then (List.rev acc, origin, true)
                  else if s.[pos] = trace_tag then
                    match parse_trace s pos with
                    | Some (tid, next) ->
                        let origin =
                          match origin with None -> Some tid | some -> some
                        in
                        records acc origin next
                    | None -> (List.rev acc, origin, false)
                  else
                    match parse_entry s pos with
                    | Some (e, next) -> records (e :: acc) origin next
                    | None -> (List.rev acc, origin, false)
                in
                let entries, origin_trace, clean = records [] None p in
                Ok { protocol; seed; entries; clean; origin_trace }))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_bytes s
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error "Journal: unreadable file"

(* --- appending ------------------------------------------------------- *)

type writer = { oc : out_channel; mutable closed : bool }

let c_appends = Metrics.counter "journal_appends"
let c_append_bytes = Metrics.counter "journal_append_bytes"
let c_telemetry = Metrics.counter "telemetry_bytes"

(* The trace record is out-of-band metadata: its bytes count only toward
   telemetry_bytes, never toward the transcript or journal entry stats. *)
let put_trace_record oc tid =
  let record = trace_record tid in
  output_string oc record;
  Metrics.incr_by c_telemetry (String.length record)

let create ~path ~protocol ~seed =
  let oc = open_out_bin path in
  output_string oc (header ~protocol ~seed);
  if Trace.enabled () then put_trace_record oc (Trace.trace_id ());
  flush oc;
  { oc; closed = false }

let reopen ~path t =
  let oc = open_out_bin path in
  output_string oc (header ~protocol:t.protocol ~seed:t.seed);
  (match t.origin_trace with
  | Some tid -> put_trace_record oc tid
  | None -> ());
  List.iter (fun e -> output_string oc (entry_record e)) t.entries;
  flush oc;
  { oc; closed = false }

let append w ~sender ~label ~payload =
  if w.closed then invalid_arg "Journal.append: writer closed";
  let record = entry_record { sender; label; payload } in
  output_string w.oc record;
  (* Flush per record: an in-process "crash" (exception) or a real one may
     strike at any point, and recovery must see every completed message. *)
  flush w.oc;
  if Metrics.enabled () then begin
    Metrics.incr c_appends;
    Metrics.incr_by c_append_bytes (String.length record)
  end

let close w =
  if not w.closed then begin
    w.closed <- true;
    close_out_noerr w.oc
  end
