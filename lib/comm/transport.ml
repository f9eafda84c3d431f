module Trace = Matprod_obs.Trace

exception Frame_error of string

let max_frame_bytes = 1 lsl 26 (* 64 MiB: far above any protocol message *)

let fail fmt = Printf.ksprintf (fun s -> raise (Frame_error s)) fmt

(* Frame layout on the wire:
     len   : 4 bytes, big-endian — length of everything after these 4 bytes
     flags : 1 byte — bit 0: an 18-byte telemetry context frame follows
     ctx   : Trace.context_frame_length bytes, iff flags bit 0
     payload
     crc   : 4 bytes, big-endian — CRC32 (IEEE) over flags..payload *)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame payload =
  let ctx = if Trace.enabled () then Trace.context_frame () else "" in
  let flags = if ctx = "" then 0 else 1 in
  let body = Buffer.create (String.length payload + String.length ctx + 1) in
  Buffer.add_char body (Char.chr flags);
  Buffer.add_string body ctx;
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  let len = String.length body + 4 in
  if len > max_frame_bytes then
    fail "frame: payload of %d bytes exceeds max_frame_bytes"
      (String.length payload);
  let out = Buffer.create (len + 4) in
  put_u32 out len;
  Buffer.add_string out body;
  put_u32 out (Reliable.crc32 body);
  Buffer.contents out

(* [body] is everything after the length prefix: flags..payload ++ crc. *)
let decode_body body =
  let n = String.length body in
  if n < 5 then fail "frame: body of %d bytes is shorter than flags+crc" n;
  let checked = String.sub body 0 (n - 4) in
  let crc = get_u32 body (n - 4) in
  if Reliable.crc32 checked <> crc then fail "frame: CRC mismatch";
  let flags = Char.code checked.[0] in
  if flags land lnot 1 <> 0 then fail "frame: unknown flags 0x%02x" flags;
  let ctx_len = if flags land 1 = 1 then Trace.context_frame_length else 0 in
  if String.length checked < 1 + ctx_len then
    fail "frame: truncated telemetry context";
  let ctx =
    if ctx_len = 0 then None else Some (String.sub checked 1 ctx_len)
  in
  (String.sub checked (1 + ctx_len) (String.length checked - 1 - ctx_len), ctx)

let unframe s =
  if String.length s < 4 then fail "frame: missing length prefix";
  let len = get_u32 s 0 in
  if len > max_frame_bytes then fail "frame: declared length %d too large" len;
  if String.length s <> 4 + len then
    fail "frame: declared length %d, have %d bytes" len (String.length s - 4);
  decode_body (String.sub s 4 len)

(* Blocking, full-buffer socket I/O for the serve daemon. *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  write_all fd (Bytes.unsafe_of_string f) 0 (String.length f)

let read_exact fd len ~what =
  let b = Bytes.create len in
  let rec go off =
    if off < len then begin
      let n = Unix.read fd b off (len - off) in
      if n = 0 then
        if off = 0 && what = `Header then raise End_of_file
        else fail "frame: peer closed mid-frame";
      go (off + n)
    end
  in
  go 0;
  Bytes.unsafe_to_string b

let read_frame_ctx fd =
  let hdr = read_exact fd 4 ~what:`Header in
  let len = get_u32 hdr 0 in
  if len > max_frame_bytes then fail "frame: declared length %d too large" len;
  decode_body (read_exact fd len ~what:`Body)

let read_frame fd = fst (read_frame_ctx fd)

(* Backends *)

type t = {
  name : string;
  deliver : from:Transcript.party -> label:string -> string -> string;
  close : unit -> unit;
}

let sim () =
  {
    name = "sim";
    deliver = (fun ~from:_ ~label:_ payload -> payload);
    close = ignore;
  }

let chunk = 65536

(* Write [payload]'s frame on [wfd] and read it back on [rfd], interleaved
   under [select] so a payload larger than the kernel socket buffers
   cannot deadlock the single thread driving both ends. *)
let pump ~wfd ~rfd ~label payload =
  let out = frame payload in
  let out_b = Bytes.unsafe_of_string out in
  let total = Bytes.length out_b in
  let sent = ref 0 in
  let acc = Buffer.create (total + 16) in
  let inbuf = Bytes.create chunk in
  (* The frame is complete once we hold the 4-byte prefix plus the
     declared body length. *)
  let missing () =
    let have = Buffer.length acc in
    if have < 4 then 4 - have
    else begin
      let len = get_u32 (Buffer.sub acc 0 4) 0 in
      if len > max_frame_bytes then
        fail "frame: declared length %d too large" len;
      4 + len - have
    end
  in
  let rec go () =
    let need = missing () in
    let writing = !sent < total in
    if need > 0 || writing then begin
      let rl = if need > 0 then [ rfd ] else [] in
      let wl = if writing then [ wfd ] else [] in
      let r, w, _ = Unix.select rl wl [] 10.0 in
      if r = [] && w = [] then
        fail "tcp: delivery stalled for 10s (label %s)" label;
      if w <> [] then begin
        let n = Unix.write wfd out_b !sent (min chunk (total - !sent)) in
        sent := !sent + n
      end;
      if r <> [] then begin
        let n = Unix.read rfd inbuf 0 chunk in
        if n = 0 then fail "tcp: peer closed mid-frame (label %s)" label;
        Buffer.add_subbytes acc inbuf 0 n
      end;
      go ()
    end
  in
  go ();
  fst (unframe (Buffer.contents acc))

let tcp_loopback () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let a =
    try
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen listener 1;
      let addr = Unix.getsockname listener in
      let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.set_nonblock a;
         (try Unix.connect a addr with
         | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> ());
         a
       with e ->
         Unix.close a;
         raise e)
    with e ->
      Unix.close listener;
      raise e
  in
  let b, _ = Unix.accept listener in
  Unix.close listener;
  (* Loopback connects resolve immediately once accepted; wait for
     writability to be safe, then restore blocking mode. *)
  (match Unix.select [] [ a ] [] 5.0 with
  | _, [ _ ], _ -> ()
  | _ ->
      Unix.close a;
      Unix.close b;
      fail "tcp: loopback connect did not complete");
  Unix.clear_nonblock a;
  Unix.setsockopt a Unix.TCP_NODELAY true;
  Unix.setsockopt b Unix.TCP_NODELAY true;
  (* Both ends live in this process: Alice holds [a], Bob holds [b]. *)
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ()
    end
  in
  let deliver ~from ~label payload =
    if !closed then fail "tcp: deliver on closed transport (label %s)" label;
    match from with
    | Transcript.Alice -> pump ~wfd:a ~rfd:b ~label payload
    | Transcript.Bob -> pump ~wfd:b ~rfd:a ~label payload
  in
  { name = "tcp"; deliver; close }

type factory = unit -> t
