(* Framing and retransmission policy for the unreliable wire. The framing
   is deliberately minimal: enough redundancy (CRC32) to reject corrupted
   or truncated frames with overwhelming probability, plus a sequence
   number so duplicates and stale retransmissions are recognised. The
   retry loop itself lives in Channel.send, which owns the transcript. *)

exception Link_failure of { label : string; attempts : int }

type config = { max_attempts : int; base_timeout : float }

let default_config = { max_attempts = 16; base_timeout = 0.05 }
let max_timeout = 1.6

let config ?(max_attempts = default_config.max_attempts)
    ?(base_timeout = default_config.base_timeout) () =
  if max_attempts < 1 then invalid_arg "Reliable.config: max_attempts >= 1";
  if not (base_timeout > 0.0 && max_timeout >= base_timeout) then
    invalid_arg "Reliable.config: need 0 < base_timeout <= max_timeout";
  { max_attempts; base_timeout }

let next_timeout t = Float.min max_timeout (2.0 *. t)

(* --- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* --- frames ----------------------------------------------------------- *)

type kind = Data | Ack

(* frame := kind byte ++ uvarint seq ++ uvarint |payload| ++ payload
            ++ 4-byte little-endian CRC32 of everything before it. *)

let enc_uvarint b n =
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let frame ~kind ~seq payload =
  let b = Buffer.create (String.length payload + 12) in
  Buffer.add_char b (match kind with Data -> '\000' | Ack -> '\001');
  enc_uvarint b seq;
  enc_uvarint b (String.length payload);
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  let crc = crc32 body in
  let b = Buffer.create (String.length body + 4) in
  Buffer.add_string b body;
  for k = 0 to 3 do
    Buffer.add_char b (Char.chr ((crc lsr (8 * k)) land 0xff))
  done;
  Buffer.contents b

let data_frame ~seq payload = frame ~kind:Data ~seq payload
let ack_frame ~seq = frame ~kind:Ack ~seq ""

(* Parsing never raises: a mangled frame is just [Error]. *)
let parse s =
  let len = String.length s in
  if len < 5 then Error "frame too short"
  else begin
    let body = String.sub s 0 (len - 4) in
    let stored = ref 0 in
    for k = 3 downto 0 do
      stored := (!stored lsl 8) lor Char.code s.[len - 4 + k]
    done;
    if crc32 body <> !stored then Error "crc mismatch"
    else begin
      let pos = ref 1 in
      let read_uvarint () =
        let rec go shift acc =
          if !pos >= String.length body then None
          else begin
            let byte = Char.code body.[!pos] in
            incr pos;
            let acc = acc lor ((byte land 0x7f) lsl shift) in
            if byte land 0x80 = 0 then if acc < 0 then None else Some acc
            else if shift >= 63 then None
            else go (shift + 7) acc
          end
        in
        go 0 0
      in
      let kind =
        match body.[0] with
        | '\000' -> Some Data
        | '\001' -> Some Ack
        | _ -> None
      in
      match (kind, read_uvarint (), read_uvarint ()) with
      | Some kind, Some seq, Some plen
        when plen = String.length body - !pos ->
          Ok (kind, seq, String.sub body !pos plen)
      | _ -> Error "malformed frame"
    end
  end
