type 'a t = {
  enc : Buffer.t -> 'a -> unit;
  dec : string -> int ref -> 'a;
}

exception Decode_error of string

let dec_fail msg = raise (Decode_error msg)

(* Dense-array decoders (counter_array) must allocate the logical length,
   which a sparse encoding legitimately makes much larger than the wire
   bytes. This cap bounds what a corrupted or adversarial length prefix can
   make us allocate: 2^24 words ≈ 128 MB, far above any sketch state the
   library ships. *)
let max_dense_length = 1 lsl 24

let encode c v =
  let b = Buffer.create 64 in
  c.enc b v;
  Buffer.contents b

let decode c s =
  let pos = ref 0 in
  let v = c.dec s pos in
  if !pos <> String.length s then dec_fail "Codec.decode: trailing bytes";
  v

let encoded_bytes c v = String.length (encode c v)

let read_byte s pos =
  if !pos >= String.length s then dec_fail "Codec: truncated input";
  let b = Char.code s.[!pos] in
  incr pos;
  b

(* LEB128 varint over the unsigned 63-bit interpretation of the int: [lsr]
   is a logical shift, so negative bit patterns (from zigzag of huge ints)
   encode and terminate correctly. *)
let enc_varbits b n =
  let rec go n =
    if n >= 0 && n < 0x80 then Buffer.add_char b (Char.chr n)
    else (
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7))
  in
  go n

let enc_uvarint b n =
  if n < 0 then invalid_arg "Codec.uint: negative";
  enc_varbits b n

let dec_uvarint s pos =
  let rec go shift acc =
    let byte = read_byte s pos in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then acc
    else if shift >= 63 then dec_fail "Codec: varint too long"
    else go (shift + 7) acc
  in
  go 0 0

(* A 9-byte varint can set bit 63 and come out negative; every unsigned
   context (values, lengths, deltas) must reject that rather than feed a
   negative into [Array.make] or index arithmetic. *)
let dec_unonneg s pos =
  let n = dec_uvarint s pos in
  if n < 0 then dec_fail "Codec: negative unsigned varint";
  n

(* Length prefix for a sequence whose elements each occupy at least one
   byte: a well-formed count can never exceed the bytes left, so cap the
   [Array.init]/[List.init] allocation by the remaining input. *)
let dec_count s pos what =
  let n = dec_unonneg s pos in
  if n > String.length s - !pos then
    dec_fail (what ^ ": length prefix exceeds remaining input");
  n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (-(z land 1))

let unit = { enc = (fun _ () -> ()); dec = (fun _ _ -> ()) }

let bool =
  {
    enc = (fun b v -> Buffer.add_char b (if v then '\001' else '\000'));
    dec =
      (fun s pos ->
        match read_byte s pos with
        | 0 -> false
        | 1 -> true
        | _ -> dec_fail "Codec.bool: bad byte");
  }

let uint = { enc = enc_uvarint; dec = dec_unonneg }

let int =
  {
    enc = (fun b n -> enc_varbits b (zigzag n));
    dec = (fun s pos -> unzigzag (dec_uvarint s pos));
  }

let enc_fixed64 b i64 =
  for k = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical i64 (8 * k)) land 0xff))
  done

let dec_fixed64 s pos =
  let acc = ref 0L in
  for k = 0 to 7 do
    let byte = read_byte s pos in
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int byte) (8 * k))
  done;
  !acc

let float64 =
  {
    enc = (fun b f -> enc_fixed64 b (Int64.bits_of_float f));
    dec = (fun s pos -> Int64.float_of_bits (dec_fixed64 s pos));
  }

let float32 =
  {
    enc =
      (fun b f ->
        let i32 = Int32.bits_of_float f in
        for k = 0 to 3 do
          Buffer.add_char b
            (Char.chr (Int32.to_int (Int32.shift_right_logical i32 (8 * k)) land 0xff))
        done);
    dec =
      (fun s pos ->
        let acc = ref 0l in
        for k = 0 to 3 do
          let byte = read_byte s pos in
          acc := Int32.logor !acc (Int32.shift_left (Int32.of_int byte) (8 * k))
        done;
        Int32.float_of_bits !acc);
  }

let pair ca cb =
  {
    enc =
      (fun b (x, y) ->
        ca.enc b x;
        cb.enc b y);
    dec =
      (fun s pos ->
        let x = ca.dec s pos in
        let y = cb.dec s pos in
        (x, y));
  }

let triple ca cb cc =
  {
    enc =
      (fun b (x, y, z) ->
        ca.enc b x;
        cb.enc b y;
        cc.enc b z);
    dec =
      (fun s pos ->
        let x = ca.dec s pos in
        let y = cb.dec s pos in
        let z = cc.dec s pos in
        (x, y, z));
  }

let option c =
  {
    enc =
      (fun b -> function
        | None -> Buffer.add_char b '\000'
        | Some v ->
            Buffer.add_char b '\001';
            c.enc b v);
    dec =
      (fun s pos ->
        match read_byte s pos with
        | 0 -> None
        | 1 -> Some (c.dec s pos)
        | _ -> dec_fail "Codec.option: bad tag");
  }

let array c =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        Array.iter (c.enc b) a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.array" in
        Array.init n (fun _ -> c.dec s pos));
  }

let list c =
  {
    enc =
      (fun b l ->
        enc_uvarint b (List.length l);
        List.iter (c.enc b) l);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.list" in
        List.init n (fun _ -> c.dec s pos));
  }

let int_array = array int

(* The same bytes as [array uint], written as one loop: dense sketch
   states are mostly zero counters, and a value below 0x80 is its own
   one-byte varint, so it skips the varint machinery on both sides. Any
   other byte falls back to [dec_unonneg], which keeps every error. *)
let uint_array =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        Array.iter
          (fun v ->
            if v >= 0 && v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
            else enc_uvarint b v)
          a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.array" in
        let a = Array.make n 0 in
        let len = String.length s in
        for i = 0 to n - 1 do
          let p = !pos in
          if p < len && String.unsafe_get s p < '\x80' then begin
            Array.unsafe_set a i (Char.code (String.unsafe_get s p));
            pos := p + 1
          end
          else Array.unsafe_set a i (dec_unonneg s pos)
        done;
        a);
  }

let sorted_int_array =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        let prev = ref (-1) in
        Array.iter
          (fun x ->
            if x <= !prev then
              invalid_arg "Codec.sorted_int_array: not strictly increasing";
            enc_uvarint b (x - !prev - 1);
            prev := x)
          a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.sorted_int_array" in
        let prev = ref (-1) in
        Array.init n (fun _ ->
            let d = dec_unonneg s pos in
            prev := !prev + 1 + d;
            if !prev < 0 then dec_fail "Codec.sorted_int_array: index overflow";
            !prev));
  }

let sparse_int_vec =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        let prev = ref (-1) in
        Array.iter
          (fun (k, v) ->
            if k <= !prev then
              invalid_arg "Codec.sparse_int_vec: indices not increasing";
            enc_uvarint b (k - !prev - 1);
            enc_varbits b (zigzag v);
            prev := k)
          a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.sparse_int_vec" in
        let prev = ref (-1) in
        Array.init n (fun _ ->
            let d = dec_unonneg s pos in
            let v = unzigzag (dec_uvarint s pos) in
            prev := !prev + 1 + d;
            if !prev < 0 then dec_fail "Codec.sparse_int_vec: index overflow";
            (!prev, v)));
  }

let float_array = array float64
let float32_array = array float32

let bytes =
  {
    enc =
      (fun b s ->
        enc_uvarint b (String.length s);
        Buffer.add_string b s);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.bytes" in
        let r = String.sub s !pos n in
        pos := !pos + n;
        r);
  }

let counter_array =
  let to_sparse a =
    let out = ref [] in
    for i = Array.length a - 1 downto 0 do
      if a.(i) <> 0 then out := (i, a.(i)) :: !out
    done;
    (Array.length a, !out)
  in
  let of_sparse (len, pairs) =
    let a = Array.make len 0 in
    List.iter (fun (i, v) -> a.(i) <- v) pairs;
    a
  in
  {
    enc =
      (fun b a ->
        let len, pairs = to_sparse a in
        enc_uvarint b len;
        enc_uvarint b (List.length pairs);
        let prev = ref (-1) in
        List.iter
          (fun (i, v) ->
            enc_uvarint b (i - !prev - 1);
            enc_uvarint b v;
            prev := i)
          pairs);
    dec =
      (fun s pos ->
        let len = dec_unonneg s pos in
        if len > max_dense_length then
          dec_fail "Codec.counter_array: dense length exceeds cap";
        let n = dec_count s pos "Codec.counter_array" in
        let prev = ref (-1) in
        let pairs =
          List.init n (fun _ ->
              let d = dec_unonneg s pos in
              let v = dec_unonneg s pos in
              prev := !prev + 1 + d;
              if !prev < 0 || !prev >= len then
                dec_fail "Codec.counter_array: index beyond dense length";
              (!prev, v))
        in
        of_sparse (len, pairs));
  }

let map to_wire of_wire c =
  {
    enc = (fun b v -> c.enc b (to_wire v));
    dec = (fun s pos -> of_wire (c.dec s pos));
  }
