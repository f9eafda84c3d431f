type 'a t = {
  enc : Buffer.t -> 'a -> unit;
  dec : string -> int ref -> 'a;
}

exception Decode_error of string

let dec_fail msg = raise (Decode_error msg)

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

let array ?(max_length = max_int) c =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        Array.iter (c.enc b) a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.array" in
        if n > max_length then dec_fail "Codec.array: length exceeds bound";
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

(* Runs of zero counters are written from, and skipped against, this
   block: a zero is its own one-byte varint, so a run of k zeros is k
   zero bytes. *)
let zero_block = String.make 4096 '\000'

let rec add_zeros b k =
  if k > 0 then begin
    let m = min k (String.length zero_block) in
    Buffer.add_substring b zero_block 0 m;
    add_zeros b (k - m)
  end

(* The same bytes as [array uint], written as one loop: dense sketch
   states are mostly zero counters. Encode writes each run of zeros with
   one [add_zeros]; decode skips eight zero bytes at a time into the
   already-zeroed array, and reads any other value below 0x80 (its own
   one-byte varint) inline. Every other byte falls back to
   [dec_unonneg], which keeps every error. *)
let enc_uint_array b a =
  let n = Array.length a in
  enc_uvarint b n;
  let i = ref 0 in
  while !i < n do
    let v = Array.unsafe_get a !i in
    if v = 0 then begin
      let j = ref (!i + 1) in
      while !j < n && Array.unsafe_get a !j = 0 do incr j done;
      add_zeros b (!j - !i);
      i := !j
    end
    else begin
      if v > 0 && v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
      else enc_uvarint b v;
      incr i
    end
  done

(* The [n] cells after [uint_array]'s length prefix. *)
let dec_uint_cells s pos n =
  let a = Array.make n 0 in
  let len = String.length s in
  let i = ref 0 in
  while !i < n do
    let p = !pos in
    if !i + 8 <= n && p + 8 <= len && String.get_int64_le s p = 0L then begin
      i := !i + 8;
      pos := p + 8
    end
    else begin
      if p < len && String.unsafe_get s p < '\x80' then begin
        Array.unsafe_set a !i (Char.code (String.unsafe_get s p));
        pos := p + 1
      end
      else Array.unsafe_set a !i (dec_unonneg s pos);
      incr i
    end
  done;
  a

let uint_array =
  {
    enc = enc_uint_array;
    dec = (fun s pos -> dec_uint_cells s pos (dec_count s pos "Codec.array"));
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

(* Fixed-width float arrays: [array float64]/[array float32] as one loop.
   Once the length prefix passes [dec_count], the only error the generic
   decoder can still raise is truncation, so one up-front check raises it
   before anything is allocated. *)
let dec_fixed_count s pos ~width =
  let n = dec_count s pos "Codec.array" in
  if n > (String.length s - !pos) / width then dec_fail "Codec: truncated input";
  n

let float_array =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        for i = 0 to Array.length a - 1 do
          Buffer.add_int64_le b (Int64.bits_of_float (Array.unsafe_get a i))
        done);
    dec =
      (fun s pos ->
        let n = dec_fixed_count s pos ~width:8 in
        let p = !pos in
        let a = Array.create_float n in
        for i = 0 to n - 1 do
          Array.unsafe_set a i
            (Int64.float_of_bits (String.get_int64_le s (p + (8 * i))))
        done;
        pos := p + (8 * n);
        a);
  }

let float32_array =
  {
    enc =
      (fun b a ->
        enc_uvarint b (Array.length a);
        for i = 0 to Array.length a - 1 do
          Buffer.add_int32_le b (Int32.bits_of_float (Array.unsafe_get a i))
        done);
    dec =
      (fun s pos ->
        let n = dec_fixed_count s pos ~width:4 in
        let p = !pos in
        let a = Array.create_float n in
        for i = 0 to n - 1 do
          Array.unsafe_set a i
            (Int32.float_of_bits (String.get_int32_le s (p + (4 * i))))
        done;
        pos := p + (4 * n);
        a);
  }

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

(* --- sparse sources ------------------------------------------------------

   Mostly-zero arrays travel through the codecs below as their nonzero
   cells only. The bytes are those the dense array would encode to, so
   the sparse form is invisible on the wire, and a decode allocates in
   proportion to the nonzero cells, never to the dense length. *)

type sparse = { length : int; cells : int array; values : int array }

(* The nonzero cells a decode meets, in ascending order, kept in reverse. *)
type found = { mutable idx : int list; mutable vals : int list }

let push f i v =
  f.idx <- i :: f.idx;
  f.vals <- v :: f.vals

let to_sparse length f =
  let arr l = Array.of_list (List.rev l) in
  { length; cells = arr f.idx; values = arr f.vals }

(* [enc_uint_array]'s bytes for the dense array [s] stands for: each gap
   before a nonzero cell is a run of zero bytes. *)
let enc_sparse_uint_array b s =
  enc_uvarint b s.length;
  let next = ref 0 in
  for k = 0 to Array.length s.cells - 1 do
    let c = Array.unsafe_get s.cells k and v = Array.unsafe_get s.values k in
    add_zeros b (c - !next);
    if v > 0 && v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else enc_uvarint b v;
    next := c + 1
  done;
  add_zeros b (s.length - !next)

(* [dec_uint_cells] keeping only the nonzero cells: zero bytes are
   skipped eight at a time, and nothing is allocated per zero cell. *)
let dec_sparse_uint_cells s pos n =
  let f = { idx = []; vals = [] } in
  let len = String.length s in
  let i = ref 0 in
  while !i < n do
    let p = !pos in
    if !i + 8 <= n && p + 8 <= len && String.get_int64_le s p = 0L then begin
      i := !i + 8;
      pos := p + 8
    end
    else begin
      let v =
        if p < len && String.unsafe_get s p < '\x80' then begin
          pos := p + 1;
          Char.code (String.unsafe_get s p)
        end
        else dec_unonneg s pos
      in
      if v <> 0 then push f !i v;
      incr i
    end
  done;
  to_sparse n f

let sparse_uint_array =
  {
    enc = enc_sparse_uint_array;
    dec =
      (fun s pos -> dec_sparse_uint_cells s pos (dec_count s pos "Codec.array"));
  }

(* Counter arrays as (length, nnz, (gap, value) pairs). Encode writes the
   pairs to a side buffer, then the header and the pairs; decode checks
   every pair against the dense length its caller accepted. *)

(* Writes the nonzero cells of [s] to [pairs] and returns their count and
   the bytes their values take beyond one each — what [uint_array] spends
   on the dense array above one byte per cell. *)
let scan_pairs pairs s =
  let nnz = ref 0 and wide = ref 0 and prev = ref (-1) in
  for k = 0 to Array.length s.cells - 1 do
    let v = Array.unsafe_get s.values k in
    if v <> 0 then begin
      let c = Array.unsafe_get s.cells k in
      enc_uvarint pairs (c - !prev - 1);
      let before = Buffer.length pairs in
      enc_uvarint pairs v;
      wide := !wide + Buffer.length pairs - before - 1;
      prev := c;
      incr nnz
    end
  done;
  (!nnz, !wide)

let enc_pairs b ~len ~nnz pairs =
  enc_uvarint b len;
  enc_uvarint b nnz;
  Buffer.add_buffer b pairs

(* The (nnz, pairs) after a dense length [len] the caller has accepted. *)
let dec_pairs what s pos len =
  let n = dec_count s pos what in
  let f = { idx = []; vals = [] } in
  let prev = ref (-1) in
  for _ = 1 to n do
    let d = dec_unonneg s pos in
    let v = dec_unonneg s pos in
    prev := !prev + 1 + d;
    if !prev < 0 || !prev >= len then
      dec_fail (what ^ ": index beyond dense length");
    if v <> 0 then push f !prev v
  done;
  to_sparse len f

let bounded_counter_array ~max_length =
  let what = "Codec.bounded_counter_array" in
  {
    enc =
      (fun b s ->
        let pairs = Buffer.create 64 in
        let nnz, _ = scan_pairs pairs s in
        enc_pairs b ~len:s.length ~nnz pairs);
    dec =
      (fun s pos ->
        let len = dec_unonneg s pos in
        if len > max_length then dec_fail (what ^ ": dense length exceeds cap");
        dec_pairs what s pos len);
  }

let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7)

(* Both arms open with the same length varint. After it, [uint_array]
   spends one byte per cell plus [wide]; the sparse arm spends the nonzero
   count and the pairs, so one scan prices both. *)
let shorter_uint_array ~length =
  let what = "Codec.shorter_uint_array" in
  let check n = if n <> length then dec_fail (what ^ ": length mismatch") in
  {
    enc =
      (fun b s ->
        if s.length <> length then invalid_arg (what ^ ": length");
        let pairs = Buffer.create 64 in
        let nnz, wide = scan_pairs pairs s in
        if varint_len nnz + Buffer.length pairs < length + wide then begin
          Buffer.add_char b '\001';
          enc_pairs b ~len:length ~nnz pairs
        end
        else begin
          Buffer.add_char b '\000';
          enc_sparse_uint_array b s
        end);
    dec =
      (fun s pos ->
        match read_byte s pos with
        | 0 ->
            let n = dec_count s pos what in
            check n;
            dec_sparse_uint_cells s pos n
        | 1 ->
            let n = dec_unonneg s pos in
            check n;
            dec_pairs what s pos n
        | _ -> dec_fail (what ^ ": bad tag"));
  }

let map to_wire of_wire c =
  {
    enc = (fun b v -> c.enc b (to_wire v));
    dec = (fun s pos -> of_wire (c.dec s pos));
  }
