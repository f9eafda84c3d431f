(* Every encoder appends to a [writer]: a byte buffer that the kernels
   below write into directly, reserving room once per run of bytes
   rather than checking capacity byte by byte. *)
type writer = { mutable bytes : Bytes.t; mutable pos : int }

type 'a t = {
  enc : writer -> 'a -> unit;
  dec : string -> int ref -> 'a;
}

exception Decode_error of string

let dec_fail msg = raise (Decode_error msg)

let grow w n =
  let cap = ref (Int.max 256 (2 * Bytes.length w.bytes)) in
  while !cap < w.pos + n do
    cap := 2 * !cap
  done;
  let b = Bytes.create !cap in
  Bytes.blit w.bytes 0 b 0 w.pos;
  w.bytes <- b

(* Room for [n] more bytes. *)
let reserve w n = if w.pos + n > Bytes.length w.bytes then grow w n

(* One writer per domain, checked out for the duration of an encode — a
   second thread of the same domain that arrives meanwhile, or an encode
   nested in this one, starts a small one of its own, as a fresh Buffer
   would — and handed back unless it grew past [scratch_limit], so a
   long-lived process keeps at most that much per domain. On an exception
   the writer is dropped. *)
let scratch_limit = 1 lsl 20
let scratch_key = Domain.DLS.new_key (fun () -> ref None)

let with_scratch f =
  let slot = Domain.DLS.get scratch_key in
  let w =
    match !slot with
    | Some w ->
        slot := None;
        w.pos <- 0;
        w
    | None -> { bytes = Bytes.create 256; pos = 0 }
  in
  let r = f w in
  if Bytes.length w.bytes <= scratch_limit then slot := Some w;
  r

let encode c v =
  with_scratch (fun w ->
      c.enc w v;
      Bytes.sub_string w.bytes 0 w.pos)

let decode c s =
  let pos = ref 0 in
  let v = c.dec s pos in
  if !pos <> String.length s then dec_fail "Codec.decode: trailing bytes";
  v

let encoded_bytes c v =
  with_scratch (fun w ->
      c.enc w v;
      w.pos)

let kernel ~enc ~dec = { enc; dec }

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.bytes w.pos c;
  w.pos <- w.pos + 1

let read_byte s pos =
  if !pos >= String.length s then dec_fail "Codec: truncated input";
  let b = Char.code s.[!pos] in
  incr pos;
  b

let varint_len n =
  if n < 0 then 9
  else if n < 1 lsl 7 then 1
  else if n < 1 lsl 14 then 2
  else if n < 1 lsl 21 then 3
  else if n < 1 lsl 28 then 4
  else if n < 1 lsl 35 then 5
  else if n < 1 lsl 42 then 6
  else if n < 1 lsl 49 then 7
  else if n < 1 lsl 56 then 8
  else 9

(* LEB128 varint over the unsigned 63-bit interpretation of the int: [lsr]
   is a logical shift, so negative bit patterns (from zigzag of huge ints)
   encode and terminate correctly, in at most nine bytes. Writes at [p]
   into bytes the caller has reserved, and returns the end. *)
let put_varbits b p n =
  let p = ref p and n = ref n in
  while !n lsr 7 <> 0 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr p;
    n := !n lsr 7
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !n);
  !p + 1

let enc_varbits w n =
  reserve w 9;
  w.pos <- put_varbits w.bytes w.pos n

let enc_uvarint w n =
  if n < 0 then invalid_arg "Codec.uint: negative";
  enc_varbits w n

let dec_uvarint s pos =
  let len = String.length s in
  let p = ref !pos and shift = ref 0 and acc = ref 0 and fin = ref false in
  while not !fin do
    if !p >= len then begin
      pos := !p;
      dec_fail "Codec: truncated input"
    end;
    let byte = Char.code (String.unsafe_get s !p) in
    incr p;
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte land 0x80 = 0 then fin := true
    else if !shift >= 63 then begin
      pos := !p;
      dec_fail "Codec: varint too long"
    end
    else shift := !shift + 7
  done;
  pos := !p;
  !acc

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

let write_uint = enc_uvarint
let write_int w n = enc_varbits w (zigzag n)
let read_uint = dec_unonneg
let read_int s pos = unzigzag (dec_uvarint s pos)
let read_count = dec_count

let unit = { enc = (fun _ () -> ()); dec = (fun _ _ -> ()) }

let bool =
  {
    enc = (fun w v -> add_char w (if v then '\001' else '\000'));
    dec =
      (fun s pos ->
        match read_byte s pos with
        | 0 -> false
        | 1 -> true
        | _ -> dec_fail "Codec.bool: bad byte");
  }

let uint = { enc = write_uint; dec = read_uint }
let int = { enc = write_int; dec = read_int }

(* Fixed-width words: a whole word's bytes, or truncation. *)
let need s pos width =
  if !pos + width > String.length s then begin
    pos := String.length s;
    dec_fail "Codec: truncated input"
  end

let float64 =
  {
    enc =
      (fun w f ->
        reserve w 8;
        Bytes.set_int64_le w.bytes w.pos (Int64.bits_of_float f);
        w.pos <- w.pos + 8);
    dec =
      (fun s pos ->
        need s pos 8;
        let f = Int64.float_of_bits (String.get_int64_le s !pos) in
        pos := !pos + 8;
        f);
  }

let float32 =
  {
    enc =
      (fun w f ->
        reserve w 4;
        Bytes.set_int32_le w.bytes w.pos (Int32.bits_of_float f);
        w.pos <- w.pos + 4);
    dec =
      (fun s pos ->
        need s pos 4;
        let f = Int32.float_of_bits (String.get_int32_le s !pos) in
        pos := !pos + 4;
        f);
  }

let pair ca cb =
  {
    enc =
      (fun w (x, y) ->
        ca.enc w x;
        cb.enc w y);
    dec =
      (fun s pos ->
        let x = ca.dec s pos in
        let y = cb.dec s pos in
        (x, y));
  }

let triple ca cb cc =
  {
    enc =
      (fun w (x, y, z) ->
        ca.enc w x;
        cb.enc w y;
        cc.enc w z);
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
      (fun w -> function
        | None -> add_char w '\000'
        | Some v ->
            add_char w '\001';
            c.enc w v);
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
      (fun w a ->
        enc_uvarint w (Array.length a);
        Array.iter (c.enc w) a);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.array" in
        if n > max_length then dec_fail "Codec.array: length exceeds bound";
        Array.init n (fun _ -> c.dec s pos));
  }

let list c =
  {
    enc =
      (fun w l ->
        enc_uvarint w (List.length l);
        List.iter (c.enc w) l);
    dec =
      (fun s pos ->
        let n = dec_count s pos "Codec.list" in
        List.init n (fun _ -> c.dec s pos));
  }

let int_array = array int

(* Eight bytes at [p], which the caller has bounds-checked; only ever
   compared with zero, so byte order does not matter. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

(* The same bytes as [array uint], written as one loop: dense sketch
   states are mostly zero counters, and a zero is its own one-byte
   varint, so a run of k zeros is k zero bytes. Encode fills each run of
   zeros at once; decode skips eight zero bytes at a time into the
   already-zeroed array, and reads any other value below 0x80 (its own
   one-byte varint) inline. Every other byte falls back to
   [dec_unonneg], which keeps every error. *)
let enc_uint_array w a =
  let n = Array.length a in
  enc_uvarint w n;
  let i = ref 0 in
  while !i < n do
    let v = Array.unsafe_get a !i in
    if v = 0 then begin
      let j = ref (!i + 1) in
      while !j < n && Array.unsafe_get a !j = 0 do incr j done;
      let k = !j - !i in
      reserve w k;
      Bytes.unsafe_fill w.bytes w.pos k '\000';
      w.pos <- w.pos + k;
      i := !j
    end
    else begin
      enc_uvarint w v;
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
    if !i + 8 <= n && p + 8 <= len && get64u s p = 0L then begin
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
      (fun w a ->
        enc_uvarint w (Array.length a);
        let prev = ref (-1) in
        Array.iter
          (fun x ->
            if x <= !prev then
              invalid_arg "Codec.sorted_int_array: not strictly increasing";
            enc_uvarint w (x - !prev - 1);
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
      (fun w a ->
        enc_uvarint w (Array.length a);
        let prev = ref (-1) in
        Array.iter
          (fun (k, v) ->
            if k <= !prev then
              invalid_arg "Codec.sparse_int_vec: indices not increasing";
            enc_uvarint w (k - !prev - 1);
            enc_varbits w (zigzag v);
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
   Encode reserves the whole array's bytes once. Once the length prefix
   passes [dec_count], the only error the generic decoder can still raise
   is truncation, so one up-front check raises it before anything is
   allocated. *)
let dec_fixed_count s pos ~width =
  let n = dec_count s pos "Codec.array" in
  if n > (String.length s - !pos) / width then dec_fail "Codec: truncated input";
  n

let float_array =
  {
    enc =
      (fun w a ->
        let n = Array.length a in
        enc_uvarint w n;
        reserve w (8 * n);
        let b = w.bytes and p = w.pos in
        for i = 0 to n - 1 do
          Bytes.set_int64_le b (p + (8 * i)) (Int64.bits_of_float (Array.unsafe_get a i))
        done;
        w.pos <- p + (8 * n));
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
      (fun w a ->
        let n = Array.length a in
        enc_uvarint w n;
        reserve w (4 * n);
        let b = w.bytes and p = w.pos in
        for i = 0 to n - 1 do
          Bytes.set_int32_le b (p + (4 * i)) (Int32.bits_of_float (Array.unsafe_get a i))
        done;
        w.pos <- p + (4 * n));
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
      (fun w s ->
        let n = String.length s in
        enc_uvarint w n;
        reserve w n;
        Bytes.unsafe_blit_string s 0 w.bytes w.pos n;
        w.pos <- w.pos + n);
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

(* The nonzero cells a decode meets, in ascending order: per-domain
   arrays checked out for the decode, as the encode scratch is, so a
   decode allocates only the exact-size arrays it returns. *)
type found = { mutable idx : int array; mutable vals : int array; mutable n : int }

let found_limit = scratch_limit / 8
let found_key = Domain.DLS.new_key (fun () -> ref None)

let take_found () =
  let slot = Domain.DLS.get found_key in
  match !slot with
  | Some f ->
      slot := None;
      f.n <- 0;
      f
  | None -> { idx = Array.make 64 0; vals = Array.make 64 0; n = 0 }

let[@inline] push f i v =
  let n = f.n in
  if n = Array.length f.idx then begin
    let grow a = Array.append a (Array.make n 0) in
    f.idx <- grow f.idx;
    f.vals <- grow f.vals
  end;
  Array.unsafe_set f.idx n i;
  Array.unsafe_set f.vals n v;
  f.n <- n + 1

let to_sparse length f =
  let s =
    if f.n = 0 then { length; cells = [||]; values = [||] }
    else { length; cells = Array.sub f.idx 0 f.n; values = Array.sub f.vals 0 f.n }
  in
  if Array.length f.idx <= found_limit then (Domain.DLS.get found_key) := Some f;
  s

(* [enc_uint_array]'s bytes for the dense array [s] stands for, written
   in one piece: the row's size is its zero cells plus its values' varint
   lengths, so it is reserved and zero-filled once and each value is
   stored at its place. *)
let enc_sparse_uint_array w s =
  let cells = s.cells and values = s.values in
  let nnz = Array.length cells in
  if Array.length values <> nnz then invalid_arg "Codec.sparse_uint_array: shape";
  let size = ref (s.length - nnz) and prev = ref (-1) in
  for k = 0 to nnz - 1 do
    let c = Array.unsafe_get cells k and v = Array.unsafe_get values k in
    if c <= !prev || c >= s.length then
      invalid_arg "Codec.sparse_uint_array: cells not ascending within length";
    if v < 0 then invalid_arg "Codec.uint: negative";
    size := !size + varint_len v;
    prev := c
  done;
  enc_uvarint w s.length;
  let size = !size in
  reserve w size;
  let b = w.bytes and base = w.pos in
  Bytes.unsafe_fill b base size '\000';
  (* [extra]: the bytes the values before cell [c] take beyond one each. *)
  let extra = ref 0 in
  for k = 0 to nnz - 1 do
    let p = base + Array.unsafe_get cells k + !extra in
    let q = put_varbits b p (Array.unsafe_get values k) in
    extra := !extra + (q - p - 1)
  done;
  w.pos <- base + size

(* The zero bytes that open the little-endian word [x], which is not 0. *)
let[@inline] zero_bytes32 x =
  if x land 0xFFFF = 0 then if x land 0xFF0000 = 0 then 3 else 2
  else if x land 0xFF = 0 then 1
  else 0

let[@inline] zero_bytes x =
  let open Int64 in
  if logand x 0xFFFFFFFFL = 0L then 4 + zero_bytes32 (to_int (shift_right_logical x 32))
  else zero_bytes32 (to_int x)

(* [dec_uint_cells] keeping only the nonzero cells: zero bytes (zero
   cells) are skipped a word at a time, down to the first nonzero byte,
   and the varint there is decoded in place. Any varint that does not end
   inside the input within nine bytes is re-read by [dec_unonneg], which
   raises its error. Nothing is allocated per cell. *)
let dec_sparse_uint_cells s pos n =
  let f = take_found () in
  let len = String.length s in
  let i = ref 0 and p = ref !pos in
  while !i < n do
    let room = Int.min (n - !i) (len - !p) in
    let z = ref 0 in
    while !z + 8 <= room && get64u s (!p + !z) = 0L do
      z := !z + 8
    done;
    if !z + 8 <= room then z := !z + zero_bytes (String.get_int64_le s (!p + !z))
    else
      while !z < room && String.unsafe_get s (!p + !z) = '\000' do
        incr z
      done;
    i := !i + !z;
    p := !p + !z;
    if !i < n then begin
      (* cell [!i]'s varint opens with a nonzero byte, or the input ends *)
      let q = ref !p and v = ref 0 and shift = ref 0 in
      while !q < len && !shift < 63 && Char.code (String.unsafe_get s !q) >= 0x80 do
        v := !v lor ((Char.code (String.unsafe_get s !q) land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr q
      done;
      if !q < len && !shift < 63 then begin
        v := !v lor (Char.code (String.unsafe_get s !q) lsl !shift);
        p := !q + 1
      end
      else begin
        pos := !p;
        v := dec_unonneg s pos;
        p := !pos
      end;
      if !v < 0 then begin
        pos := !p;
        dec_fail "Codec: negative unsigned varint"
      end;
      if !v <> 0 then push f !i !v;
      incr i
    end
  done;
  pos := !p;
  to_sparse n f

let sparse_uint_array =
  {
    enc = enc_sparse_uint_array;
    dec =
      (fun s pos -> dec_sparse_uint_cells s pos (dec_count s pos "Codec.array"));
  }

(* Counter arrays as (length, nnz, (gap, value) pairs). One pass over the
   nonzero cells sizes the pairs, so the header goes out first and the
   pairs follow straight into the output; decode checks every pair
   against the dense length its caller accepted. *)

(* The nonzero cells of [s]: their count, the bytes their pairs take, and
   the bytes their values take beyond one each — what [uint_array] spends
   on the dense array above one byte per cell. Raises as writing the
   pairs would. *)
type pairs_size = { nnz : int; pair_bytes : int; wide : int }

let size_pairs s =
  let nnz = ref 0 and bytes = ref 0 and wide = ref 0 and prev = ref (-1) in
  for k = 0 to Array.length s.cells - 1 do
    let v = Array.unsafe_get s.values k in
    if v <> 0 then begin
      let c = Array.unsafe_get s.cells k in
      let gap = c - !prev - 1 in
      if gap < 0 || v < 0 then invalid_arg "Codec.uint: negative";
      let vl = varint_len v in
      bytes := !bytes + varint_len gap + vl;
      wide := !wide + vl - 1;
      prev := c;
      incr nnz
    end
  done;
  { nnz = !nnz; pair_bytes = !bytes; wide = !wide }

let enc_pairs w ~len sz s =
  enc_uvarint w len;
  enc_uvarint w sz.nnz;
  reserve w sz.pair_bytes;
  let b = w.bytes and p = ref w.pos and prev = ref (-1) in
  for k = 0 to Array.length s.cells - 1 do
    let v = Array.unsafe_get s.values k in
    if v <> 0 then begin
      let c = Array.unsafe_get s.cells k in
      p := put_varbits b !p (c - !prev - 1);
      p := put_varbits b !p v;
      prev := c
    end
  done;
  w.pos <- !p

(* The (nnz, pairs) after a dense length [len] the caller has accepted. *)
let dec_pairs what s pos len =
  let n = dec_count s pos what in
  let f = take_found () in
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
    enc = (fun w s -> enc_pairs w ~len:s.length (size_pairs s) s);
    dec =
      (fun s pos ->
        let len = dec_unonneg s pos in
        if len > max_length then dec_fail (what ^ ": dense length exceeds cap");
        dec_pairs what s pos len);
  }

(* Both arms open with the same length varint. After it, [uint_array]
   spends one byte per cell plus [wide]; the sparse arm spends the nonzero
   count and the pairs, so one sizing pass prices both. *)
let shorter_uint_array ~length =
  let what = "Codec.shorter_uint_array" in
  let check n = if n <> length then dec_fail (what ^ ": length mismatch") in
  {
    enc =
      (fun w s ->
        if s.length <> length then invalid_arg (what ^ ": length");
        let sz = size_pairs s in
        if varint_len sz.nnz + sz.pair_bytes < length + sz.wide then begin
          add_char w '\001';
          enc_pairs w ~len:length sz s
        end
        else begin
          add_char w '\000';
          enc_sparse_uint_array w s
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
    enc = (fun w v -> c.enc w (to_wire v));
    dec = (fun s pos -> of_wire (c.dec s pos));
  }
