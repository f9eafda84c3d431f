(* The dense ℓ0-state codecs as they were before the states became sparse
   — [uint_array], [bounded_counter_array], [shorter_uint_array] and
   [One_sparse.cells_wire] over whole int arrays, with the same error
   texts but without the zero-run fast paths — kept as the specification
   of the sparse-source codecs: the same bytes on encode, and on decode
   the same cells or the same Decode_error text. *)

module Codec = Matprod_comm.Codec

(* A bound on the dense lengths the dense decoders here may allocate. *)
let max_dense_length = 1 lsl 24

let to_dense (s : Codec.sparse) =
  let a = Array.make s.length 0 in
  Array.iteri (fun k c -> a.(c) <- s.values.(k)) s.cells;
  a

let of_dense a =
  let cells = ref [] in
  for i = Array.length a - 1 downto 0 do
    if a.(i) <> 0 then cells := i :: !cells
  done;
  let cells = Array.of_list !cells in
  { Codec.length = Array.length a; cells; values = Array.map (fun i -> a.(i)) cells }

let dec_fail msg = raise (Codec.Decode_error msg)

let read_byte s pos =
  if !pos >= String.length s then dec_fail "Codec: truncated input";
  let b = Char.code s.[!pos] in
  incr pos;
  b

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

let dec_unonneg s pos =
  let n = dec_uvarint s pos in
  if n < 0 then dec_fail "Codec: negative unsigned varint";
  n

let dec_count s pos what =
  let n = dec_unonneg s pos in
  if n > String.length s - !pos then
    dec_fail (what ^ ": length prefix exceeds remaining input");
  n

let enc_uint_array b a =
  enc_uvarint b (Array.length a);
  Array.iter (enc_uvarint b) a

let dec_uint_cells s pos n =
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- dec_unonneg s pos
  done;
  a

let scan_pairs pairs a =
  let nnz = ref 0 and wide = ref 0 and prev = ref (-1) in
  Array.iteri
    (fun i v ->
      if v <> 0 then begin
        enc_uvarint pairs (i - !prev - 1);
        let before = Buffer.length pairs in
        enc_uvarint pairs v;
        wide := !wide + Buffer.length pairs - before - 1;
        prev := i;
        incr nnz
      end)
    a;
  (!nnz, !wide)

let enc_pairs b ~len ~nnz pairs =
  enc_uvarint b len;
  enc_uvarint b nnz;
  Buffer.add_buffer b pairs

let dec_pairs what s pos len =
  let n = dec_count s pos what in
  let idx = Array.make n 0 and vals = Array.make n 0 in
  let prev = ref (-1) in
  for k = 0 to n - 1 do
    let d = dec_unonneg s pos in
    let v = dec_unonneg s pos in
    prev := !prev + 1 + d;
    if !prev < 0 || !prev >= len then
      dec_fail (what ^ ": index beyond dense length");
    idx.(k) <- !prev;
    vals.(k) <- v
  done;
  let a = Array.make len 0 in
  for k = 0 to n - 1 do
    a.(idx.(k)) <- vals.(k)
  done;
  a

let rec varint_len n = if n < 0x80 then 1 else 1 + varint_len (n lsr 7)

(* An encoder and a decoder over whole strings, as Codec.encode/decode. *)
type codec = { enc : Buffer.t -> int array -> unit; dec : string -> int ref -> int array }

let encode c a =
  let b = Buffer.create 64 in
  c.enc b a;
  Buffer.contents b

let decode c s =
  let pos = ref 0 in
  let v = c.dec s pos in
  if !pos <> String.length s then dec_fail "Codec.decode: trailing bytes";
  v

let uint_array =
  { enc = enc_uint_array; dec = (fun s pos -> dec_uint_cells s pos (dec_count s pos "Codec.array")) }

let bounded_counter_array ~max_length =
  let what = "Codec.bounded_counter_array" in
  {
    enc =
      (fun b a ->
        let pairs = Buffer.create 64 in
        let nnz, _ = scan_pairs pairs a in
        enc_pairs b ~len:(Array.length a) ~nnz pairs);
    dec =
      (fun s pos ->
        let len = dec_unonneg s pos in
        if len > max_length then dec_fail (what ^ ": dense length exceeds cap");
        dec_pairs what s pos len);
  }

let shorter_uint_array ~length =
  let what = "Codec.shorter_uint_array" in
  let check n = if n <> length then dec_fail (what ^ ": length mismatch") in
  {
    enc =
      (fun b a ->
        if Array.length a <> length then invalid_arg (what ^ ": length");
        let pairs = Buffer.create 64 in
        let nnz, wide = scan_pairs pairs a in
        if varint_len nnz + Buffer.length pairs < length + wide then begin
          Buffer.add_char b '\001';
          enc_pairs b ~len:length ~nnz pairs
        end
        else begin
          Buffer.add_char b '\000';
          enc_uint_array b a
        end);
    dec =
      (fun s pos ->
        match read_byte s pos with
        | 0 ->
            let n = dec_count s pos what in
            check n;
            dec_uint_cells s pos n
        | 1 ->
            let n = dec_unonneg s pos in
            check n;
            dec_pairs what s pos n
        | _ -> dec_fail (what ^ ": bad tag"));
  }

(* One_sparse.cells_wire over flat storage, four words a cell. *)
let cells_wire ~max_cells =
  let words = 4 in
  let is_zero a k = Array.for_all (fun w -> w = 0) (Array.sub a (words * k) words) in
  Codec.map
    (fun a ->
      let n = Array.length a / words and nonzero = ref [] in
      for k = n - 1 downto 0 do
        if not (is_zero a k) then nonzero := (k, Array.sub a (words * k) words) :: !nonzero
      done;
      (n, !nonzero))
    (fun (n, nonzero) ->
      if n > max_cells then
        raise (Codec.Decode_error "One_sparse.cells_wire: cell count exceeds bound");
      if List.exists (fun (k, _) -> k >= n) nonzero then
        raise (Codec.Decode_error "One_sparse.cells_wire: index beyond length");
      let a = Array.make (words * n) 0 in
      List.iter (fun (k, cell) -> Array.blit cell 0 a (words * k) words) nonzero;
      a)
    (Codec.pair Codec.uint
       (Codec.list
          (Codec.pair Codec.uint
             (Codec.map
                (fun c -> ((c.(0), c.(1)), (c.(2), c.(3))))
                (fun ((sum, isum), (fp1, fp2)) -> [| sum; isum; fp1; fp2 |])
                (Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint))))))

(* One_sparse.cells in flat storage, and back. *)
let cells_to_dense (c : Matprod_sketch.One_sparse.cells) =
  let a = Array.make (4 * c.count) 0 in
  Array.iteri (fun j k -> Array.blit c.cell_words (4 * j) a (4 * k) 4) c.nonzero;
  a

let cells_of_dense a =
  let n = Array.length a / 4 in
  let nonzero =
    List.filter
      (fun k -> Array.exists (fun w -> w <> 0) (Array.sub a (4 * k) 4))
      (List.init n Fun.id)
  in
  {
    Matprod_sketch.One_sparse.count = n;
    nonzero = Array.of_list nonzero;
    cell_words = Array.concat (List.map (fun k -> Array.sub a (4 * k) 4) nonzero);
  }

(* A sparse-state codec seen over dense arrays. *)
let dense_view c = Codec.map of_dense to_dense c
let cells_view c = Codec.map cells_of_dense cells_to_dense c
