module Hashing = Matprod_util.Hashing
module Field31 = Matprod_util.Field31
module Codec = Matprod_comm.Codec

type spec = { c1 : Hashing.t; c2 : Hashing.t }

let spec rng = { c1 = Hashing.create rng ~k:2; c2 = Hashing.create rng ~k:2 }
let words = 4

let is_zero a k =
  let o = words * k in
  a.(o) = 0 && a.(o + 1) = 0 && a.(o + 2) = 0 && a.(o + 3) = 0

(* Innermost kernel of every recovery structure: deliberately carries no
   Metrics calls — hash/cell accounting is hoisted into the callers
   (S_sparse, L0_sampler) so the enabled() branch never sits inside a
   per-coordinate loop. *)
let update spec a k i v =
  if i < 0 then invalid_arg "One_sparse.update: negative index";
  if v <> 0 then begin
    let o = words * k in
    let w = Field31.of_int v in
    a.(o) <- a.(o) + v;
    a.(o + 1) <- a.(o + 1) + (i * v);
    a.(o + 2) <- Field31.add a.(o + 2) (Field31.mul w (Hashing.field_coeff spec.c1 i));
    a.(o + 3) <- Field31.add a.(o + 3) (Field31.mul w (Hashing.field_coeff spec.c2 i))
  end

let add_scaled dst dk ~coeff src sk =
  if coeff <> 0 then begin
    let o = words * dk and so = words * sk in
    let c = Field31.of_int coeff in
    dst.(o) <- dst.(o) + (coeff * src.(so));
    dst.(o + 1) <- dst.(o + 1) + (coeff * src.(so + 1));
    dst.(o + 2) <- Field31.add dst.(o + 2) (Field31.mul c src.(so + 2));
    dst.(o + 3) <- Field31.add dst.(o + 3) (Field31.mul c src.(so + 3))
  end

type verdict = Zero | One of int * int | Many

let decode spec a k =
  let o = words * k in
  let sum = a.(o) and isum = a.(o + 1) and fp1 = a.(o + 2) and fp2 = a.(o + 3) in
  if sum = 0 && isum = 0 && fp1 = 0 && fp2 = 0 then Zero
  else if sum = 0 then Many
  else
    let i = isum / sum in
    if i < 0 || i >= Field31.p || i * sum <> isum then Many
    else
      let w = Field31.of_int sum in
      let want1 = Field31.mul w (Hashing.field_coeff spec.c1 i) in
      let want2 = Field31.mul w (Hashing.field_coeff spec.c2 i) in
      if fp1 = want1 && fp2 = want2 then One (i, sum) else Many

type cells = { count : int; nonzero : int array; cell_words : int array }

(* Cells listed in any order, possibly repeated or zero, to the form
   above: a later listing of a position overwrites an earlier one, as
   writing them into dense storage in order would. *)
let of_listing count listed =
  let sorted = List.stable_sort (fun (k, _) (k', _) -> Int.compare k k') listed in
  let rec last_of acc = function
    | (k, _) :: ((k', _) :: _ as rest) when k = k' -> last_of acc rest
    | (k, c) :: rest -> last_of (if is_zero c 0 then acc else (k, c) :: acc) rest
    | [] -> List.rev acc
  in
  let kept = last_of [] sorted in
  {
    count;
    nonzero = Array.of_list (List.map fst kept);
    cell_words = Array.concat (List.map snd kept);
  }

(* Recovery structures over subsampling levels are mostly zero cells, so
   the wire format carries (cell count, nonzero cells with their
   positions) rather than every cell: the count, then the listing's
   length, then per cell its position, Σ x_i and Σ i·x_i as zigzag
   varints and the two fingerprints as varints — the bytes of
   [pair uint (list (pair uint (pair (pair int int) (pair uint uint))))].
   Encode writes them straight from the flat storage. Decode reads the
   listing into flat arrays, which are the state itself when the listing
   is canonical (strictly ascending, no zero cell), as every encoder
   writes it; any other listing goes through [of_listing]. The declared
   count is checked against the receiver's bound, and positions must
   fall inside it, once the whole listing has parsed. *)
let cells_wire ~max_cells =
  let enc w st =
    let m = Array.length st.nonzero and a = st.cell_words in
    if Array.length a <> words * m then invalid_arg "One_sparse.cells_wire: shape";
    Codec.write_uint w st.count;
    let listed = ref 0 in
    for j = 0 to m - 1 do
      if not (is_zero a j) then incr listed
    done;
    Codec.write_uint w !listed;
    for j = 0 to m - 1 do
      if not (is_zero a j) then begin
        let o = words * j in
        Codec.write_uint w st.nonzero.(j);
        Codec.write_int w a.(o);
        Codec.write_int w a.(o + 1);
        Codec.write_uint w a.(o + 2);
        Codec.write_uint w a.(o + 3)
      end
    done
  in
  let dec s pos =
    let n = Codec.read_uint s pos in
    let m = Codec.read_count s pos "Codec.list" in
    (* A cell takes at least five bytes, so a listing that parses fits
       [cap] cells; a longer one fails before its arrays would overflow. *)
    let cap = Int.min m ((String.length s - !pos) / 5) in
    let nonzero, cell_words =
      if cap = 0 then ([||], [||]) else (Array.make cap 0, Array.make (words * cap) 0)
    in
    let canonical = ref true and last = ref (-1) in
    for j = 0 to m - 1 do
      let k = Codec.read_uint s pos in
      let sum = Codec.read_int s pos in
      let isum = Codec.read_int s pos in
      let fp1 = Codec.read_uint s pos in
      let fp2 = Codec.read_uint s pos in
      let o = words * j in
      nonzero.(j) <- k;
      cell_words.(o) <- sum;
      cell_words.(o + 1) <- isum;
      cell_words.(o + 2) <- fp1;
      cell_words.(o + 3) <- fp2;
      if k <= !last || is_zero cell_words j then canonical := false;
      last := Int.max k !last
    done;
    if n > max_cells then
      raise (Codec.Decode_error "One_sparse.cells_wire: cell count exceeds bound");
    if !last >= n then
      raise (Codec.Decode_error "One_sparse.cells_wire: index beyond length");
    if !canonical then { count = n; nonzero; cell_words }
    else
      of_listing n
        (List.init m (fun j -> (nonzero.(j), Array.sub cell_words (words * j) words)))
  in
  Codec.kernel ~enc ~dec
