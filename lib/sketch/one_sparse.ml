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

let cell_codec =
  Codec.map
    (fun c -> ((c.(0), c.(1)), (c.(2), c.(3))))
    (fun ((sum, isum), (fp1, fp2)) -> [| sum; isum; fp1; fp2 |])
    (Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint))

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
   positions) rather than every cell. The declared count is checked
   against the receiver's bound, and positions must fall inside it. *)
let cells_wire ~max_cells =
  Codec.map
    (fun st ->
      let listed = ref [] in
      for j = Array.length st.nonzero - 1 downto 0 do
        if not (is_zero st.cell_words j) then
          listed := (st.nonzero.(j), Array.sub st.cell_words (words * j) words) :: !listed
      done;
      (st.count, !listed))
    (fun (n, listed) ->
      if n > max_cells then
        raise (Codec.Decode_error "One_sparse.cells_wire: cell count exceeds bound");
      if List.exists (fun (k, _) -> k >= n) listed then
        raise (Codec.Decode_error "One_sparse.cells_wire: index beyond length");
      of_listing n listed)
    (Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint cell_codec)))
