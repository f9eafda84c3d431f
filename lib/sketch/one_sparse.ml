module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Field31 = Matprod_util.Field31
module Codec = Matprod_comm.Codec

type spec = { c1 : Hashing.t; c2 : Hashing.t }

type cell = {
  mutable sum : int;
  mutable isum : int;
  mutable fp1 : int;
  mutable fp2 : int;
}

let spec rng = { c1 = Hashing.create rng ~k:2; c2 = Hashing.create rng ~k:2 }
let fresh () = { sum = 0; isum = 0; fp1 = 0; fp2 = 0 }
let is_zero c = c.sum = 0 && c.isum = 0 && c.fp1 = 0 && c.fp2 = 0

(* Innermost kernel of every recovery structure: deliberately carries no
   Metrics calls — hash/cell accounting is hoisted into the callers
   (S_sparse, L0_sampler) so the enabled() branch never sits inside a
   per-coordinate loop. *)
let update spec cell i v =
  if i < 0 then invalid_arg "One_sparse.update: negative index";
  if v <> 0 then begin
    let w = Field31.of_int v in
    cell.sum <- cell.sum + v;
    cell.isum <- cell.isum + (i * v);
    cell.fp1 <- Field31.add cell.fp1 (Field31.mul w (Hashing.field_coeff spec.c1 i));
    cell.fp2 <- Field31.add cell.fp2 (Field31.mul w (Hashing.field_coeff spec.c2 i))
  end

let add_scaled dst ~coeff src =
  if coeff <> 0 then begin
    let c = Field31.of_int coeff in
    dst.sum <- dst.sum + (coeff * src.sum);
    dst.isum <- dst.isum + (coeff * src.isum);
    dst.fp1 <- Field31.add dst.fp1 (Field31.mul c src.fp1);
    dst.fp2 <- Field31.add dst.fp2 (Field31.mul c src.fp2)
  end

type verdict = Zero | One of int * int | Many

let decode spec cell =
  if is_zero cell then Zero
  else if cell.sum = 0 then Many
  else
    let i = cell.isum / cell.sum in
    if i < 0 || i * cell.sum <> cell.isum then Many
    else
      let w = Field31.of_int cell.sum in
      let want1 = Field31.mul w (Hashing.field_coeff spec.c1 i) in
      let want2 = Field31.mul w (Hashing.field_coeff spec.c2 i) in
      if cell.fp1 = want1 && cell.fp2 = want2 then One (i, cell.sum) else Many

let cell_codec =
  Codec.map
    (fun c -> ((c.sum, c.isum), (c.fp1, c.fp2)))
    (fun ((sum, isum), (fp1, fp2)) -> { sum; isum; fp1; fp2 })
    (Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint))

(* Recovery structures over subsampling levels are mostly zero cells, so
   the wire format carries (length, nonzero cells with their positions)
   rather than every cell. The declared length drives an allocation the
   wire bytes do not pay for, so decoding caps it like
   [Codec.counter_array] does, and positions must fall inside it. *)
let cells_wire =
  Codec.map
    (fun cells ->
      let nonzero = ref [] in
      Array.iteri
        (fun idx c -> if not (is_zero c) then nonzero := (idx, c) :: !nonzero)
        cells;
      (Array.length cells, List.rev !nonzero))
    (fun (len, nonzero) ->
      if len > Codec.max_dense_length then
        raise (Codec.Decode_error "One_sparse.cells_wire: length exceeds cap");
      if List.exists (fun (idx, _) -> idx >= len) nonzero then
        raise (Codec.Decode_error "One_sparse.cells_wire: index beyond length");
      let cells = Array.init len (fun _ -> fresh ()) in
      List.iter (fun (idx, c) -> cells.(idx) <- c) nonzero;
      cells)
    (Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint cell_codec)))
