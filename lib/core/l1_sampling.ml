module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

type sample = { row : int; col : int; witness : int }

(* Draw an index from a non-negative integer weight vector, ∝ weight. *)
let weighted_pick rng pairs total =
  let target = Prng.int rng total in
  let rec go acc = function
    | [] -> invalid_arg "L1_sampling: weights exhausted"
    | (idx, w) :: rest ->
        let acc = acc + w in
        if target < acc then idx else go acc rest
  in
  go 0 pairs

let run ctx ~a ~b =
  if Imat.cols a <> Imat.rows b then invalid_arg "L1_sampling: dims";
  if not (Imat.nonneg a && Imat.nonneg b) then
    invalid_arg "L1_sampling: requires non-negative matrices";
  let at = Imat.transpose a in
  let inner = Imat.cols a in
  (* Alice: per inner index k, the column mass and one row sampled ∝ value. *)
  let alice_msg =
    Array.init inner (fun k ->
        let col = Imat.row at k in
        let total = Array.fold_left (fun acc (_, v) -> acc + v) 0 col in
        if total = 0 then (0, -1)
        else
          let i =
            weighted_pick ctx.Ctx.alice (Array.to_list col) total
          in
          (total, i))
  in
  let msg =
    Ctx.a2b ctx ~label:"col sums + row samples"
      (Codec.array (Codec.pair Codec.uint Codec.int))
      alice_msg
  in
  (* Bob: witness k ∝ colsum_k · rowsum_k, then column j ∝ B_{k,j}. *)
  let weights =
    List.init inner (fun k -> (k, fst msg.(k) * Imat.row_l1 b k))
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  if total = 0 then None
  else begin
    let k = weighted_pick ctx.Ctx.bob weights total in
    let row_k = Imat.row b k in
    let row_total = Array.fold_left (fun acc (_, v) -> acc + v) 0 row_k in
    let j = weighted_pick ctx.Ctx.bob (Array.to_list row_k) row_total in
    let i = snd msg.(k) in
    Some { row = i; col = j; witness = k }
  end

(* Amortised multi-sample variant: the n column sums cross the wire once,
   then each extra sample costs O(1) words (Bob's witness, Alice's row
   draw). Coin order per sample matches [run]: Alice draws the row for the
   named witness, Bob draws the witness then the column. *)
let run_many ctx ~count ~a ~b =
  if count < 0 then invalid_arg "L1_sampling.run_many: count < 0";
  if Imat.cols a <> Imat.rows b then invalid_arg "L1_sampling: dims";
  if not (Imat.nonneg a && Imat.nonneg b) then
    invalid_arg "L1_sampling: requires non-negative matrices";
  let at = Imat.transpose a in
  let inner = Imat.cols a in
  let col_sums =
    Array.init inner (fun k ->
        Array.fold_left (fun acc (_, v) -> acc + v) 0 (Imat.row at k))
  in
  let sums =
    Ctx.a2b ctx ~label:"l1 col sums" Codec.uint_array col_sums
  in
  (* Bob: count witnesses, each k ∝ colsum_k · rowsum_k. *)
  let weights = List.init inner (fun k -> (k, sums.(k) * Imat.row_l1 b k)) in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let witnesses =
    if total = 0 then [||]
    else Array.init count (fun _ -> weighted_pick ctx.Ctx.bob weights total)
  in
  let witnesses =
    Ctx.b2a ctx ~label:"l1 witnesses" Codec.uint_array witnesses
  in
  (* Alice: one row draw per witness, ∝ A_{·,k}. *)
  let rows =
    Array.map
      (fun k ->
        let col = Imat.row at k in
        let col_total = Array.fold_left (fun acc (_, v) -> acc + v) 0 col in
        weighted_pick ctx.Ctx.alice (Array.to_list col) col_total)
      witnesses
  in
  let rows = Ctx.a2b ctx ~label:"l1 row draws" Codec.uint_array rows in
  if total = 0 then Array.make count None
  else
    Array.init count (fun t ->
        let k = witnesses.(t) in
        let row_k = Imat.row b k in
        let row_total = Array.fold_left (fun acc (_, v) -> acc + v) 0 row_k in
        let j = weighted_pick ctx.Ctx.bob (Array.to_list row_k) row_total in
        Some { row = rows.(t); col = j; witness = k })
