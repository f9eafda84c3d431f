module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Entry_map = Common.Entry_map

type shares = { alice : Entry_map.t; bob : Entry_map.t }

let run ctx ~a ~b =
  if Imat.cols a <> Imat.rows b then invalid_arg "Matprod_protocol: dims";
  let inner = Imat.cols a in
  let at = Imat.transpose a in
  let u = Array.init inner (fun k -> Array.length (Imat.row at k)) in
  let v = Array.init inner (fun k -> Array.length (Imat.row b k)) in
  (* Round 1: Alice announces her per-index support sizes. *)
  let u' = Ctx.a2b ctx ~label:"support sizes of A cols" Codec.uint_array u in
  (* Round 2: Bob replies with his sizes and ships his rows where his side
     is strictly smaller. *)
  let bob_rows =
    List.filter_map
      (fun k -> if v.(k) < u'.(k) && v.(k) > 0 then Some (k, Imat.row b k) else None)
      (List.init inner (fun k -> k))
  in
  let v', bob_rows' =
    Ctx.b2a ctx ~label:"B rows (smaller side)"
      (Codec.pair Codec.uint_array
         (Codec.list (Codec.pair Codec.uint Codec.sparse_int_vec)))
      (v, bob_rows)
  in
  (* Round 3: Alice ships her columns where her side is not larger. *)
  let alice_cols =
    List.filter_map
      (fun k -> if u.(k) <= v'.(k) && u.(k) > 0 && v'.(k) > 0 then
           Some (k, Imat.row at k)
         else None)
      (List.init inner (fun k -> k))
  in
  let alice_cols' =
    Ctx.a2b ctx ~label:"A cols (smaller side)"
      (Codec.list (Codec.pair Codec.uint Codec.sparse_int_vec))
      alice_cols
  in
  (* Alice's share covers the indices Bob shipped; Bob's the rest. *)
  let alice_share = Entry_map.create () in
  List.iter
    (fun (k, b_row) -> Entry_map.add_outer alice_share (Imat.row at k) b_row)
    bob_rows';
  let bob_share = Entry_map.create () in
  List.iter
    (fun (k, a_col) -> Entry_map.add_outer bob_share a_col (Imat.row b k))
    alice_cols';
  { alice = alice_share; bob = bob_share }
