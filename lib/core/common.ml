module Imat = Matprod_matrix.Imat
module Codec = Matprod_comm.Codec

module Entry_map = struct
  (* One immediate int per entry, (i, j) packed as i·2³¹ + j, in a table
     specialised to int keys: a lookup allocates neither a tuple key nor
     an option. Packed keys order as (row, col) pairs do. *)
  module Tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

  type t = int Tbl.t

  let col_bits = 31
  let col_mask = (1 lsl col_bits) - 1

  let key i j =
    if (i lor j) lsr col_bits <> 0 then
      invalid_arg "Entry_map: index outside [0, 2^31)";
    (i lsl col_bits) lor j

  let create () : t = Tbl.create 256

  let add_key m k v =
    if v <> 0 then
      match Tbl.find m k with
      | old ->
          let s = old + v in
          if s = 0 then Tbl.remove m k else Tbl.replace m k s
      | exception Not_found -> Tbl.add m k v

  let add m i j v = add_key m (key i j) v
  let get m i j = match Tbl.find m (key i j) with v -> v | exception Not_found -> 0
  let nnz m = Tbl.length m
  let linf m = Tbl.fold (fun _ v acc -> max acc (abs v)) m 0

  let entries m =
    Tbl.fold (fun k v acc -> (k, v) :: acc) m []
    |> List.sort (fun (k, _) (k', _) -> Int.compare k k')
    |> List.map (fun (k, v) -> (k lsr col_bits, k land col_mask, v))

  let iter m f = Tbl.iter (fun k v -> f (k lsr col_bits) (k land col_mask) v) m

  let add_outer m col row =
    Array.iter
      (fun (i, a) -> Array.iter (fun (j, b) -> add_key m (key i j) (a * b)) row)
      col

  let merge_into ~dst src = Tbl.iter (fun k v -> add_key dst k v) src

  let wire_entries =
    Codec.list (Codec.triple Codec.uint Codec.uint Codec.int)
end

let row_times_matrix a_row b =
  let out = Array.make (Imat.cols b) 0 in
  Array.iter
    (fun (k, c) ->
      Array.iter (fun (j, v) -> out.(j) <- out.(j) + (c * v)) (Imat.row b k))
    a_row;
  out

let lp_pow_dense ~p row =
  let acc = ref 0.0 in
  Array.iter
    (fun v ->
      if v <> 0 then
        acc := !acc +. if p = 0.0 then 1.0 else Float.abs (float_of_int v) ** p)
    row;
  !acc

let group_of ~beta est =
  if est <= 1.0 then 0
  else int_of_float (Float.floor (log est /. log (1.0 +. beta)))

let top_rows est ~k =
  let idx = Array.init (Array.length est) (fun i -> (i, est.(i))) in
  Array.sort (fun (_, x) (_, y) -> Float.compare y x) idx;
  Array.to_list (Array.sub idx 0 (min k (Array.length idx)))

let log_factor n = log (float_of_int (max n 2))
