module Imat = Matprod_matrix.Imat
module Codec = Matprod_comm.Codec

module Entry_map = struct
  type t = ((int * int), int) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let add m i j v =
    if v <> 0 then
      match Hashtbl.find_opt m (i, j) with
      | None -> Hashtbl.replace m (i, j) v
      | Some old ->
          let s = old + v in
          if s = 0 then Hashtbl.remove m (i, j) else Hashtbl.replace m (i, j) s

  let get m i j = Option.value ~default:0 (Hashtbl.find_opt m (i, j))
  let nnz m = Hashtbl.length m
  let linf m = Hashtbl.fold (fun _ v acc -> max acc (abs v)) m 0

  let entries m =
    Hashtbl.fold (fun (i, j) v acc -> (i, j, v) :: acc) m []
    |> List.sort compare

  let iter m f = Hashtbl.iter (fun (i, j) v -> f i j v) m

  let add_outer m col row =
    Array.iter
      (fun (i, a) -> Array.iter (fun (j, b) -> add m i j (a * b)) row)
      col

  let merge_into ~dst src = iter src (fun i j v -> add dst i j v)

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
