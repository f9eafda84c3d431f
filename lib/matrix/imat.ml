type t = { rows : int; cols : int; data : (int * int) array array }

let normalize_row ~cols i pairs =
  let pairs = Array.copy pairs in
  Array.sort (fun (k1, _) (k2, _) -> compare k1 k2) pairs;
  let m = Array.length pairs in
  let out = ref [] in
  let j = ref 0 in
  while !j < m do
    let k, _ = pairs.(!j) in
    if k < 0 || k >= cols then
      invalid_arg
        (Printf.sprintf "Imat: row %d has a column index outside [0,%d)" i cols);
    let v = ref 0 in
    while !j < m && fst pairs.(!j) = k do
      v := !v + snd pairs.(!j);
      incr j
    done;
    if !v <> 0 then out := (k, !v) :: !out
  done;
  Array.of_list (List.rev !out)

let create ~rows ~cols data =
  if rows < 0 || cols < 0 then invalid_arg "Imat.create: negative dimension";
  if Array.length data <> rows then invalid_arg "Imat.create: row count";
  { rows; cols; data = Array.mapi (normalize_row ~cols) data }

let of_dense d =
  let rows = Array.length d in
  let cols = if rows = 0 then 0 else Array.length d.(0) in
  let data =
    Array.map
      (fun r ->
        if Array.length r <> cols then invalid_arg "Imat.of_dense: ragged";
        let ks = ref [] in
        for k = cols - 1 downto 0 do
          if r.(k) <> 0 then ks := (k, r.(k)) :: !ks
        done;
        Array.of_list !ks)
      d
  in
  { rows; cols; data }

let of_bmat b =
  {
    rows = Bmat.rows b;
    cols = Bmat.cols b;
    data =
      Array.init (Bmat.rows b) (fun i ->
          Array.map (fun k -> (k, 1)) (Bmat.row b i));
  }

let zero ~rows ~cols = create ~rows ~cols (Array.make rows [||])
let rows t = t.rows
let cols t = t.cols
let row t i = t.data.(i)

let get t i k =
  if i < 0 || i >= t.rows || k < 0 || k >= t.cols then
    invalid_arg "Imat.get: out of range";
  let r = t.data.(i) in
  let rec go lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let km, vm = r.(mid) in
      if km = k then vm else if km < k then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length r)

let nnz t = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.data

let transpose t =
  let counts = Array.make t.cols 0 in
  Array.iter (Array.iter (fun (k, _) -> counts.(k) <- counts.(k) + 1)) t.data;
  let out = Array.init t.cols (fun k -> Array.make counts.(k) (0, 0)) in
  let fill = Array.make t.cols 0 in
  for i = 0 to t.rows - 1 do
    Array.iter
      (fun (k, v) ->
        out.(k).(fill.(k)) <- (i, v);
        fill.(k) <- fill.(k) + 1)
      t.data.(i)
  done;
  { rows = t.cols; cols = t.rows; data = out }

let row_l1 t i = Array.fold_left (fun acc (_, v) -> acc + abs v) 0 t.data.(i)

let col_l1 t =
  let acc = Array.make t.cols 0 in
  Array.iter (Array.iter (fun (k, v) -> acc.(k) <- acc.(k) + abs v)) t.data;
  acc

let row_lp_pow t ~p i =
  let acc = ref 0.0 in
  Array.iter
    (fun (_, v) ->
      if v <> 0 then
        acc := !acc +. if p = 0.0 then 1.0 else Float.abs (float_of_int v) ** p)
    t.data.(i);
  !acc

let map_values t f =
  {
    t with
    data =
      Array.mapi
        (fun i r ->
          let kept =
            Array.to_list r
            |> List.filter_map (fun (k, v) ->
                   let v' = f i k v in
                   if v' = 0 then None else Some (k, v'))
          in
          Array.of_list kept)
        t.data;
  }

let max_abs t =
  Array.fold_left
    (fun acc r -> Array.fold_left (fun acc (_, v) -> max acc (abs v)) acc r)
    0 t.data

let nonneg t = Array.for_all (Array.for_all (fun (_, v) -> v >= 0)) t.data

let to_dense t =
  let d = Array.init t.rows (fun _ -> Array.make t.cols 0) in
  Array.iteri (fun i r -> Array.iter (fun (k, v) -> d.(i).(k) <- v) r) t.data;
  d

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun r1 r2 -> r1 = r2) a.data b.data
