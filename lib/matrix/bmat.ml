type t = { rows : int; cols : int; sets : int array array }

let normalize_row ~cols i ks =
  let ks = Array.copy ks in
  Array.sort compare ks;
  let m = Array.length ks in
  if m > 0 && (ks.(0) < 0 || ks.(m - 1) >= cols) then
    invalid_arg
      (Printf.sprintf "Bmat: row %d has a column index outside [0,%d)" i cols);
  (* Deduplicate in place. *)
  let w = ref 0 in
  for r = 0 to m - 1 do
    if r = 0 || ks.(r) <> ks.(r - 1) then (
      ks.(!w) <- ks.(r);
      incr w)
  done;
  Array.sub ks 0 !w

let create ~rows ~cols sets =
  if rows < 0 || cols < 0 then invalid_arg "Bmat.create: negative dimension";
  if Array.length sets <> rows then invalid_arg "Bmat.create: row count";
  { rows; cols; sets = Array.mapi (normalize_row ~cols) sets }

let of_dense d =
  let rows = Array.length d in
  let cols = if rows = 0 then 0 else Array.length d.(0) in
  let sets =
    Array.map
      (fun r ->
        if Array.length r <> cols then invalid_arg "Bmat.of_dense: ragged";
        let ks = ref [] in
        for k = cols - 1 downto 0 do
          if r.(k) <> 0 then ks := k :: !ks
        done;
        Array.of_list !ks)
      d
  in
  { rows; cols; sets }

let zero ~rows ~cols = create ~rows ~cols (Array.make rows [||])
let identity n = { rows = n; cols = n; sets = Array.init n (fun i -> [| i |]) }
let rows t = t.rows
let cols t = t.cols
let row t i = t.sets.(i)
let row_weight t i = Array.length t.sets.(i)

let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let get t i k =
  if i < 0 || i >= t.rows || k < 0 || k >= t.cols then
    invalid_arg "Bmat.get: out of range";
  mem_sorted t.sets.(i) k

let nnz t = Array.fold_left (fun acc r -> acc + Array.length r) 0 t.sets

let transpose t =
  let counts = Array.make t.cols 0 in
  Array.iter (Array.iter (fun k -> counts.(k) <- counts.(k) + 1)) t.sets;
  let out = Array.init t.cols (fun k -> Array.make counts.(k) 0) in
  let fill = Array.make t.cols 0 in
  for i = 0 to t.rows - 1 do
    Array.iter
      (fun k ->
        out.(k).(fill.(k)) <- i;
        fill.(k) <- fill.(k) + 1)
      t.sets.(i)
  done;
  (* Rows were scanned in increasing i, so each out.(k) is already sorted. *)
  { rows = t.cols; cols = t.rows; sets = out }

let col_weights t =
  let counts = Array.make t.cols 0 in
  Array.iter (Array.iter (fun k -> counts.(k) <- counts.(k) + 1)) t.sets;
  counts

let map_rows t f =
  let sets = Array.mapi (fun i r -> normalize_row ~cols:t.cols i (f i r)) t.sets in
  { t with sets }

let filter_entries t pred =
  map_rows t (fun i r -> Array.of_list (List.filter (pred i) (Array.to_list r)))

let to_dense t =
  let d = Array.init t.rows (fun _ -> Array.make t.cols 0) in
  Array.iteri (fun i r -> Array.iter (fun k -> d.(i).(k) <- 1) r) t.sets;
  d

let equal a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun r1 r2 -> r1 = r2) a.sets b.sets
