let nonempty name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty array")

let float_sum xs =
  let sum = ref 0.0 and comp = ref 0.0 in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !sum +. y in
      comp := t -. !sum -. y;
      sum := t)
    xs;
  !sum

let mean xs =
  nonempty "mean" xs;
  float_sum xs /. float_of_int (Array.length xs)

let variance xs =
  nonempty "variance" xs;
  let m = mean xs in
  let devs = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
  float_sum devs /. float_of_int (Array.length xs)

(* --- order statistics ---------------------------------------------------

   Selection in place on a float array, in [Float.compare]'s order (NaN
   below everything, 0.0 = -0.0), with monomorphic comparisons so no
   float is boxed. *)

let[@inline] lt x y = x < y || (Float.is_nan x && not (Float.is_nan y))

let[@inline] swap a i j =
  let t = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j t

let insertion_sort a lo hi =
  for i = lo + 1 to hi do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && lt x (Array.unsafe_get a !j) do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* Leaves the k-th smallest (from 0) at [a.(k)], nothing greater before
   it and nothing smaller after it, and returns it. Quickselect with a
   median-of-three pivot and Hoare partitioning, which stops on keys
   equal to the pivot so duplicates split evenly; a window still open
   after 2·log2 n rounds is sorted, which bounds the worst case at
   O(n log n). *)
let select a k =
  let n = Array.length a in
  let lo = ref 0 and hi = ref (n - 1) and rounds = ref 0 in
  let rec log2i m = if m <= 1 then 0 else 1 + log2i (m lsr 1) in
  let budget = 2 * log2i n in
  while !hi > !lo do
    let l = !lo and r = !hi in
    if r - l < 16 then begin
      insertion_sort a l r;
      lo := r
    end
    else if !rounds >= budget then begin
      let w = Array.sub a l (r - l + 1) in
      Array.sort Float.compare w;
      Array.blit w 0 a l (r - l + 1);
      lo := r
    end
    else begin
      incr rounds;
      (* a.(l) <= a.(l+1) <= a.(r): the pivot a.(l+1) between sentinels. *)
      swap a ((l + r) / 2) (l + 1);
      if lt (Array.unsafe_get a r) (Array.unsafe_get a l) then swap a l r;
      if lt (Array.unsafe_get a r) (Array.unsafe_get a (l + 1)) then swap a (l + 1) r;
      if lt (Array.unsafe_get a (l + 1)) (Array.unsafe_get a l) then swap a l (l + 1);
      let pivot = Array.unsafe_get a (l + 1) in
      let i = ref (l + 1) and j = ref r in
      let continue = ref true in
      while !continue do
        incr i;
        while lt (Array.unsafe_get a !i) pivot do incr i done;
        decr j;
        while lt pivot (Array.unsafe_get a !j) do decr j done;
        if !j < !i then continue := false else swap a !i !j
      done;
      Array.unsafe_set a (l + 1) (Array.unsafe_get a !j);
      Array.unsafe_set a !j pivot;
      if !j >= k then hi := !j - 1;
      if !j <= k then lo := !i
    end
  done;
  a.(k)

let median_in_place xs =
  nonempty "median" xs;
  let n = Array.length xs in
  let k = n / 2 in
  let upper = select xs k in
  if n land 1 = 1 then upper
  else begin
    (* The (k-1)-th is the largest of the k entries select left below. *)
    let lower = ref xs.(0) in
    for i = 1 to k - 1 do
      let x = Array.unsafe_get xs i in
      if lt !lower x then lower := x
    done;
    (!lower +. upper) /. 2.0
  end

let median xs = median_in_place (Array.copy xs)

let quantile xs q =
  nonempty "quantile" xs;
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Stats.quantile: q range";
  let n = Array.length xs in
  select (Array.copy xs) (int_of_float (Float.round (q *. float_of_int (n - 1))))

let median_of_means xs ~groups =
  nonempty "median_of_means" xs;
  let n = Array.length xs in
  let groups = max 1 (min groups n) in
  let size = n / groups in
  let means =
    Array.init groups (fun g ->
        let lo = g * size in
        let hi = if g = groups - 1 then n else lo + size in
        let acc = ref 0.0 in
        for i = lo to hi - 1 do
          acc := !acc +. xs.(i)
        done;
        !acc /. float_of_int (hi - lo))
  in
  median means

let total_variation p q =
  if Array.length p <> Array.length q then
    invalid_arg "Stats.total_variation: length mismatch";
  let norm xs =
    let s = float_sum xs in
    if s <= 0.0 then invalid_arg "Stats.total_variation: zero mass";
    Array.map (fun x -> x /. s) xs
  in
  let p = norm p and q = norm q in
  let diffs = Array.init (Array.length p) (fun i -> Float.abs (p.(i) -. q.(i))) in
  0.5 *. float_sum diffs

let chi_square ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Stats.chi_square: length mismatch";
  let terms =
    Array.init (Array.length observed) (fun i ->
        let e = expected.(i) in
        if e <= 0.0 then invalid_arg "Stats.chi_square: nonpositive expected";
        let d = float_of_int observed.(i) -. e in
        d *. d /. e)
  in
  float_sum terms

let relative_error ~actual ~estimate =
  if actual = 0.0 then if estimate = 0.0 then 0.0 else Float.infinity
  else Float.abs (estimate -. actual) /. Float.abs actual

let approx_factor ~actual ~estimate =
  if actual < 0.0 || estimate < 0.0 then
    invalid_arg "Stats.approx_factor: negative input";
  if actual = 0.0 && estimate = 0.0 then 1.0
  else if actual = 0.0 || estimate = 0.0 then Float.infinity
  else Float.max (actual /. estimate) (estimate /. actual)

let log2 x = log x /. log 2.0
