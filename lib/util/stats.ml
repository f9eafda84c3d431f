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

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort Float.compare ys;
  ys

let median xs =
  nonempty "median" xs;
  let ys = sorted_copy xs in
  let n = Array.length ys in
  if n land 1 = 1 then ys.(n / 2)
  else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0

let quantile xs q =
  nonempty "quantile" xs;
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Stats.quantile: q range";
  let ys = sorted_copy xs in
  let n = Array.length ys in
  let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
  ys.(idx)

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
