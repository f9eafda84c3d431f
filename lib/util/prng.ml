type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = int64 t in
  { state = mix64 s }

let fresh_seed t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let derive seed a b =
  let open Int64 in
  let s = mix64 (of_int seed) in
  let s = mix64 (logxor s (mul (of_int a) 0x9E3779B97F4A7C15L)) in
  let s = mix64 (logxor s (mul (of_int b) 0xC2B2AE3D27D4EB4FL)) in
  { state = s }

let bits t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod bound in
    if r - v > (1 lsl 62) - bound then go () else v
  in
  go ()

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int r *. 0x1.0p-53

let float_pos t =
  let r = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  (float_of_int r +. 1.0) *. 0x1.0p-53

let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t < p

let gaussian t =
  let u1 = float_pos t and u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let exponential t = -.log (float_pos t)

let binomial t n p =
  if n < 0 then invalid_arg "Prng.binomial: negative n";
  if p <= 0.0 then 0
  else if p >= 1.0 then n
  else if n <= 64 then (
    let c = ref 0 in
    for _ = 1 to n do
      if bernoulli t p then incr c
    done;
    !c)
  else if float_of_int n *. p <= 30.0 then (
    (* Inversion: count geometric skips between successes. *)
    let log_q = log (1.0 -. p) in
    let rec go acc count =
      let acc = acc +. (log (float_pos t) /. log_q) in
      if acc > float_of_int n then count else go (acc +. 1.0) (count + 1)
    in
    go 0.0 0)
  else (
    (* Split recursively around the median to keep the walk short. *)
    let half = n / 2 in
    let left = ref 0 in
    for _ = 1 to half do
      if bernoulli t p then incr left
    done;
    let rest = n - half in
    let right = ref 0 in
    for _ = 1 to rest do
      if bernoulli t p then incr right
    done;
    !left + !right)

let geometric_level t r =
  if not (r > 0.0 && r < 1.0) then invalid_arg "Prng.geometric_level: rate";
  let u = float_pos t in
  (* largest l with u <= r^l, i.e. l = floor(log u / log r) *)
  let l = int_of_float (Float.floor (log u /. log r)) in
  if l < 0 then 0 else l

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
