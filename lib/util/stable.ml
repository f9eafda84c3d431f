let check_p p =
  if not (p > 0.0 && p <= 2.0) then invalid_arg "Stable: p must be in (0, 2]"

(* [Prng.float] and [Prng.float_pos] of a raw 64-bit draw. *)
let[@inline] unit_of d =
  float_of_int (Int64.to_int (Int64.shift_right_logical d 11)) *. 0x1.0p-53

let[@inline] unit_pos_of d =
  (float_of_int (Int64.to_int (Int64.shift_right_logical d 11)) +. 1.0) *. 0x1.0p-53

(* The draw that a stream's first two 64-bit draws [d1] and [d2] give;
   [d2] is unused at p = 1. *)
let[@inline] of_draws ~p d1 d2 =
  if p = 2.0 then
    (* [sqrt 2.0 *. Prng.gaussian] *)
    sqrt 2.0 *. (sqrt (-2.0 *. log (unit_pos_of d1)) *. cos (2.0 *. Float.pi *. unit_of d2))
  else
    let theta = (unit_of d1 -. 0.5) *. Float.pi in
    if p = 1.0 then tan theta
    else
      (* Chambers–Mallows–Stuck for the symmetric case. *)
      let w = -.log (unit_pos_of d2) in
      let a = sin (p *. theta) /. (cos theta ** (1.0 /. p)) in
      let b = (cos ((1.0 -. p) *. theta) /. w) ** ((1.0 -. p) /. p) in
      a *. b

let sample rng ~p =
  check_p p;
  let d1 = Prng.int64 rng in
  let d2 = if p = 1.0 then 0L else Prng.int64 rng in
  of_draws ~p d1 d2

(* [Prng.derive]'s stream, computed here rather than called across
   modules so that every state and draw stays in an unboxed local. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden_gamma = 0x9E3779B97F4A7C15L

let fill_derived ~p ~seed ~rows ~dim a =
  check_p p;
  if rows < 0 || dim < 0 || Array.length a < rows * dim then
    invalid_arg "Stable.fill_derived: shape";
  let open Int64 in
  let s0 = mix64 (of_int seed) in
  for r = 0 to rows - 1 do
    let sr = mix64 (logxor s0 (mul (of_int r) golden_gamma)) in
    for i = 0 to dim - 1 do
      let s = mix64 (logxor sr (mul (of_int i) 0xC2B2AE3D27D4EB4FL)) in
      let s1 = add s golden_gamma in
      let d1 = mix64 s1 and d2 = mix64 (add s1 golden_gamma) in
      Array.unsafe_set a ((i * rows) + r) (of_draws ~p d1 d2)
    done
  done

(* Median of |N(0,1)| is the 0.75 normal quantile. *)
let normal_q75 = 0.674489750196082

let calibration_samples = 200_001

(* Calibrated medians by p, filled on first use. Pool tasks reach
   [median_abs] from several domains at once, so the table is only read
   or written under [lock]; a domain that finds p missing computes it
   while holding the lock, and the others wait for its value. *)
let cache : (float, float) Hashtbl.t = Hashtbl.create 8
let lock = Mutex.create ()

let median_abs ~p =
  check_p p;
  if p = 2.0 then sqrt 2.0 *. normal_q75
  else if p = 1.0 then 1.0
  else
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt cache p with
        | Some m -> m
        | None ->
            let rng = Prng.create 0x5eedab1e in
            let xs =
              Array.init calibration_samples (fun _ -> Float.abs (sample rng ~p))
            in
            (* An odd count: the median is the middle order statistic. *)
            let m = Stats.median_in_place xs in
            Hashtbl.replace cache p m;
            m)
