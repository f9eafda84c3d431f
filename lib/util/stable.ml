let check_p p =
  if not (p > 0.0 && p <= 2.0) then invalid_arg "Stable: p must be in (0, 2]"

let sample rng ~p =
  check_p p;
  if p = 2.0 then sqrt 2.0 *. Prng.gaussian rng
  else
    let theta = (Prng.float rng -. 0.5) *. Float.pi in
    if p = 1.0 then tan theta
    else
      (* Chambers–Mallows–Stuck for the symmetric case. *)
      let w = Prng.exponential rng in
      let a = sin (p *. theta) /. (cos theta ** (1.0 /. p)) in
      let b = (cos ((1.0 -. p) *. theta) /. w) ** ((1.0 -. p) /. p) in
      a *. b

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
