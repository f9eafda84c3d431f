(* Tests for the util substrate: PRNG, field arithmetic, hashing, stable
   sampling, statistics. *)

module Prng = Matprod_util.Prng
module Field31 = Matprod_util.Field31
module Hashing = Matprod_util.Hashing
module Stable = Matprod_util.Stable
module Stats = Matprod_util.Stats

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 8 (fun _ -> Prng.bits a) in
  let ys = List.init 8 (fun _ -> Prng.bits b) in
  check Alcotest.bool "streams differ" true (xs <> ys)

let test_prng_split_independent () =
  let a = Prng.create 7 in
  let child = Prng.split a in
  let xs = List.init 8 (fun _ -> Prng.bits a) in
  let ys = List.init 8 (fun _ -> Prng.bits child) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_prng_float_range () =
  let t = Prng.create 3 in
  for _ = 1 to 1000 do
    let f = Prng.float t in
    check Alcotest.bool "in [0,1)" true (f >= 0.0 && f < 1.0);
    let g = Prng.float_pos t in
    check Alcotest.bool "in (0,1]" true (g > 0.0 && g <= 1.0)
  done

let test_prng_int_bounds () =
  let t = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int t 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_uniform () =
  let t = Prng.create 5 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Prng.int t 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = Array.make 10 (float_of_int trials /. 10.0) in
  let chi2 = Stats.chi_square ~observed:counts ~expected in
  (* 9 dof; 99.9th percentile ~ 27.9 *)
  check Alcotest.bool "chi-square plausible" true (chi2 < 30.0)

let test_prng_gaussian_moments () =
  let t = Prng.create 6 in
  let xs = Array.init 50_000 (fun _ -> Prng.gaussian t) in
  let m = Stats.mean xs and v = Stats.variance xs in
  check Alcotest.bool "mean near 0" true (Float.abs m < 0.02);
  check Alcotest.bool "variance near 1" true (Float.abs (v -. 1.0) < 0.05)

let test_prng_exponential_moments () =
  let t = Prng.create 7 in
  let xs = Array.init 50_000 (fun _ -> Prng.exponential t) in
  check Alcotest.bool "mean near 1" true (Float.abs (Stats.mean xs -. 1.0) < 0.03);
  Array.iter (fun x -> check Alcotest.bool "positive" true (x > 0.0)) xs

let test_prng_binomial_exact_edges () =
  let t = Prng.create 8 in
  check Alcotest.int "p=0" 0 (Prng.binomial t 100 0.0);
  check Alcotest.int "p=1" 100 (Prng.binomial t 100 1.0);
  check Alcotest.int "n=0" 0 (Prng.binomial t 0 0.5)

let test_prng_binomial_moments () =
  let t = Prng.create 9 in
  List.iter
    (fun (n, p) ->
      let xs = Array.init 20_000 (fun _ -> float_of_int (Prng.binomial t n p)) in
      let want_mean = float_of_int n *. p in
      let want_var = float_of_int n *. p *. (1.0 -. p) in
      let m = Stats.mean xs and v = Stats.variance xs in
      check Alcotest.bool
        (Printf.sprintf "mean n=%d p=%.2f" n p)
        true
        (Float.abs (m -. want_mean) < 0.05 *. Float.max 1.0 want_mean);
      check Alcotest.bool
        (Printf.sprintf "var n=%d p=%.2f" n p)
        true
        (Float.abs (v -. want_var) < 0.1 *. Float.max 1.0 want_var))
    [ (10, 0.3); (100, 0.05); (500, 0.5); (1000, 0.01) ]

let test_geometric_level_distribution () =
  let t = Prng.create 10 in
  let r = 0.5 in
  let trials = 100_000 in
  let counts = Array.make 20 0 in
  for _ = 1 to trials do
    let l = min 19 (Prng.geometric_level t r) in
    counts.(l) <- counts.(l) + 1
  done;
  (* P(level >= l) = r^l, so P(level = l) = r^l (1-r) = 2^-(l+1). *)
  let p0 = float_of_int counts.(0) /. float_of_int trials in
  let p1 = float_of_int counts.(1) /. float_of_int trials in
  check Alcotest.bool "level0 ~ 1/2" true (Float.abs (p0 -. 0.5) < 0.01);
  check Alcotest.bool "level1 ~ 1/4" true (Float.abs (p1 -. 0.25) < 0.01)

let test_derive_deterministic () =
  let a = Prng.derive 11 3 5 and b = Prng.derive 11 3 5 in
  for _ = 1 to 20 do
    check Alcotest.int "same derived stream" (Prng.bits a) (Prng.bits b)
  done;
  let c = Prng.derive 11 3 6 in
  check Alcotest.bool "different cell differs" true (Prng.bits c <> Prng.bits (Prng.derive 11 3 5))

let test_shuffle_permutation () =
  let t = Prng.create 12 in
  let a = Array.init 100 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.bool "is a permutation" true (sorted = Array.init 100 (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Field31 *)

let test_field_basics () =
  check Alcotest.int "p" 2147483647 Field31.p;
  check Alcotest.int "add wrap" 0 (Field31.add (Field31.p - 1) 1);
  check Alcotest.int "sub wrap" (Field31.p - 1) (Field31.sub 0 1);
  check Alcotest.int "of_int negative" (Field31.p - 5) (Field31.of_int (-5));
  check Alcotest.int "mul small" 35 (Field31.mul 5 7)

let test_field_mul_matches_slow () =
  let t = Prng.create 13 in
  for _ = 1 to 1000 do
    let a = Prng.int t Field31.p and b = Prng.int t Field31.p in
    (* Reference via arbitrary-precision-ish: split b = bh*2^16 + bl. *)
    let bh = b lsr 16 and bl = b land 0xffff in
    let slow =
      let partial = a * bh mod Field31.p in
      let shifted = partial * 65536 mod Field31.p in
      (shifted + (a * bl mod Field31.p)) mod Field31.p
    in
    check Alcotest.int "mul agrees with split reference" slow (Field31.mul a b)
  done

let test_field_inverse () =
  let t = Prng.create 14 in
  for _ = 1 to 200 do
    let a = 1 + Prng.int t (Field31.p - 1) in
    check Alcotest.int "a * a^-1 = 1" 1 (Field31.mul a (Field31.inv a))
  done;
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Field31.inv 0))

let test_field_pow () =
  check Alcotest.int "b^0" 1 (Field31.pow 12345 0);
  check Alcotest.int "b^1" 12345 (Field31.pow 12345 1);
  check Alcotest.int "2^31 mod p = 1" 1 (Field31.pow 2 31);
  (* Fermat: a^(p-1) = 1 *)
  check Alcotest.int "fermat" 1 (Field31.pow 98765 (Field31.p - 1))

let test_poly_eval () =
  (* 3 + 2x + x^2 at x=5 -> 38 *)
  check Alcotest.int "horner" 38 (Field31.poly_eval [| 3; 2; 1 |] 5)

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_hash_deterministic () =
  let rng = Prng.create 15 in
  let h = Hashing.create rng ~k:4 in
  check Alcotest.int "same key same value" (Hashing.value h 123) (Hashing.value h 123);
  check Alcotest.int "degree" 4 (Hashing.degree h)

let test_hash_bucket_range () =
  let rng = Prng.create 16 in
  let h = Hashing.create rng ~k:2 in
  for key = 0 to 999 do
    let b = Hashing.bucket h ~buckets:7 key in
    check Alcotest.bool "bucket range" true (b >= 0 && b < 7)
  done

let test_hash_bucket_balance () =
  let rng = Prng.create 17 in
  let h = Hashing.create rng ~k:2 in
  let buckets = 16 in
  let counts = Array.make buckets 0 in
  let keys = 64_000 in
  for key = 0 to keys - 1 do
    let b = Hashing.bucket h ~buckets key in
    counts.(b) <- counts.(b) + 1
  done;
  let expected = Array.make buckets (float_of_int keys /. float_of_int buckets) in
  let chi2 = Stats.chi_square ~observed:counts ~expected in
  check Alcotest.bool "balanced" true (chi2 < 80.0)

let test_hash_sign_balance () =
  let rng = Prng.create 18 in
  let h = Hashing.create rng ~k:4 in
  let pos = ref 0 in
  let keys = 40_000 in
  for key = 0 to keys - 1 do
    let s = Hashing.sign h key in
    check Alcotest.bool "sign is +-1" true (s = 1 || s = -1);
    if s = 1 then incr pos
  done;
  let frac = float_of_int !pos /. float_of_int keys in
  check Alcotest.bool "balanced signs" true (Float.abs (frac -. 0.5) < 0.02)

let test_hash_pairwise_collisions () =
  (* Pairwise independence => collision probability ~ 1/buckets. *)
  let rng = Prng.create 19 in
  let trials = 2000 in
  let buckets = 64 in
  let colls = ref 0 in
  for _ = 1 to trials do
    let h = Hashing.create rng ~k:2 in
    if Hashing.bucket h ~buckets 17 = Hashing.bucket h ~buckets 42 then incr colls
  done;
  let frac = float_of_int !colls /. float_of_int trials in
  check Alcotest.bool "collision rate ~ 1/64" true (frac < 3.0 /. 64.0)

let test_field_coeff_nonzero () =
  let rng = Prng.create 20 in
  let h = Hashing.create rng ~k:2 in
  for key = 0 to 999 do
    check Alcotest.bool "nonzero" true (Hashing.field_coeff h key <> 0)
  done

(* ------------------------------------------------------------------ *)
(* Stable *)

let test_stable_p2_is_gaussian () =
  let rng = Prng.create 21 in
  let xs = Array.init 50_000 (fun _ -> Stable.sample rng ~p:2.0) in
  (* Variance should be 2 (the stable scaling). *)
  check Alcotest.bool "variance ~ 2" true (Float.abs (Stats.variance xs -. 2.0) < 0.1)

let test_stable_p1_is_cauchy () =
  let rng = Prng.create 22 in
  let xs = Array.init 50_000 (fun _ -> Float.abs (Stable.sample rng ~p:1.0)) in
  let med = Stats.median xs in
  (* Median of |Cauchy| = 1. *)
  check Alcotest.bool "median ~ 1" true (Float.abs (med -. 1.0) < 0.03)

let test_stable_median_abs_constants () =
  checkf "p=1" 1.0 (Stable.median_abs ~p:1.0);
  check Alcotest.bool "p=2" true
    (Float.abs (Stable.median_abs ~p:2.0 -. (sqrt 2.0 *. 0.674489750196082)) < 1e-9)

let test_stable_median_abs_calibration () =
  (* Empirical median of fresh samples should match the cached constant. *)
  List.iter
    (fun p ->
      let c = Stable.median_abs ~p in
      let rng = Prng.create 23 in
      let xs = Array.init 100_000 (fun _ -> Float.abs (Stable.sample rng ~p)) in
      let med = Stats.median xs in
      check Alcotest.bool
        (Printf.sprintf "calibration p=%.2f" p)
        true
        (Float.abs (med -. c) /. c < 0.03))
    [ 0.5; 1.5 ]

(* The calibration on its own, single-domain: the median of |X| over
   200 001 draws from the fixed seed 0x5eedab1e. *)
let calibrated_median ~p =
  let rng = Prng.create 0x5eedab1e in
  let xs = Array.init 200_001 (fun _ -> Float.abs (Stable.sample rng ~p)) in
  Array.sort Float.compare xs;
  xs.(100_000)

(* Pool tasks on 4 domains ask at once for p values no test has used, so
   they all find the cache empty and fill it concurrently; each gets the
   single-domain calibration bit for bit. *)
let test_stable_median_abs_domains () =
  let module Pool = Matprod_util.Pool in
  let ps = [| 0.37; 0.43 |] in
  let got =
    Pool.set_size 4;
    Fun.protect
      ~finally:(fun () -> Pool.set_size 1)
      (fun () -> Pool.init 8 (fun i -> Stable.median_abs ~p:ps.(i mod 2)))
  in
  let want = Array.map (fun p -> calibrated_median ~p) ps in
  Array.iteri
    (fun i m ->
      check Alcotest.bool
        (Printf.sprintf "task %d, p=%.2f" i ps.(i mod 2))
        true
        (Int64.equal (Int64.bits_of_float m) (Int64.bits_of_float want.(i mod 2))))
    got

let test_stable_sums () =
  (* 1-stability of Cauchy: x+y for independent Cauchy ~ 2*Cauchy. *)
  let rng = Prng.create 24 in
  let xs =
    Array.init 50_000 (fun _ ->
        Float.abs (Stable.sample rng ~p:1.0 +. Stable.sample rng ~p:1.0))
  in
  let med = Stats.median xs in
  check Alcotest.bool "median ~ 2" true (Float.abs (med -. 2.0) < 0.06)

let test_stable_rejects_bad_p () =
  let rng = Prng.create 25 in
  Alcotest.check_raises "p=0" (Invalid_argument "Stable: p must be in (0, 2]")
    (fun () -> ignore (Stable.sample rng ~p:0.0));
  Alcotest.check_raises "p=2.5" (Invalid_argument "Stable: p must be in (0, 2]")
    (fun () -> ignore (Stable.sample rng ~p:2.5))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_median () =
  checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  checkf "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

(* NaN orders below every value, as in Float.compare; a rank among
   compare-equal ties (0.0 and -0.0) returns one of them. *)
let test_stats_median_ties () =
  checkf "nan lowest" 1.0 (Stats.median [| 2.0; Float.nan; 1.0 |]);
  check Alcotest.bool "nan median" true
    (Float.is_nan (Stats.median [| Float.nan; 3.0; Float.nan |]));
  check Alcotest.int "signed zeros" 0
    (Float.compare 0.0 (Stats.median [| -0.0; 1.0; 0.0; -1.0; -0.0 |]));
  let xs = [| 5.0; -0.0; 3.0; 0.0; 9.0; 1.0 |] in
  let before = Array.to_list xs |> List.map Int64.bits_of_float |> List.sort compare in
  checkf "in place, even" 2.0 (Stats.median_in_place xs);
  check Alcotest.(list int64) "a permutation of the input" before
    (Array.to_list xs |> List.map Int64.bits_of_float |> List.sort compare)

let test_stats_variance () =
  (* Population variance of {1,3,5} is 8/3. *)
  check (Alcotest.float 1e-9) "variance" (8.0 /. 3.0) (Stats.variance [| 1.0; 3.0; 5.0 |]);
  checkf "constant" 0.0 (Stats.variance [| 2.0; 2.0; 2.0 |])

let test_stats_quantile () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  checkf "q0" 0.0 (Stats.quantile xs 0.0);
  checkf "q50" 50.0 (Stats.quantile xs 0.5);
  checkf "q100" 100.0 (Stats.quantile xs 1.0)

let test_stats_median_of_means () =
  let xs = Array.make 90 1.0 in
  xs.(89) <- 1000.0;
  (* One outlier lands in one group; the median of 9 group means is 1. *)
  checkf "robust to outlier" 1.0 (Stats.median_of_means xs ~groups:9)

let test_stats_tv () =
  checkf "identical" 0.0 (Stats.total_variation [| 1.0; 1.0 |] [| 2.0; 2.0 |]);
  checkf "disjoint" 1.0 (Stats.total_variation [| 1.0; 0.0 |] [| 0.0; 1.0 |])

let test_stats_relative_error () =
  checkf "exact" 0.0 (Stats.relative_error ~actual:10.0 ~estimate:10.0);
  checkf "ten percent" 0.1 (Stats.relative_error ~actual:10.0 ~estimate:11.0);
  check Alcotest.bool "zero actual" true
    (Stats.relative_error ~actual:0.0 ~estimate:1.0 = Float.infinity)

let test_stats_approx_factor () =
  checkf "equal" 1.0 (Stats.approx_factor ~actual:5.0 ~estimate:5.0);
  checkf "double" 2.0 (Stats.approx_factor ~actual:5.0 ~estimate:10.0);
  checkf "half" 2.0 (Stats.approx_factor ~actual:10.0 ~estimate:5.0);
  checkf "both zero" 1.0 (Stats.approx_factor ~actual:0.0 ~estimate:0.0)

let test_stats_float_sum_kahan () =
  let xs = Array.make 10_000_000 0.1 in
  let s = Stats.float_sum xs in
  check Alcotest.bool "compensated" true (Float.abs (s -. 1e6) < 1e-4)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

(* ------------------------------------------------------------------ *)
(* Fft *)

module Fft = Matprod_util.Fft

let test_fft_roundtrip () =
  let t = Prng.create 60 in
  let n = 64 in
  let re = Array.init n (fun _ -> Prng.gaussian t) in
  let im = Array.init n (fun _ -> Prng.gaussian t) in
  let re' = Array.copy re and im' = Array.copy im in
  Fft.fft ~re:re' ~im:im';
  Fft.ifft ~re:re' ~im:im';
  Array.iteri
    (fun i x -> check Alcotest.bool "re restored" true (Float.abs (x -. re'.(i)) < 1e-9))
    re;
  Array.iteri
    (fun i x -> check Alcotest.bool "im restored" true (Float.abs (x -. im'.(i)) < 1e-9))
    im

let test_fft_impulse () =
  (* FFT of a unit impulse is all-ones. *)
  let n = 16 in
  let re = Array.make n 0.0 and im = Array.make n 0.0 in
  re.(0) <- 1.0;
  Fft.fft ~re ~im;
  Array.iter (fun x -> checkf "flat spectrum" 1.0 x) re;
  Array.iter (fun x -> checkf "no imaginary" 0.0 x) im

let test_fft_parseval () =
  let t = Prng.create 61 in
  let n = 128 in
  let re = Array.init n (fun _ -> Prng.gaussian t) in
  let im = Array.make n 0.0 in
  let energy_time =
    Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 re
  in
  Fft.fft ~re ~im;
  let energy_freq = ref 0.0 in
  for k = 0 to n - 1 do
    energy_freq := !energy_freq +. (re.(k) *. re.(k)) +. (im.(k) *. im.(k))
  done;
  check Alcotest.bool "parseval" true
    (Float.abs ((!energy_freq /. float_of_int n) -. energy_time) < 1e-6 *. energy_time)

let test_fft_convolve_matches_naive () =
  let t = Prng.create 62 in
  let n = 32 in
  let x = Array.init n (fun _ -> float_of_int (Prng.int t 10)) in
  let y = Array.init n (fun _ -> float_of_int (Prng.int t 10)) in
  let naive =
    Array.init n (fun i ->
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (x.(j) *. y.((i - j + n) mod n))
        done;
        !acc)
  in
  let fast = Fft.convolve x y in
  Array.iteri
    (fun i v ->
      check Alcotest.bool "conv entry" true (Float.abs (v -. fast.(i)) < 1e-6))
    naive

let test_fft_rejects_bad_sizes () =
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Fft: length must be a power of two") (fun () ->
      Fft.fft ~re:(Array.make 6 0.0) ~im:(Array.make 6 0.0));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Fft: re/im length mismatch") (fun () ->
      Fft.fft ~re:(Array.make 8 0.0) ~im:(Array.make 4 0.0))

(* [Stable.sample] as it was written before it shared its formulas with
   [Stable.fill_derived]: draws taken from the stream one at a time. *)
let reference_sample rng ~p =
  if p = 2.0 then sqrt 2.0 *. Prng.gaussian rng
  else
    let theta = (Prng.float rng -. 0.5) *. Float.pi in
    if p = 1.0 then tan theta
    else
      let w = Prng.exponential rng in
      let a = sin (p *. theta) /. (cos theta ** (1.0 /. p)) in
      let b = (cos ((1.0 -. p) *. theta) /. w) ** ((1.0 -. p) /. p) in
      a *. b

let stable_ps = [ 0.5; 0.7; 1.0; 1.5; 2.0 ]

let qcheck_tests =
  let open QCheck in
  let bits = Int64.bits_of_float in
  [
    Test.make ~name:"stable: sample is the reference formula, bit for bit"
      ~count:200 (int_bound max_int) (fun seed ->
        List.for_all
          (fun p ->
            let a = Prng.create seed and b = Prng.create seed in
            List.for_all
              (fun _ -> bits (Stable.sample a ~p) = bits (reference_sample b ~p))
              [ 1; 2; 3 ]
            && Prng.int64 a = Prng.int64 b)
          stable_ps);
    Test.make ~name:"stable: fill_derived is sample on Prng.derive, bit for bit"
      ~count:100
      (triple (int_bound max_int) (int_range 1 12) (int_range 1 12))
      (fun (seed, rows, dim) ->
        List.for_all
          (fun p ->
            let a = Array.make (rows * dim) nan in
            Stable.fill_derived ~p ~seed ~rows ~dim a;
            List.for_all
              (fun i ->
                List.for_all
                  (fun r ->
                    bits a.((i * rows) + r)
                    = bits (Stable.sample (Prng.derive seed r i) ~p))
                  (List.init rows Fun.id))
              (List.init dim Fun.id))
          stable_ps);
    Test.make ~name:"field: mul commutative" ~count:500
      (pair (int_bound (Field31.p - 1)) (int_bound (Field31.p - 1)))
      (fun (a, b) -> Field31.mul a b = Field31.mul b a);
    Test.make ~name:"field: mul distributes over add" ~count:500
      (triple (int_bound (Field31.p - 1)) (int_bound (Field31.p - 1))
         (int_bound (Field31.p - 1)))
      (fun (a, b, c) ->
        Field31.mul a (Field31.add b c)
        = Field31.add (Field31.mul a b) (Field31.mul a c));
    Test.make ~name:"field: add associative" ~count:500
      (triple (int_bound (Field31.p - 1)) (int_bound (Field31.p - 1))
         (int_bound (Field31.p - 1)))
      (fun (a, b, c) ->
        Field31.add a (Field31.add b c) = Field31.add (Field31.add a b) c);
    Test.make ~name:"field: sub inverts add" ~count:500
      (pair (int_bound (Field31.p - 1)) (int_bound (Field31.p - 1)))
      (fun (a, b) -> Field31.sub (Field31.add a b) b = a);
    Test.make ~name:"stats: median between min and max" ~count:200
      (array_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
      (fun xs ->
        let m = Stats.median xs in
        let mn = Array.fold_left Float.min Float.infinity xs in
        let mx = Array.fold_left Float.max Float.neg_infinity xs in
        m >= mn && m <= mx);
    (* The specification: a sort by Float.compare, then the median's
       and nearest rank's formulas. Heavy duplicates straddle every rank;
       0.0 and ±infinity are in, -0.0 and NaN out (their ties are
       unspecified bit for bit). *)
    (let elt =
       Gen.frequency
         [
           (6, Gen.oneofl [ 1.0; 2.0; 2.5; -3.0; 1e300 ]);
           (2, Gen.return 0.0);
           (1, Gen.return Float.infinity);
           (1, Gen.return Float.neg_infinity);
           (3, Gen.float_range (-10.0) 10.0);
         ]
     in
     let bits = Int64.bits_of_float in
     Test.make ~name:"stats: median and quantile equal the sort's, bit for bit"
       ~count:300
       (make ~print:Print.(array float) Gen.(array_size (1 -- 600) elt))
       (fun xs ->
         let ys = Array.copy xs in
         Array.sort Float.compare ys;
         let n = Array.length ys in
         let median =
           if n land 1 = 1 then ys.(n / 2)
           else (ys.((n / 2) - 1) +. ys.(n / 2)) /. 2.0
         in
         let keep = Array.copy xs in
         bits (Stats.median xs) = bits median
         && xs = keep
         && List.for_all
              (fun q ->
                let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
                bits (Stats.quantile xs q) = bits ys.(idx))
              [ 0.0; 0.1; 0.5; 0.9; 1.0 ]));
    Test.make ~name:"stats: tv symmetric" ~count:200
      (pair
         (array_of_size (Gen.return 8) (float_range 0.1 10.0))
         (array_of_size (Gen.return 8) (float_range 0.1 10.0)))
      (fun (p, q) ->
        Float.abs (Stats.total_variation p q -. Stats.total_variation q p) < 1e-12);
    Test.make ~name:"prng: int within bound" ~count:200
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let t = Prng.create seed in
        let v = Prng.int t bound in
        v >= 0 && v < bound);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "float ranges" `Quick test_prng_float_range;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_prng_int_uniform;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "exponential moments" `Slow test_prng_exponential_moments;
          Alcotest.test_case "binomial edges" `Quick test_prng_binomial_exact_edges;
          Alcotest.test_case "binomial moments" `Slow test_prng_binomial_moments;
          Alcotest.test_case "geometric levels" `Slow test_geometric_level_distribution;
          Alcotest.test_case "derive deterministic" `Quick test_derive_deterministic;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        ] );
      ( "field31",
        [
          Alcotest.test_case "basics" `Quick test_field_basics;
          Alcotest.test_case "mul reference" `Quick test_field_mul_matches_slow;
          Alcotest.test_case "inverse" `Quick test_field_inverse;
          Alcotest.test_case "pow" `Quick test_field_pow;
          Alcotest.test_case "poly eval" `Quick test_poly_eval;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "bucket range" `Quick test_hash_bucket_range;
          Alcotest.test_case "bucket balance" `Slow test_hash_bucket_balance;
          Alcotest.test_case "sign balance" `Slow test_hash_sign_balance;
          Alcotest.test_case "pairwise collisions" `Slow test_hash_pairwise_collisions;
          Alcotest.test_case "field coeff nonzero" `Quick test_field_coeff_nonzero;
        ] );
      ( "stable",
        [
          Alcotest.test_case "p=2 gaussian" `Slow test_stable_p2_is_gaussian;
          Alcotest.test_case "p=1 cauchy" `Slow test_stable_p1_is_cauchy;
          Alcotest.test_case "median constants" `Quick test_stable_median_abs_constants;
          Alcotest.test_case "median calibration" `Slow test_stable_median_abs_calibration;
          Alcotest.test_case "median at 4 domains" `Quick test_stable_median_abs_domains;
          Alcotest.test_case "stability of sums" `Slow test_stable_sums;
          Alcotest.test_case "rejects bad p" `Quick test_stable_rejects_bad_p;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean median" `Quick test_stats_mean_median;
          Alcotest.test_case "median ties" `Quick test_stats_median_ties;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "median of means" `Quick test_stats_median_of_means;
          Alcotest.test_case "total variation" `Quick test_stats_tv;
          Alcotest.test_case "relative error" `Quick test_stats_relative_error;
          Alcotest.test_case "approx factor" `Quick test_stats_approx_factor;
          Alcotest.test_case "kahan sum" `Slow test_stats_float_sum_kahan;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "parseval" `Quick test_fft_parseval;
          Alcotest.test_case "convolution" `Quick test_fft_convolve_matches_naive;
          Alcotest.test_case "rejects bad sizes" `Quick test_fft_rejects_bad_sizes;
        ] );
      ("properties", qsuite);
    ]
