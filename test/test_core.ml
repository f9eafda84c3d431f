(* End-to-end tests of the paper's protocols against exact ground truth:
   approximation guarantees, round counts, reproducibility, and input
   validation. *)

module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Workload = Matprod_workload.Workload

module Common = Matprod_core.Common
module Lp_protocol = Matprod_core.Lp_protocol
module Lp_oneround = Matprod_core.Lp_oneround
module L1_exact = Matprod_core.L1_exact
module L1_sampling = Matprod_core.L1_sampling
module L0_sampling = Matprod_core.L0_sampling
module Linf_binary = Matprod_core.Linf_binary
module Linf_kappa = Matprod_core.Linf_kappa
module Linf_general = Matprod_core.Linf_general
module Matprod_protocol = Matprod_core.Matprod_protocol
module Hh_general = Matprod_core.Hh_general
module Hh_binary = Matprod_core.Hh_binary
module Cohen_baseline = Matprod_core.Cohen_baseline
module Trivial = Matprod_core.Trivial
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry

let check = Alcotest.check

let bool_pair rng ~n ~density =
  ( Workload.uniform_bool rng ~rows:n ~cols:n ~density,
    Workload.uniform_bool rng ~rows:n ~cols:n ~density )

(* ------------------------------------------------------------------ *)
(* Common helpers *)

let test_entry_map () =
  let m = Common.Entry_map.create () in
  Common.Entry_map.add m 1 2 5;
  Common.Entry_map.add m 1 2 (-5);
  check Alcotest.int "cancel" 0 (Common.Entry_map.nnz m);
  Common.Entry_map.add m 0 0 3;
  Common.Entry_map.add m 4 4 (-7);
  check Alcotest.int "linf" 7 (Common.Entry_map.linf m);
  check Alcotest.int "get" 3 (Common.Entry_map.get m 0 0);
  Common.Entry_map.add_outer m [| (1, 2) |] [| (3, 4) |];
  check Alcotest.int "outer" 8 (Common.Entry_map.get m 1 3)

let test_row_times_matrix () =
  let b = Imat.of_dense [| [| 1; 0 |]; [| 2; 3 |] |] in
  let row = [| (0, 2); (1, 1) |] in
  (* [2,1] * [[1,0],[2,3]] = [4,3] *)
  check Alcotest.bool "product row" true
    (Common.row_times_matrix row b = [| 4; 3 |])

let test_group_of () =
  check Alcotest.int "small" 0 (Common.group_of ~beta:0.5 0.5);
  check Alcotest.int "one" 0 (Common.group_of ~beta:0.5 1.0);
  (* (1.5)^2 = 2.25 -> group 2 *)
  check Alcotest.int "geometric" 2 (Common.group_of ~beta:0.5 2.25)

(* ------------------------------------------------------------------ *)
(* Algorithm 1 (Lp_protocol) *)

let lp_accuracy_run ~p ~eps ~n ~density ~seed =
  let rng = Prng.create seed in
  let a, b = bool_pair rng ~n ~density in
  let actual = Product.lp_pow (Product.bool_product a b) ~p in
  let r =
    Ctx.run ~seed:(seed + 1000) (fun ctx ->
        Lp_protocol.run ctx
          (Lp_protocol.default_params ~p ~eps ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  (actual, r)

let test_lp_accuracy_all_p () =
  List.iter
    (fun p ->
      let failures = ref 0 in
      for seed = 1 to 8 do
        let actual, r = lp_accuracy_run ~p ~eps:0.25 ~n:80 ~density:0.08 ~seed in
        let err = Stats.relative_error ~actual ~estimate:r.Ctx.output in
        if err > 0.3 then incr failures
      done;
      check Alcotest.bool
        (Printf.sprintf "p=%.1f accurate on most seeds" p)
        true (!failures <= 1))
    [ 0.0; 0.5; 1.0; 2.0 ]

let test_lp_two_rounds () =
  let _, r = lp_accuracy_run ~p:0.0 ~eps:0.5 ~n:40 ~density:0.1 ~seed:3 in
  check Alcotest.int "2 rounds" 2 r.Ctx.rounds

let test_lp_reproducible () =
  let _, r1 = lp_accuracy_run ~p:1.0 ~eps:0.5 ~n:40 ~density:0.1 ~seed:4 in
  let _, r2 = lp_accuracy_run ~p:1.0 ~eps:0.5 ~n:40 ~density:0.1 ~seed:4 in
  check (Alcotest.float 0.0) "same output" r1.Ctx.output r2.Ctx.output;
  check Alcotest.int "same bits" r1.Ctx.bits r2.Ctx.bits

let test_lp_zero_product () =
  (* A has only left-half columns, B only right-half rows: C = 0. *)
  let n = 30 in
  let rng = Prng.create 5 in
  let a =
    Bmat.filter_entries
      (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.3)
      (fun _ k -> k < n / 2)
  in
  let b =
    Bmat.filter_entries
      (Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.3)
      (fun k _ -> k >= n / 2)
  in
  let r =
    Ctx.run ~seed:6 (fun ctx ->
        Lp_protocol.run ctx
          (Lp_protocol.default_params ~p:0.0 ~eps:0.5 ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.bool "near zero" true (r.Ctx.output < 1.0)

let test_lp_rejects_bad_params () =
  let a = Imat.of_dense [| [| 1 |] |] in
  Alcotest.check_raises "bad p" (Invalid_argument "Lp_protocol: p must be in [0,2]")
    (fun () ->
      ignore
        (Ctx.run ~seed:1 (fun ctx ->
             Lp_protocol.run ctx
               { p = 3.0; eps = 0.5; sketch_groups = 3; rho_const = 10.0 }
               ~a ~b:a)));
  let b2 = Imat.of_dense [| [| 1; 2 |] |] in
  Alcotest.check_raises "dims" (Invalid_argument "Lp_protocol: dims") (fun () ->
      ignore
        (Ctx.run ~seed:1 (fun ctx ->
             Lp_protocol.run ctx (Lp_protocol.default_params ~eps:0.5 ()) ~a:b2 ~b:b2)))

let test_lp_integer_matrices () =
  let rng = Prng.create 7 in
  let a = Workload.uniform_int rng ~rows:60 ~cols:60 ~density:0.1 ~max_value:4 in
  let b = Workload.uniform_int rng ~rows:60 ~cols:60 ~density:0.1 ~max_value:4 in
  let actual = Product.lp_pow (Product.int_product a b) ~p:2.0 in
  let failures = ref 0 in
  for seed = 1 to 5 do
    let r =
      Ctx.run ~seed (fun ctx ->
          Lp_protocol.run ctx (Lp_protocol.default_params ~p:2.0 ~eps:0.25 ()) ~a ~b)
    in
    if Stats.relative_error ~actual ~estimate:r.Ctx.output > 0.35 then
      incr failures
  done;
  check Alcotest.bool "integer p=2 accurate" true (!failures <= 1)

let test_lp_row_norm_subprotocol () =
  let rng = Prng.create 8 in
  let a, b = bool_pair rng ~n:50 ~density:0.12 in
  let c = Product.bool_product a b in
  let actual = Product.row_lp_pow c ~p:1.0 in
  let r =
    Ctx.run ~seed:9 (fun ctx ->
        Lp_protocol.estimate_row_norms ctx
          (Lp_protocol.default_params ~p:1.0 ~eps:0.3 ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  let bad = ref 0 in
  Array.iteri
    (fun i est ->
      if actual.(i) > 5.0 then
        if Stats.relative_error ~actual:actual.(i) ~estimate:est > 0.5 then
          incr bad)
    r.Ctx.output;
  check Alcotest.bool "most row norms in range" true (!bad <= 3)

(* ------------------------------------------------------------------ *)
(* One-round baseline *)

let test_oneround_accuracy_and_rounds () =
  let rng = Prng.create 10 in
  let a, b = bool_pair rng ~n:60 ~density:0.1 in
  let actual = Product.lp_pow (Product.bool_product a b) ~p:0.0 in
  let failures = ref 0 in
  let rounds = ref 0 in
  for seed = 1 to 5 do
    let r =
      Ctx.run ~seed (fun ctx ->
          Lp_oneround.run ctx
            (Lp_oneround.default_params ~p:0.0 ~eps:0.25 ())
            ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
    in
    rounds := r.Ctx.rounds;
    if Stats.relative_error ~actual ~estimate:r.Ctx.output > 0.3 then
      incr failures
  done;
  check Alcotest.int "1 round" 1 !rounds;
  check Alcotest.bool "accurate" true (!failures <= 1)

let test_oneround_costs_more_than_tworound () =
  (* The headline separation: at equal eps, 1-round pays 1/eps^2 while
     Algorithm 1 pays 1/eps. Check measured bytes reflect it. *)
  let rng = Prng.create 11 in
  let a, b = bool_pair rng ~n:64 ~density:0.1 in
  let eps = 0.1 in
  let one =
    Ctx.run ~seed:1 (fun ctx ->
        Lp_oneround.run ctx
          (Lp_oneround.default_params ~p:0.0 ~eps ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  let two =
    Ctx.run ~seed:1 (fun ctx ->
        Lp_protocol.run ctx
          (Lp_protocol.default_params ~p:0.0 ~eps ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.bool "one-round strictly more expensive" true
    (one.Ctx.bits > two.Ctx.bits)

(* ------------------------------------------------------------------ *)
(* Remark 2 / Remark 3 *)

let test_l1_exact () =
  let rng = Prng.create 12 in
  let a, b = bool_pair rng ~n:70 ~density:0.15 in
  let actual = Product.l1 (Product.bool_product a b) in
  let r = Ctx.run ~seed:1 (fun ctx -> L1_exact.run_bool ctx ~a ~b) in
  check Alcotest.int "exact" actual r.Ctx.output;
  check Alcotest.int "1 round" 1 r.Ctx.rounds;
  (* Integer version *)
  let ai = Workload.uniform_int rng ~rows:30 ~cols:30 ~density:0.2 ~max_value:5 in
  let bi = Workload.uniform_int rng ~rows:30 ~cols:30 ~density:0.2 ~max_value:5 in
  let actual_i = Product.l1 (Product.int_product ai bi) in
  let ri = Ctx.run ~seed:2 (fun ctx -> L1_exact.run ctx ~a:ai ~b:bi) in
  check Alcotest.int "integer exact" actual_i ri.Ctx.output

let test_l1_exact_rejects_negative () =
  let m = Imat.of_dense [| [| -1 |] |] in
  Alcotest.check_raises "negative"
    (Invalid_argument "L1_exact: requires non-negative matrices") (fun () ->
      ignore (Ctx.run ~seed:1 (fun ctx -> L1_exact.run ctx ~a:m ~b:m)))

let test_l1_sampling_distribution () =
  (* Small product; empirical sample distribution vs C/||C||_1. *)
  let a = Bmat.of_dense [| [| 1; 1; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 0 |] |] in
  let b = Bmat.of_dense [| [| 1; 0; 0 |]; [| 1; 1; 0 |]; [| 0; 0; 0 |] |] in
  let c = Product.bool_product a b in
  let l1 = Product.l1 c in
  let counts = Hashtbl.create 8 in
  let trials = 3000 in
  for seed = 1 to trials do
    let r =
      Ctx.run ~seed (fun ctx ->
          L1_sampling.run ctx ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
    in
    match r.Ctx.output with
    | Some s ->
        let key = (s.L1_sampling.row, s.L1_sampling.col) in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    | None -> Alcotest.fail "sampler returned None on nonzero product"
  done;
  (* Compare to the exact distribution. *)
  Product.iter c (fun i j v ->
      let want = float_of_int v /. float_of_int l1 in
      let got =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts (i, j)))
        /. float_of_int trials
      in
      check Alcotest.bool
        (Printf.sprintf "entry (%d,%d) frequency" i j)
        true
        (Float.abs (got -. want) < 0.05));
  (* Nothing outside the support is ever sampled. *)
  Hashtbl.iter
    (fun (i, j) _ ->
      check Alcotest.bool "in support" true (Product.get c i j > 0))
    counts

let test_l1_sampling_zero () =
  let z = Imat.zero ~rows:5 ~cols:5 in
  let r = Ctx.run ~seed:1 (fun ctx -> L1_sampling.run ctx ~a:z ~b:z) in
  check Alcotest.bool "none" true (r.Ctx.output = None)

(* ------------------------------------------------------------------ *)
(* Theorem 3.2 (l0 sampling) *)

let test_l0_sampling_support_and_rounds () =
  let rng = Prng.create 13 in
  let a, b = bool_pair rng ~n:48 ~density:0.08 in
  let c = Product.bool_product a b in
  if Product.nnz c = 0 then Alcotest.fail "test workload degenerate";
  let ok = ref 0 and fails = ref 0 in
  let rounds = ref 0 in
  for seed = 1 to 30 do
    let r =
      Ctx.run ~seed (fun ctx ->
          L0_sampling.run ctx
            (L0_sampling.default_params ~eps:0.3)
            ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
    in
    rounds := r.Ctx.rounds;
    match r.Ctx.output with
    | Some s ->
        let v = Product.get c s.L0_sampling.row s.L0_sampling.col in
        check Alcotest.int "recovered value exact" v s.L0_sampling.value;
        if v > 0 then incr ok
    | None -> incr fails
  done;
  check Alcotest.int "1 round" 1 !rounds;
  check Alcotest.bool "mostly succeeds" true (!ok >= 26)

let test_l0_sampling_zero_product () =
  let z = Imat.zero ~rows:10 ~cols:10 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        L0_sampling.run ctx (L0_sampling.default_params ~eps:0.5) ~a:z ~b:z)
  in
  check Alcotest.bool "none" true (r.Ctx.output = None)

let test_l0_sampling_run_many () =
  let rng = Prng.create 32 in
  let a, b = bool_pair rng ~n:40 ~density:0.1 in
  let c = Product.bool_product a b in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        L0_sampling.run_many ctx
          (L0_sampling.default_params ~eps:0.3)
          ~count:8 ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.int "one speaking phase" 1 r.Ctx.rounds;
  let got = ref 0 in
  Array.iter
    (function
      | Some s ->
          incr got;
          check Alcotest.int "value exact"
            (Product.get c s.L0_sampling.row s.L0_sampling.col)
            s.L0_sampling.value
      | None -> ())
    r.Ctx.output;
  check Alcotest.bool "most samples land" true (!got >= 6);
  (* Batched cost must be well below 8 independent runs. *)
  let single =
    Ctx.run ~seed:1 (fun ctx ->
        L0_sampling.run ctx
          (L0_sampling.default_params ~eps:0.3)
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.bool "amortised" true (r.Ctx.bits < 8 * single.Ctx.bits)

let test_l0_sampling_near_uniform () =
  let a = Bmat.of_dense [| [| 1; 0 |]; [| 1; 1 |] |] in
  let b = Bmat.of_dense [| [| 1; 1 |]; [| 0; 1 |] |] in
  (* C = [[1,1],[1,2]]: support = 4 entries. *)
  let counts = Hashtbl.create 4 in
  let trials = 1200 in
  let got = ref 0 in
  for seed = 1 to trials do
    let r =
      Ctx.run ~seed (fun ctx ->
          L0_sampling.run ctx
            (L0_sampling.default_params ~eps:0.4)
            ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
    in
    match r.Ctx.output with
    | Some s ->
        incr got;
        let key = (s.L0_sampling.row, s.L0_sampling.col) in
        Hashtbl.replace counts key
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
    | None -> ()
  done;
  check Alcotest.bool "mostly succeeds" true (!got > trials * 8 / 10);
  Hashtbl.iter
    (fun _ c ->
      let frac = float_of_int c /. float_of_int !got in
      check Alcotest.bool "roughly uniform (1/4 each)" true
        (frac > 0.15 && frac < 0.35))
    counts;
  check Alcotest.int "all four entries seen" 4 (Hashtbl.length counts)

(* ------------------------------------------------------------------ *)
(* Algorithm 2 (Linf binary) *)

let test_linf_binary_planted () =
  let failures = ref 0 in
  let rounds = ref 0 in
  for seed = 1 to 6 do
    let rng = Prng.create (100 + seed) in
    let a, b, _ = Workload.planted_pair rng ~n:96 ~density:0.05 ~overlap:40 in
    let actual = float_of_int (Product.linf (Product.bool_product a b)) in
    let r =
      Ctx.run ~seed (fun ctx ->
          Linf_binary.run ctx (Linf_binary.default_params ~eps:0.25) ~a ~b)
    in
    rounds := r.Ctx.rounds;
    let est = r.Ctx.output.Linf_binary.estimate in
    (* (2+eps) approximation with slack for the level estimate. *)
    if not (est >= actual /. 2.6 && est <= actual *. 1.6) then incr failures
  done;
  check Alcotest.bool "3 speaking phases" true (!rounds <= 3);
  check Alcotest.bool "(2+eps) approx holds" true (!failures <= 1)

let test_linf_binary_zero () =
  let z = Bmat.zero ~rows:8 ~cols:8 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Linf_binary.run ctx (Linf_binary.default_params ~eps:0.5) ~a:z ~b:z)
  in
  check (Alcotest.float 0.0) "zero" 0.0 r.Ctx.output.Linf_binary.estimate

let test_linf_binary_sampling_engages () =
  (* Dense instance with small threshold: level > 0 must be chosen and the
     estimate still within (2+eps)-ish. *)
  let rng = Prng.create 14 in
  let a, b = bool_pair rng ~n:72 ~density:0.4 in
  let actual = float_of_int (Product.linf (Product.bool_product a b)) in
  let ok = ref 0 and engaged = ref false in
  for seed = 1 to 6 do
    let r =
      Ctx.run ~seed (fun ctx ->
          Linf_binary.run_with ctx ~base:1.25
            ~threshold:(0.05 *. float_of_int (72 * 72 * 72))
            ~a ~b)
    in
    if r.Ctx.output.Linf_binary.level > 0 then engaged := true;
    let est = r.Ctx.output.Linf_binary.estimate in
    if est >= actual /. 3.0 && est <= actual *. 2.0 then incr ok
  done;
  check Alcotest.bool "subsampling engaged" true !engaged;
  check Alcotest.bool "estimates still good" true (!ok >= 5)

(* ------------------------------------------------------------------ *)
(* Algorithm 3 (Linf kappa) *)

let test_linf_kappa_planted () =
  let failures = ref 0 in
  for seed = 1 to 6 do
    let rng = Prng.create (200 + seed) in
    let a, b, _ = Workload.planted_pair rng ~n:128 ~density:0.04 ~overlap:60 in
    let actual = float_of_int (Product.linf (Product.bool_product a b)) in
    let kappa = 6.0 in
    let r =
      Ctx.run ~seed (fun ctx ->
          Linf_kappa.run ctx (Linf_kappa.default_params ~kappa) ~a ~b)
    in
    let est = r.Ctx.output.Linf_kappa.estimate in
    if not (est >= actual /. (2.0 *. kappa) && est <= actual *. 2.0 *. kappa)
    then incr failures
  done;
  check Alcotest.bool "kappa approx holds" true (!failures <= 1)

let test_linf_kappa_zero_and_tiny () =
  let z = Bmat.zero ~rows:16 ~cols:16 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Linf_kappa.run ctx (Linf_kappa.default_params ~kappa:4.0) ~a:z ~b:z)
  in
  check (Alcotest.float 0.0) "zero" 0.0 r.Ctx.output.Linf_kappa.estimate

(* ------------------------------------------------------------------ *)
(* Theorem 4.8 (Linf general) *)

let test_linf_general_accuracy () =
  let failures = ref 0 in
  let rounds = ref 0 in
  for seed = 1 to 6 do
    let rng = Prng.create (300 + seed) in
    let a = Workload.uniform_int rng ~rows:64 ~cols:64 ~density:0.1 ~max_value:8 in
    let b = Workload.uniform_int rng ~rows:64 ~cols:64 ~density:0.1 ~max_value:8 in
    let actual = float_of_int (Product.linf (Product.int_product a b)) in
    let kappa = 4.0 in
    let r =
      Ctx.run ~seed (fun ctx -> Linf_general.run ctx { kappa } ~a ~b)
    in
    rounds := r.Ctx.rounds;
    if not (r.Ctx.output >= actual /. 2.0 && r.Ctx.output <= actual *. 2.0 *. kappa)
    then incr failures
  done;
  check Alcotest.int "1 round" 1 !rounds;
  check Alcotest.bool "within kappa" true (!failures <= 1)

let test_linf_general_size_scales () =
  let rng = Prng.create 15 in
  let a = Workload.uniform_int rng ~rows:96 ~cols:96 ~density:0.1 ~max_value:5 in
  let b = Workload.uniform_int rng ~rows:96 ~cols:96 ~density:0.1 ~max_value:5 in
  let bits k =
    (Ctx.run ~seed:1 (fun ctx -> Linf_general.run ctx { kappa = k } ~a ~b)).Ctx.bits
  in
  check Alcotest.bool "kappa=8 much cheaper than kappa=2" true
    (bits 8.0 * 4 < bits 2.0)

(* ------------------------------------------------------------------ *)
(* Distributed matrix product (Lemma 2.5 stand-in) *)

let test_matprod_shares_exact () =
  for seed = 1 to 5 do
    let rng = Prng.create (400 + seed) in
    let a = Workload.uniform_int rng ~rows:40 ~cols:40 ~density:0.1 ~max_value:3 in
    let b = Workload.uniform_int rng ~rows:40 ~cols:40 ~density:0.1 ~max_value:3 in
    let c = Product.int_product a b in
    let r = Ctx.run ~seed (fun ctx -> Matprod_protocol.run ctx ~a ~b) in
    let shares = r.Ctx.output in
    (* C_A + C_B = A·B entry-wise. *)
    let combined = Common.Entry_map.create () in
    Common.Entry_map.merge_into ~dst:combined shares.Matprod_protocol.alice;
    Common.Entry_map.merge_into ~dst:combined shares.Matprod_protocol.bob;
    check Alcotest.int "same support size" (Product.nnz c)
      (Common.Entry_map.nnz combined);
    Product.iter c (fun i j v ->
        check Alcotest.int "entry" v (Common.Entry_map.get combined i j))
  done

let test_matprod_cheaper_than_trivial_on_sparse () =
  (* A dense, B sparse: shipping all of A is expensive, while the min-side
     exchange only pays for B's small supports. *)
  let rng = Prng.create 16 in
  let a = Workload.uniform_int rng ~rows:100 ~cols:100 ~density:0.3 ~max_value:2 in
  let b = Workload.uniform_int rng ~rows:100 ~cols:100 ~density:0.02 ~max_value:2 in
  let r = Ctx.run ~seed:1 (fun ctx -> Matprod_protocol.run ctx ~a ~b) in
  let t =
    Ctx.run ~seed:1 (fun ctx -> Trivial.run_int ctx ~a ~b (fun c -> Product.nnz c))
  in
  check Alcotest.bool "beats shipping A" true (r.Ctx.bits < t.Ctx.bits)

(* ------------------------------------------------------------------ *)
(* Heavy hitters *)

let hh_band_ok ~p ~phi ~eps c s =
  let must = Product.heavy_hitters c ~p ~phi in
  let may = Product.heavy_hitters c ~p ~phi:(phi -. eps) in
  List.for_all (fun e -> List.mem e s) must
  && List.for_all (fun e -> List.mem e may) s

let test_hh_general_band () =
  let ok = ref 0 in
  for seed = 1 to 6 do
    let rng = Prng.create (500 + seed) in
    let a, b =
      Workload.planted_heavy_hitters rng ~n:100 ~density:0.02
        ~heavy:[ (2, 50); (2, 30) ]
    in
    let c = Product.bool_product a b in
    let phi = 0.02 and eps = 0.01 in
    let r =
      Ctx.run ~seed (fun ctx ->
          Hh_general.run ctx
            (Hh_general.default_params ~phi ~eps ())
            ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
    in
    if hh_band_ok ~p:1.0 ~phi ~eps c r.Ctx.output then incr ok
  done;
  check Alcotest.bool "band holds on most seeds" true (!ok >= 5)

let test_hh_general_empty () =
  let z = Imat.zero ~rows:10 ~cols:10 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Hh_general.run ctx (Hh_general.default_params ~phi:0.1 ~eps:0.05 ()) ~a:z ~b:z)
  in
  check Alcotest.bool "empty" true (r.Ctx.output = [])

let test_hh_general_rejects_bad_band () =
  let m = Imat.of_dense [| [| 1 |] |] in
  Alcotest.check_raises "eps > phi"
    (Invalid_argument "Hh_general: need 0 < eps <= phi <= 1") (fun () ->
      ignore
        (Ctx.run ~seed:1 (fun ctx ->
             Hh_general.run ctx
               (Hh_general.default_params ~phi:0.1 ~eps:0.2 ())
               ~a:m ~b:m)))

let test_hh_binary_band () =
  let ok = ref 0 in
  for seed = 1 to 6 do
    let rng = Prng.create (600 + seed) in
    let a, b =
      Workload.planted_heavy_hitters rng ~n:100 ~density:0.02
        ~heavy:[ (2, 50); (2, 30) ]
    in
    let c = Product.bool_product a b in
    let phi = 0.02 and eps = 0.01 in
    let r =
      Ctx.run ~seed (fun ctx ->
          Hh_binary.run ctx (Hh_binary.default_params ~phi ~eps ()) ~a ~b)
    in
    if hh_band_ok ~p:1.0 ~phi ~eps c r.Ctx.output then incr ok
  done;
  check Alcotest.bool "band holds on most seeds" true (!ok >= 5)

let test_hh_binary_near_linear_bits () =
  (* Theorem 5.3's cost is Õ(n + ϕ/ε²): doubling n should well less than
     quadruple the measured bits (an n^2-type protocol would 4x). *)
  let phi = 0.02 and eps = 0.01 in
  let bits n =
    let rng = Prng.create (700 + n) in
    let a, b =
      Workload.planted_heavy_hitters rng ~n ~density:0.03 ~heavy:[ (2, 60) ]
    in
    (Ctx.run ~seed:1 (fun ctx ->
         Hh_binary.run ctx (Hh_binary.default_params ~phi ~eps ()) ~a ~b))
      .Ctx.bits
  in
  let b128 = bits 128 and b256 = bits 256 in
  check Alcotest.bool "sub-quadratic growth" true (b256 < 3 * b128)

(* ------------------------------------------------------------------ *)
(* CountSketch baseline ([32] adaptation) *)

module Hh_countsketch = Matprod_core.Hh_countsketch

let test_hh_countsketch_band () =
  let ok = ref 0 in
  for seed = 1 to 4 do
    let rng = Prng.create (800 + seed) in
    let a, b, _ =
      Workload.planted_heavy_int rng ~n:64 ~density:0.03 ~max_value:4
        ~heavy:[ (2, 25, 12) ]
    in
    let c = Product.int_product a b in
    let l1 = float_of_int (Product.l1 c) in
    let phi = 0.8 *. float_of_int (Product.linf c) /. l1 in
    let eps = phi /. 2.0 in
    let r =
      Ctx.run ~seed (fun ctx ->
          Hh_countsketch.run ctx
            (Hh_countsketch.default_params ~phi ~eps ~buckets:1024)
            ~a ~b)
    in
    if hh_band_ok ~p:1.0 ~phi ~eps c r.Ctx.output then incr ok
  done;
  check Alcotest.bool "band holds on most seeds" true (!ok >= 3)

let test_hh_countsketch_one_round () =
  let rng = Prng.create 20 in
  let a = Workload.uniform_int rng ~rows:32 ~cols:32 ~density:0.1 ~max_value:3 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Hh_countsketch.run ctx
          (Hh_countsketch.default_params ~phi:0.5 ~eps:0.25 ~buckets:128)
          ~a ~b:a)
  in
  check Alcotest.int "one speaking phase" 1 r.Ctx.rounds

let test_hh_countsketch_empty () =
  let z = Imat.zero ~rows:8 ~cols:8 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Hh_countsketch.run ctx
          (Hh_countsketch.default_params ~phi:0.2 ~eps:0.1 ~buckets:64)
          ~a:z ~b:z)
  in
  check Alcotest.bool "empty" true (r.Ctx.output = [])

(* ------------------------------------------------------------------ *)
(* Boosting (median trick) *)

module Boosting = Matprod_core.Boosting
module Outcome = Matprod_core.Outcome

let test_boosting_improves_reliability () =
  (* A deliberately under-sized Algorithm 1 has noticeable failure odds;
     the 9-fold median's error must not exceed the typical single-run's. *)
  let rng = Prng.create 21 in
  let a, b = bool_pair rng ~n:60 ~density:0.1 in
  let actual = Product.lp_pow (Product.bool_product a b) ~p:0.0 in
  let prm =
    {
      Lp_protocol.p = 0.0;
      eps = 0.5;
      sketch_groups = 1;
      rho_const = 16.0;
    }
  in
  let f ctx = Lp_protocol.run ctx prm ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b) in
  let boosted =
    match Boosting.run_median_safe ~seed:9 ~repetitions:9 f with
    | Ok r -> r
    | Error e -> Alcotest.failf "boosting failed: %s" (Outcome.error_to_string e)
  in
  let single_errs =
    Array.map
      (fun est -> Stats.relative_error ~actual ~estimate:est)
      boosted.Boosting.runs
  in
  let med_err =
    Stats.relative_error ~actual ~estimate:boosted.Boosting.estimate
  in
  let worst = Array.fold_left Float.max 0.0 single_errs in
  check Alcotest.bool "median no worse than the worst run" true (med_err <= worst);
  check Alcotest.bool "median estimate reasonable" true (med_err < 0.6);
  check Alcotest.int "bits accumulate over runs" 9
    (Array.length boosted.Boosting.runs)

let test_boosting_repetitions_for () =
  let r = Boosting.repetitions_for ~delta:0.01 in
  check Alcotest.bool "odd" true (r land 1 = 1);
  check Alcotest.bool "grows with confidence" true
    (Boosting.repetitions_for ~delta:1e-6 > r)

(* ------------------------------------------------------------------ *)
(* Cohen baseline *)

let test_cohen_baseline_accuracy () =
  let rng = Prng.create 18 in
  let a, b = bool_pair rng ~n:64 ~density:0.1 in
  let actual = float_of_int (Product.nnz (Product.bool_product a b)) in
  let failures = ref 0 in
  for seed = 1 to 5 do
    let r =
      Ctx.run ~seed (fun ctx ->
          Cohen_baseline.run ctx (Cohen_baseline.params_for_eps ~eps:0.2) ~a ~b)
    in
    if Stats.relative_error ~actual ~estimate:r.Ctx.output > 0.25 then
      incr failures
  done;
  check Alcotest.bool "accurate" true (!failures <= 1)

(* ------------------------------------------------------------------ *)
(* Trivial baseline *)

let test_trivial_exact_and_bits () =
  let rng = Prng.create 19 in
  let a, b = bool_pair rng ~n:40 ~density:0.2 in
  let c = Product.bool_product a b in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Trivial.run_bool ctx ~a ~b (fun c -> (Product.nnz c, Product.linf c)))
  in
  check Alcotest.int "nnz exact" (Product.nnz c) (fst r.Ctx.output);
  check Alcotest.int "linf exact" (Product.linf c) (snd r.Ctx.output);
  (* Bitmap: n*m bits + small header. *)
  check Alcotest.bool "about n^2 bits" true
    (r.Ctx.bits >= 40 * 40 && r.Ctx.bits <= (40 * 40) + 128)

(* ------------------------------------------------------------------ *)
(* Session (amortised queries) *)

module Session = Matprod_core.Session

let test_session_queries_free () =
  let rng = Prng.create 24 in
  let a, b = bool_pair rng ~n:60 ~density:0.1 in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  let c = Product.bool_product a b in
  let ctx = Ctx.create ~seed:1 () in
  let s = Session.establish ctx ~beta:0.3 ~a:ai ~b:bi in
  let bits_after_establish = Transcript.total_bits (Ctx.transcript ctx) in
  (* Many queries, no new communication. *)
  let norm = Session.norm_pow s in
  for i = 0 to 59 do
    ignore (Session.row_norm_pow s i)
  done;
  ignore (Session.top_rows s ~k:5);
  check Alcotest.int "queries are free" bits_after_establish
    (Transcript.total_bits (Ctx.transcript ctx));
  let actual = Product.lp_pow c ~p:0.0 in
  check Alcotest.bool "norm estimate in range" true
    (Stats.relative_error ~actual ~estimate:norm < 0.5)

let test_session_top_rows () =
  (* Plant one dominant row: it must top the ranking. *)
  let rng = Prng.create 25 in
  let n = 60 in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.03 in
  let a =
    Bmat.map_rows a (fun i r ->
        if i = 17 then Array.init n (fun k -> k) else r)
  in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.15 in
  let ctx = Ctx.create ~seed:2 () in
  let s =
    Session.establish ~p:1.0 ctx ~beta:0.3 ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b)
  in
  match Session.top_rows s ~k:3 with
  | (top, _) :: _ -> check Alcotest.int "dominant row found" 17 top
  | [] -> Alcotest.fail "no rows returned"

let test_session_refine_improves () =
  let rng = Prng.create 26 in
  let a, b = bool_pair rng ~n:100 ~density:0.08 in
  let ai = Imat.of_bmat a and bi = Imat.of_bmat b in
  let actual = Product.lp_pow (Product.bool_product a b) ~p:0.0 in
  let coarse_errs = ref [] and fine_errs = ref [] in
  for seed = 1 to 5 do
    let ctx = Ctx.create ~seed () in
    let s = Session.establish ctx ~beta:0.5 ~a:ai ~b:bi in
    coarse_errs :=
      Stats.relative_error ~actual ~estimate:(Session.norm_pow s) :: !coarse_errs;
    fine_errs :=
      Stats.relative_error ~actual ~estimate:(Session.refine ctx s) :: !fine_errs
  done;
  let med l = Stats.median (Array.of_list l) in
  check Alcotest.bool "refined estimate no worse" true
    (med !fine_errs <= med !coarse_errs +. 0.02)

(* ------------------------------------------------------------------ *)
(* Edge cases *)

let test_edge_one_by_one () =
  let one = Imat.of_dense [| [| 3 |] |] in
  let r = Ctx.run ~seed:1 (fun ctx -> L1_exact.run ctx ~a:one ~b:one) in
  check Alcotest.int "1x1 l1" 9 r.Ctx.output;
  let shares = Ctx.run ~seed:1 (fun ctx -> Matprod_protocol.run ctx ~a:one ~b:one) in
  let m = Common.Entry_map.create () in
  Common.Entry_map.merge_into ~dst:m shares.Ctx.output.Matprod_protocol.alice;
  Common.Entry_map.merge_into ~dst:m shares.Ctx.output.Matprod_protocol.bob;
  check Alcotest.int "1x1 product" 9 (Common.Entry_map.get m 0 0)

let test_edge_identity_product () =
  let n = 20 in
  let i = Bmat.identity n in
  let c = Product.bool_product i i in
  check Alcotest.int "I*I nnz" n (Product.nnz c);
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Linf_binary.run ctx (Linf_binary.default_params ~eps:0.5) ~a:i ~b:i)
  in
  check Alcotest.bool "linf of identity ~1" true
    (r.Ctx.output.Linf_binary.estimate >= 0.5
    && r.Ctx.output.Linf_binary.estimate <= 2.0)

let test_edge_skinny_rectangular () =
  (* 1 x n times n x 1: C is a single entry (an inner product). *)
  let rng = Prng.create 23 in
  let row = Workload.uniform_bool rng ~rows:1 ~cols:200 ~density:0.3 in
  let col = Workload.uniform_bool rng ~rows:200 ~cols:1 ~density:0.3 in
  let c = Product.bool_product row col in
  let exact = Product.get c 0 0 in
  let r = Ctx.run ~seed:1 (fun ctx -> L1_exact.run_bool ctx ~a:row ~b:col) in
  check Alcotest.int "inner product exact" exact r.Ctx.output

let test_edge_all_ones () =
  let n = 24 in
  let ones = Bmat.of_dense (Array.make_matrix n n 1) in
  let c = Product.bool_product ones ones in
  check Alcotest.int "all entries = n" n (Product.linf c);
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Lp_protocol.run ctx
          (Lp_protocol.default_params ~p:0.0 ~eps:0.5 ())
          ~a:(Imat.of_bmat ones) ~b:(Imat.of_bmat ones))
  in
  check Alcotest.bool "dense l0 close" true
    (Stats.relative_error ~actual:(float_of_int (n * n)) ~estimate:r.Ctx.output
    < 0.5)

(* ------------------------------------------------------------------ *)
(* [16]-style joins *)

module Joins = Matprod_core.Joins

let exact_equality_join a b =
  let bt = Bmat.transpose b in
  let count = ref 0 in
  for i = 0 to Bmat.rows a - 1 do
    for j = 0 to Bmat.rows bt - 1 do
      if Bmat.row a i = Bmat.row bt j then incr count
    done
  done;
  !count

let test_equality_join_exact () =
  let rng = Prng.create 40 in
  (* Low-cardinality rows so collisions actually occur. *)
  let pick () =
    match Prng.int rng 4 with
    | 0 -> [||]
    | 1 -> [| 1 |]
    | 2 -> [| 1; 5 |]
    | _ -> [| Prng.int rng 8 |]
  in
  let a = Bmat.create ~rows:30 ~cols:10 (Array.init 30 (fun _ -> pick ())) in
  let bt = Bmat.create ~rows:25 ~cols:10 (Array.init 25 (fun _ -> pick ())) in
  let b = Bmat.transpose bt in
  let r = Ctx.run ~seed:1 (fun ctx -> Joins.equality_join ctx ~a ~b) in
  check Alcotest.int "matches brute force" (exact_equality_join a b) r.Ctx.output;
  check Alcotest.int "1 round" 1 r.Ctx.rounds

let test_disjointness_join () =
  let rng = Prng.create 41 in
  let a, b = bool_pair rng ~n:60 ~density:0.08 in
  let c = Product.bool_product a b in
  let actual = float_of_int ((60 * 60) - Product.nnz c) in
  let r =
    Ctx.run ~seed:1 (fun ctx -> Joins.disjointness_join ctx ~eps:0.25 ~a ~b)
  in
  check Alcotest.bool "close" true
    (Float.abs (r.Ctx.output -. actual) < 0.1 *. (60.0 *. 60.0))

let test_at_least_t_join () =
  let rng = Prng.create 42 in
  let a, b = bool_pair rng ~n:50 ~density:0.15 in
  let c = Product.bool_product a b in
  let t = 2 in
  let actual =
    float_of_int
      (List.length
         (List.filter (fun (_, _, v) -> v >= t) (Array.to_list (Product.entries c))))
  in
  let l0 = float_of_int (Product.nnz c) in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Joins.at_least_t_join ctx
          { Joins.eps = 0.25; samples = 40 }
          ~t ~a ~b)
  in
  (* Additive guarantee relative to ||C||_0. *)
  check Alcotest.bool "within additive band" true
    (Float.abs (r.Ctx.output -. actual) < 0.35 *. l0)

(* ------------------------------------------------------------------ *)
(* Message-flow contracts (docs/PROTOCOLS.md) *)

let flow_of transcript =
  List.map
    (fun m -> (m.Transcript.sender, m.Transcript.label))
    (Transcript.messages transcript)

let test_flow_lp_protocol () =
  let rng = Prng.create 27 in
  let a, b = bool_pair rng ~n:30 ~density:0.1 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Lp_protocol.run ctx
          (Lp_protocol.default_params ~eps:0.5 ())
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.bool "B speaks then A" true
    (flow_of r.Ctx.transcript
    = [
        (Transcript.Bob, "lp-sketches(B rows)");
        (Transcript.Alice, "sampled rows of A");
      ])

let test_flow_l1_exact () =
  let rng = Prng.create 28 in
  let a, b = bool_pair rng ~n:30 ~density:0.1 in
  let r = Ctx.run ~seed:1 (fun ctx -> L1_exact.run_bool ctx ~a ~b) in
  check Alcotest.bool "single A message" true
    (flow_of r.Ctx.transcript = [ (Transcript.Alice, "column sums of A") ])

let test_flow_linf_binary () =
  let rng = Prng.create 29 in
  let a, b = bool_pair rng ~n:30 ~density:0.2 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        Linf_binary.run ctx (Linf_binary.default_params ~eps:0.5) ~a ~b)
  in
  match flow_of r.Ctx.transcript with
  | [ (Transcript.Alice, "level column sums of A");
      (Transcript.Bob, "l*, B weights, B index sets");
      (Transcript.Alice, "A index sets, |C_A|inf");
    ] -> ()
  | other ->
      Alcotest.failf "unexpected flow: %s"
        (String.concat "; " (List.map snd other))

let test_flow_matprod () =
  let rng = Prng.create 30 in
  let a = Workload.uniform_int rng ~rows:20 ~cols:20 ~density:0.2 ~max_value:3 in
  let r = Ctx.run ~seed:1 (fun ctx -> Matprod_protocol.run ctx ~a ~b:a) in
  match flow_of r.Ctx.transcript with
  | [ (Transcript.Alice, "support sizes of A cols");
      (Transcript.Bob, "B rows (smaller side)");
      (Transcript.Alice, "A cols (smaller side)");
    ] -> ()
  | other ->
      Alcotest.failf "unexpected flow: %s"
        (String.concat "; " (List.map snd other))

let test_flow_l0_sampling_single_direction () =
  let rng = Prng.create 31 in
  let a, b = bool_pair rng ~n:24 ~density:0.15 in
  let r =
    Ctx.run ~seed:1 (fun ctx ->
        L0_sampling.run ctx (L0_sampling.default_params ~eps:0.5)
          ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b))
  in
  check Alcotest.bool "all messages from Alice" true
    (List.for_all
       (fun (s, _) -> s = Transcript.Alice)
       (flow_of r.Ctx.transcript))

(* ------------------------------------------------------------------ *)
(* qcheck protocol properties *)

let small_nonneg_imat_gen =
  let open QCheck.Gen in
  let* rows = 1 -- 12 in
  let* cols = 1 -- 12 in
  let* seed = int_bound 100_000 in
  let* density10 = 1 -- 6 in
  let rng = Prng.create seed in
  return
    (Workload.uniform_int rng ~rows ~cols
       ~density:(float_of_int density10 /. 10.0)
       ~max_value:5)

let compatible_pair_gen =
  let open QCheck.Gen in
  let* rows = 1 -- 10 in
  let* inner = 1 -- 10 in
  let* cols = 1 -- 10 in
  let* s1 = int_bound 100_000 in
  let* s2 = int_bound 100_000 in
  let r1 = Prng.create s1 and r2 = Prng.create s2 in
  return
    ( Workload.uniform_int r1 ~rows ~cols:inner ~density:0.4 ~max_value:4,
      Workload.uniform_int r2 ~rows:inner ~cols ~density:0.4 ~max_value:4 )

let qcheck_protocol_tests =
  let open QCheck in
  [
    Test.make ~name:"L1_exact equals ground truth on random shapes" ~count:60
      (make compatible_pair_gen) (fun (a, b) ->
        let actual = Product.l1 (Product.int_product a b) in
        (Ctx.run ~seed:1 (fun ctx -> L1_exact.run ctx ~a ~b)).Ctx.output = actual);
    Test.make ~name:"Matprod shares always sum to the exact product" ~count:60
      (make compatible_pair_gen) (fun (a, b) ->
        let c = Product.int_product a b in
        let shares =
          (Ctx.run ~seed:2 (fun ctx -> Matprod_protocol.run ctx ~a ~b)).Ctx.output
        in
        let m = Common.Entry_map.create () in
        Common.Entry_map.merge_into ~dst:m shares.Matprod_protocol.alice;
        Common.Entry_map.merge_into ~dst:m shares.Matprod_protocol.bob;
        let ok = ref (Common.Entry_map.nnz m = Product.nnz c) in
        Product.iter c (fun i j v ->
            if Common.Entry_map.get m i j <> v then ok := false);
        !ok);
    Test.make ~name:"Trivial protocol is exact on random integer matrices"
      ~count:40 (make compatible_pair_gen) (fun (a, b) ->
        let c = Product.int_product a b in
        let got =
          (Ctx.run ~seed:3 (fun ctx ->
               Trivial.run_int ctx ~a ~b (fun c' ->
                   (Product.nnz c', Product.l1 c', Product.linf c'))))
            .Ctx.output
        in
        got = (Product.nnz c, Product.l1 c, Product.linf c));
    Test.make ~name:"L1_sampling returns entries of the support" ~count:40
      (make small_nonneg_imat_gen) (fun a ->
        let b = Imat.transpose a in
        let c = Product.int_product a b in
        match (Ctx.run ~seed:4 (fun ctx -> L1_sampling.run ctx ~a ~b)).Ctx.output with
        | None -> Product.l1 c = 0
        | Some s -> Product.get c s.L1_sampling.row s.L1_sampling.col > 0);
    Test.make ~name:"rounds never exceed the paper's O(1) bounds" ~count:20
      (make compatible_pair_gen) (fun (a, b) ->
        let r1 = Ctx.run ~seed:5 (fun ctx -> L1_exact.run ctx ~a ~b) in
        let r2 = Ctx.run ~seed:5 (fun ctx -> Matprod_protocol.run ctx ~a ~b) in
        r1.Ctx.rounds <= 1 && r2.Ctx.rounds <= 3);
  ]

(* ------------------------------------------------------------------ *)
(* Registry-wide invariants *)

let test_registry_names_unique () =
  let names = List.map (fun (e : Estimator.t) -> e.name) Registry.all in
  check Alcotest.int "20 entries" 20 (List.length names);
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Each entry's contract is what Verify and Merge act on. Its voting
   ratio must be finite, or no replica could ever be outvoted, and it
   must name the answer shape the entry really returns. *)
let test_registry_verify_families () =
  let a, b = Workload.gen_pair ~zipf:false ~seed:1 ~n:32 ~density:0.05 in
  List.iter
    (fun (e : Estimator.t) ->
      (match e.contract with
      | Estimator.Approx { ratio; _ } | Estimator.Level_approx { ratio; _ } ->
          if not (Float.is_finite ratio && ratio >= 1.0) then
            Alcotest.failf "%S votes with ratio %g" e.name ratio
      | Estimator.Exact_count _ | Estimator.Heavy_hitters _
      | Estimator.L0_draw | Estimator.L1_draw | Estimator.Product_shares
      | Estimator.Per_row _ | Estimator.Top_k _ ->
          ());
      match (e.contract, (Ctx.run ~seed:1 (fun ctx -> e.run ctx ~a ~b)).Ctx.output) with
      | (Estimator.Exact_count _ | Estimator.Approx _), Estimator.Scalar _
      | Estimator.Level_approx _, Estimator.Leveled _
      | Estimator.Heavy_hitters _, Estimator.Entry_set _
      | Estimator.L0_draw, Estimator.L0_samples [| _ |]
      | Estimator.L1_draw, Estimator.L1_samples [| _ |]
      | Estimator.Product_shares, Estimator.Shares _ ->
          ()
      | _ -> Alcotest.failf "%S answers a shape its contract does not name" e.name)
    Registry.all

(* Each entry's cost model names the rounds its default query takes on
   [matprod estimate]'s workload (density 0.05, seed 1). *)
let test_registry_predicted_rounds () =
  List.iter
    (fun n ->
      let a, b = Workload.gen_pair ~zipf:false ~seed:1 ~n ~density:0.05 in
      List.iter
        (fun (e : Estimator.t) ->
          let run = Ctx.run ~seed:1 (fun ctx -> e.run ctx ~a ~b) in
          check Alcotest.int
            (Printf.sprintf "%s rounds at n = %d" e.name n)
            (e.cost ~n).Estimator.rounds run.Ctx.rounds)
        Registry.all)
    [ 32; 64; 128 ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "core"
    [
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_registry_names_unique;
          Alcotest.test_case "verify family per name" `Quick
            test_registry_verify_families;
          Alcotest.test_case "predicted rounds" `Quick
            test_registry_predicted_rounds;
        ] );
      ( "common",
        [
          Alcotest.test_case "entry map" `Quick test_entry_map;
          Alcotest.test_case "row times matrix" `Quick test_row_times_matrix;
          Alcotest.test_case "group_of" `Quick test_group_of;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "accuracy all p" `Slow test_lp_accuracy_all_p;
          Alcotest.test_case "2 rounds" `Quick test_lp_two_rounds;
          Alcotest.test_case "reproducible" `Quick test_lp_reproducible;
          Alcotest.test_case "zero product" `Quick test_lp_zero_product;
          Alcotest.test_case "rejects bad params" `Quick test_lp_rejects_bad_params;
          Alcotest.test_case "integer matrices" `Slow test_lp_integer_matrices;
          Alcotest.test_case "row norms" `Slow test_lp_row_norm_subprotocol;
        ] );
      ( "one-round baseline",
        [
          Alcotest.test_case "accuracy & rounds" `Slow test_oneround_accuracy_and_rounds;
          Alcotest.test_case "costs more than 2-round" `Slow
            test_oneround_costs_more_than_tworound;
        ] );
      ( "remark2-3",
        [
          Alcotest.test_case "l1 exact" `Quick test_l1_exact;
          Alcotest.test_case "l1 rejects negative" `Quick test_l1_exact_rejects_negative;
          Alcotest.test_case "l1 sampling distribution" `Slow test_l1_sampling_distribution;
          Alcotest.test_case "l1 sampling zero" `Quick test_l1_sampling_zero;
        ] );
      ( "l0-sampling",
        [
          Alcotest.test_case "support & rounds" `Slow test_l0_sampling_support_and_rounds;
          Alcotest.test_case "zero product" `Quick test_l0_sampling_zero_product;
          Alcotest.test_case "near uniform" `Slow test_l0_sampling_near_uniform;
          Alcotest.test_case "run_many batched" `Quick test_l0_sampling_run_many;
        ] );
      ( "algorithm2",
        [
          Alcotest.test_case "planted pair" `Slow test_linf_binary_planted;
          Alcotest.test_case "zero" `Quick test_linf_binary_zero;
          Alcotest.test_case "sampling engages" `Slow test_linf_binary_sampling_engages;
        ] );
      ( "algorithm3",
        [
          Alcotest.test_case "planted pair" `Slow test_linf_kappa_planted;
          Alcotest.test_case "zero" `Quick test_linf_kappa_zero_and_tiny;
        ] );
      ( "linf-general",
        [
          Alcotest.test_case "accuracy" `Slow test_linf_general_accuracy;
          Alcotest.test_case "size scales with kappa" `Slow test_linf_general_size_scales;
        ] );
      ( "matrix-product",
        [
          Alcotest.test_case "shares exact" `Quick test_matprod_shares_exact;
          Alcotest.test_case "cheaper than trivial" `Quick
            test_matprod_cheaper_than_trivial_on_sparse;
        ] );
      ( "heavy-hitters",
        [
          Alcotest.test_case "general band" `Slow test_hh_general_band;
          Alcotest.test_case "general empty" `Quick test_hh_general_empty;
          Alcotest.test_case "rejects bad band" `Quick test_hh_general_rejects_bad_band;
          Alcotest.test_case "binary band" `Slow test_hh_binary_band;
          Alcotest.test_case "binary near-linear bits" `Slow
            test_hh_binary_near_linear_bits;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "cohen accuracy" `Slow test_cohen_baseline_accuracy;
          Alcotest.test_case "trivial exact & bits" `Quick test_trivial_exact_and_bits;
          Alcotest.test_case "countsketch band" `Slow test_hh_countsketch_band;
          Alcotest.test_case "countsketch one round" `Quick test_hh_countsketch_one_round;
          Alcotest.test_case "countsketch empty" `Quick test_hh_countsketch_empty;
        ] );
      ( "session",
        [
          Alcotest.test_case "queries free after establish" `Quick test_session_queries_free;
          Alcotest.test_case "top rows" `Quick test_session_top_rows;
          Alcotest.test_case "refine improves" `Slow test_session_refine_improves;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "1x1" `Quick test_edge_one_by_one;
          Alcotest.test_case "identity" `Quick test_edge_identity_product;
          Alcotest.test_case "skinny rectangular" `Quick test_edge_skinny_rectangular;
          Alcotest.test_case "all ones" `Quick test_edge_all_ones;
        ] );
      ( "joins-16",
        [
          Alcotest.test_case "equality join exact" `Quick test_equality_join_exact;
          Alcotest.test_case "disjointness join" `Slow test_disjointness_join;
          Alcotest.test_case "at-least-t join" `Slow test_at_least_t_join;
        ] );
      ( "message-flows",
        [
          Alcotest.test_case "algorithm 1" `Quick test_flow_lp_protocol;
          Alcotest.test_case "remark 2" `Quick test_flow_l1_exact;
          Alcotest.test_case "algorithm 2" `Quick test_flow_linf_binary;
          Alcotest.test_case "matrix product" `Quick test_flow_matprod;
          Alcotest.test_case "l0 sampling one-way" `Quick test_flow_l0_sampling_single_direction;
        ] );
      ("protocol-properties", List.map QCheck_alcotest.to_alcotest qcheck_protocol_tests);
      ( "boosting",
        [
          Alcotest.test_case "improves reliability" `Slow test_boosting_improves_reliability;
          Alcotest.test_case "repetitions_for" `Quick test_boosting_repetitions_for;
        ] );
    ]
