module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product

let ln = Common.log_factor
let fn n = float_of_int n

(* Lift an integer-matrix driver to the estimator's binary workload. *)
let on_imat run ctx query ~a ~b =
  run ctx query ~a:(Imat.of_bmat a) ~b:(Imat.of_bmat b)

let lp ~name ~p ~stat ~describe =
  Estimator.make ~name ~describe
    ~default:(Lp_protocol.default_params ~p ~eps:0.5 ())
    ~cost:(fun (prm : Lp_protocol.params) ~n ->
      { Estimator.bits = 64.0 *. fn n *. ln n /. prm.Lp_protocol.eps; rounds = 2 })
    ~contract:(fun _ -> Estimator.Approx { stat; slack = 3.0; ratio = 6.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (on_imat Lp_protocol.run)

let lp_p0 =
  lp ~name:"lp p=0" ~p:0.0 ~stat:(Estimator.Norm0 { times = 1.0 })
    ~describe:"Algorithm 1: (1+eps)||AB||_0, 2 rounds, O~(n/eps) bits"

let lp_p1 =
  lp ~name:"lp p=1" ~p:1.0 ~stat:Estimator.Norm1
    ~describe:"Algorithm 1 at p = 1: (1+eps)||AB||_1"

let lp_oneround =
  Estimator.make ~name:"lp oneround p=2"
    ~describe:"one-round lp sketch baseline [16] at p = 2, O~(n/eps^2) bits"
    ~default:(Lp_oneround.default_params ~p:2.0 ~eps:0.5 ())
    ~cost:(fun (prm : Lp_oneround.params) ~n ->
      let e = prm.Lp_oneround.eps in
      { Estimator.bits = 64.0 *. fn n *. ln n /. (e *. e); rounds = 1 })
    ~contract:(fun _ ->
      Estimator.Approx { stat = Estimator.Frob; slack = 4.0; ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (on_imat Lp_oneround.run)

let srht =
  Estimator.make ~name:"srht"
    ~describe:"SRHT/FWHT one-round (1+eps)||AB||_F^2, O(d log d) per row"
    ~default:(Frobenius.default_params ~eps:0.5 ())
    ~cost:(fun (prm : Frobenius.params) ~n ->
      let e = prm.Frobenius.eps in
      { Estimator.bits = 64.0 *. fn n *. ln n /. (e *. e); rounds = 1 })
    ~contract:(fun _ ->
      Estimator.Approx { stat = Estimator.Frob; slack = 4.0; ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (on_imat Frobenius.run)

let cohen_baseline =
  Estimator.make ~name:"cohen_baseline"
    ~describe:"Cohen's exponential-minima estimator [12] of ||AB||_0"
    ~default:(Cohen_baseline.params_for_eps ~eps:0.5)
    ~cost:(fun (prm : Cohen_baseline.params) ~n ->
      { Estimator.bits = 32.0 *. fn n *. float_of_int prm.Cohen_baseline.reps;
        rounds = 1 })
    ~contract:(fun _ ->
      Estimator.Approx
        { stat = Estimator.Norm0 { times = 1.0 }; slack = 3.0; ratio = 6.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (fun ctx prm ~a ~b -> Cohen_baseline.run ctx prm ~a ~b)

let l1_exact =
  Estimator.make ~name:"l1_exact"
    ~describe:"Remark 2: exact ||AB||_1 from column/row sums, 1 round"
    ~default:()
    ~cost:(fun () ~n -> { Estimator.bits = 32.0 *. fn n; rounds = 1 })
    ~contract:(fun () -> Estimator.Exact_count Estimator.Norm1)
    ~answer:(fun x -> Estimator.Scalar (float_of_int x))
    (on_imat (fun ctx () ~a ~b -> L1_exact.run ctx ~a ~b))

let l0_sampling =
  Estimator.make ~name:"l0_sampling"
    ~describe:"Theorem 3.2: near-uniform nonzero entry of AB, 1 round"
    ~default:(L0_sampling.default_params ~eps:0.5)
    ~cost:(fun (prm : L0_sampling.params) ~n ->
      let e = prm.L0_sampling.eps in
      { Estimator.bits = 64.0 *. fn n *. ln n /. (e *. e); rounds = 1 })
    ~contract:(fun _ -> Estimator.L0_draw)
    ~answer:(fun s -> Estimator.L0_samples [| s |])
    (on_imat L0_sampling.run)

let l1_sampling =
  Estimator.make ~name:"l1_sampling"
    ~describe:"Remark 3: one entry of AB drawn proportional to its value"
    ~default:()
    ~cost:(fun () ~n -> { Estimator.bits = 64.0 *. fn n; rounds = 1 })
    ~contract:(fun () -> Estimator.L1_draw)
    ~answer:(fun s -> Estimator.L1_samples [| s |])
    (on_imat (fun ctx () ~a ~b -> L1_sampling.run ctx ~a ~b))

let linf_binary =
  Estimator.make ~name:"linf_binary"
    ~describe:"Algorithm 2: (2+eps)||AB||_inf for binary matrices"
    ~default:(Linf_binary.default_params ~eps:0.5)
    ~cost:(fun (prm : Linf_binary.params) ~n ->
      { Estimator.bits = 64.0 *. (fn n ** 1.5) *. ln n /. prm.Linf_binary.eps;
        rounds = 3 })
    ~contract:(fun prm ->
      Estimator.Level_approx { kappa = 2.0 +. prm.Linf_binary.eps; ratio = 6.0 })
    ~answer:(fun (r : Linf_binary.result) ->
      Estimator.Leveled (r.Linf_binary.estimate, r.Linf_binary.level))
    (fun ctx prm ~a ~b -> Linf_binary.run ctx prm ~a ~b)

let linf_kappa =
  Estimator.make ~name:"linf_kappa"
    ~describe:"Algorithm 3: kappa-approx ||AB||_inf, O~(n^1.5/kappa) bits"
    ~default:(Linf_kappa.default_params ~kappa:4.0)
    ~cost:(fun (prm : Linf_kappa.params) ~n ->
      { Estimator.bits = 64.0 *. (fn n ** 1.5) *. ln n /. prm.Linf_kappa.kappa;
        rounds = 3 })
    ~contract:(fun prm ->
      Estimator.Level_approx { kappa = prm.Linf_kappa.kappa; ratio = 10.0 })
    ~answer:(fun (r : Linf_kappa.result) ->
      Estimator.Leveled (r.Linf_kappa.estimate, r.Linf_kappa.level))
    (fun ctx prm ~a ~b -> Linf_kappa.run ctx prm ~a ~b)

let linf_general =
  Estimator.make ~name:"linf_general"
    ~describe:"Theorem 4.8: kappa-approx ||AB||_inf for integer matrices"
    ~default:{ Linf_general.kappa = 2.0 }
    ~cost:(fun (prm : Linf_general.params) ~n ->
      let k = prm.Linf_general.kappa in
      { Estimator.bits = 32.0 *. fn n *. fn n /. (k *. k); rounds = 1 })
    ~contract:(fun prm ->
      Estimator.Approx
        { stat = Estimator.Norm_inf { kappa = prm.Linf_general.kappa };
          slack = 2.0;
          ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (on_imat Linf_general.run)

let hh_binary =
  Estimator.make ~name:"hh_binary"
    ~describe:"Theorem 5.3: (phi, eps)-heavy hitters, binary matrices"
    ~default:(Hh_binary.default_params ~phi:0.2 ~eps:0.1 ())
    ~cost:(fun (prm : Hh_binary.params) ~n ->
      let e = prm.Hh_binary.eps and phi = prm.Hh_binary.phi in
      { Estimator.bits = 64.0 *. (fn n +. (phi /. (e *. e))) *. ln n; rounds = 5 })
    ~contract:(fun prm ->
      Estimator.Heavy_hitters { phi = prm.Hh_binary.phi; eps = prm.Hh_binary.eps })
    ~answer:(fun cs -> Estimator.Entry_set cs)
    (fun ctx prm ~a ~b -> Hh_binary.run ctx prm ~a ~b)

let hh_countsketch =
  Estimator.make ~name:"hh_countsketch"
    ~describe:"compressed-matmul baseline [32]: CountSketch point queries"
    ~default:(Hh_countsketch.default_params ~phi:0.2 ~eps:0.1 ~buckets:16)
    ~cost:(fun (prm : Hh_countsketch.params) ~n ->
      { Estimator.bits =
          32.0 *. fn n
          *. float_of_int (prm.Hh_countsketch.buckets * prm.Hh_countsketch.reps);
        rounds = 1 })
    ~contract:(fun prm ->
      Estimator.Heavy_hitters
        { phi = prm.Hh_countsketch.phi; eps = prm.Hh_countsketch.eps })
    ~answer:(fun cs -> Estimator.Entry_set cs)
    (on_imat Hh_countsketch.run)

let hh_general =
  Estimator.make ~name:"hh_general"
    ~describe:"Algorithm 4: (phi, eps)-heavy hitters, integer matrices"
    ~default:(Hh_general.default_params ~phi:0.2 ~eps:0.1 ())
    ~cost:(fun (prm : Hh_general.params) ~n ->
      let e = prm.Hh_general.eps and phi = prm.Hh_general.phi in
      { Estimator.bits = 64.0 *. sqrt phi /. e *. fn n *. ln n; rounds = 3 })
    ~contract:(fun prm ->
      Estimator.Heavy_hitters
        { phi = prm.Hh_general.phi; eps = prm.Hh_general.eps })
    ~answer:(fun cs -> Estimator.Entry_set cs)
    (on_imat Hh_general.run)

let matprod =
  Estimator.make ~name:"matprod"
    ~describe:"Lemma 2.5 role: additively shared exact product C_A + C_B = AB"
    ~default:()
    ~cost:(fun () ~n -> { Estimator.bits = 64.0 *. fn n *. sqrt (fn n); rounds = 3 })
    ~contract:(fun () -> Estimator.Product_shares)
    ~answer:(fun (s : Matprod_protocol.shares) ->
      Estimator.Shares
        ( Common.Entry_map.entries s.Matprod_protocol.alice,
          Common.Entry_map.entries s.Matprod_protocol.bob ))
    (on_imat (fun ctx () ~a ~b -> Matprod_protocol.run ctx ~a ~b))

let session =
  Estimator.make ~name:"session"
    ~describe:"amortised query session: establish at beta, then refine"
    ~default:0.5
    ~cost:(fun beta ~n ->
      { Estimator.bits = 64.0 *. fn n *. ln n /. (beta *. beta); rounds = 2 })
    (* the established norm plus the refined one: two estimates of ||C||_0 *)
    ~contract:(fun _ ->
      Estimator.Approx
        { stat = Estimator.Norm0 { times = 2.0 }; slack = 4.0; ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (on_imat (fun ctx beta ~a ~b ->
         let s = Session.establish ctx ~beta ~a ~b in
         Session.norm_pow s +. Session.refine ctx s))

let trivial =
  Estimator.make ~name:"trivial"
    ~describe:"ship-A baseline: n*m bits, Bob answers exactly (||C||_0 here)"
    ~default:0.0
    ~cost:(fun _p ~n -> { Estimator.bits = fn n *. fn n; rounds = 1 })
    ~contract:(fun _p -> Estimator.Exact_count (Estimator.Norm0 { times = 1.0 }))
    ~answer:(fun x -> Estimator.Scalar x)
    (fun ctx p ~a ~b -> Trivial.run_bool ctx ~a ~b (fun c -> Product.lp_pow c ~p))

let joins_equality =
  Estimator.make ~name:"joins equality"
    ~describe:"set-equality join of [16] via O(log n)-bit fingerprints"
    ~default:()
    ~cost:(fun () ~n -> { Estimator.bits = 64.0 *. fn n; rounds = 1 })
    ~contract:(fun () -> Estimator.Exact_count Estimator.Pairs_upto)
    ~answer:(fun x -> Estimator.Scalar (float_of_int x))
    (fun ctx () ~a ~b -> Joins.equality_join ctx ~a ~b)

let joins_disjointness =
  Estimator.make ~name:"joins disjointness"
    ~describe:"set-disjointness join: n*m - ||AB||_0 via Algorithm 1"
    ~default:0.25
    ~cost:(fun eps ~n -> { Estimator.bits = 64.0 *. fn n *. ln n /. eps; rounds = 2 })
    ~contract:(fun _ ->
      Estimator.Approx
        { stat = Estimator.Disjoint_pairs { spread = 3.0 }; slack = 1.0; ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (fun ctx eps ~a ~b -> Joins.disjointness_join ctx ~eps ~a ~b)

let joins_atleast =
  Estimator.make ~name:"joins atleast"
    ~describe:"at-least-T join: threshold fraction of l0 samples"
    ~default:(Joins.default_threshold_params ~eps:0.25, 2)
    ~cost:(fun ((prm : Joins.threshold_params), _t) ~n ->
      { Estimator.bits =
          64.0 *. fn n *. ln n
          *. float_of_int (max 1 prm.Joins.samples)
          /. fn (max 1 n);
        rounds = 2 })
    ~contract:(fun _ ->
      Estimator.Approx
        { stat = Estimator.Pairs_from_l0 { spread = 3.0 }; slack = 1.0; ratio = 8.0 })
    ~answer:(fun x -> Estimator.Scalar x)
    (fun ctx (prm, t) ~a ~b -> Joins.at_least_t_join ctx prm ~t ~a ~b)

let all =
  [
    lp_p0;
    lp_p1;
    lp_oneround;
    srht;
    cohen_baseline;
    l1_exact;
    l0_sampling;
    l1_sampling;
    linf_binary;
    linf_kappa;
    linf_general;
    hh_binary;
    hh_countsketch;
    hh_general;
    matprod;
    session;
    trivial;
    joins_equality;
    joins_disjointness;
    joins_atleast;
  ]

let find name = List.find_opt (fun (e : Estimator.t) -> e.name = name) all
