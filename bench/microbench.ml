(* Bechamel micro-benchmarks for the sketching substrate (B1–B4 in
   DESIGN.md): update/estimate throughput of the structures every protocol
   is built from. *)

open Bechamel
open Toolkit

module Prng = Matprod_util.Prng
module Ams = Matprod_sketch.Ams
module L0_sketch = Matprod_sketch.L0_sketch
module L0_sampler = Matprod_sketch.L0_sampler
module Stable_sketch = Matprod_sketch.Stable_sketch
module S_sparse = Matprod_sketch.S_sparse
module Cohen = Matprod_sketch.Cohen
module Cm = Matprod_sketch.Compressed_matmul

let dim = 4096

let mk_vec seed nnz =
  let rng = Prng.create seed in
  Array.init nnz (fun i -> ((i * 37) mod dim, 1 + Prng.int rng 20))

let bench_ams =
  let rng = Prng.create 1 in
  let t = Ams.create rng ~eps:0.2 ~groups:5 in
  let vec = mk_vec 2 64 in
  Test.make ~name:"ams: sketch 64-sparse vector (eps=0.2)"
    (Staged.stage (fun () -> ignore (Ams.sketch t vec)))

let bench_stable =
  let rng = Prng.create 3 in
  let t = Stable_sketch.create rng ~p:1.0 ~eps:0.2 ~groups:5 in
  let vec = mk_vec 4 64 in
  Test.make ~name:"cauchy (p=1): sketch 64-sparse vector"
    (Staged.stage (fun () -> ignore (Stable_sketch.sketch t vec)))

let bench_l0_sketch =
  let rng = Prng.create 5 in
  let t = L0_sketch.create rng ~eps:0.2 ~groups:3 ~dim in
  let vec = mk_vec 6 64 in
  Test.make ~name:"l0 sketch: sketch 64-sparse vector"
    (Staged.stage (fun () -> ignore (L0_sketch.sketch t vec)))

let bench_l0_estimate =
  let rng = Prng.create 7 in
  let t = L0_sketch.create rng ~eps:0.2 ~groups:3 ~dim in
  let st = L0_sketch.sketch t (mk_vec 8 512) in
  Test.make ~name:"l0 sketch: estimate"
    (Staged.stage (fun () -> ignore (L0_sketch.estimate t st)))

let bench_l0_sampler =
  let rng = Prng.create 9 in
  let t = L0_sampler.create rng ~dim () in
  let st = L0_sampler.sketch t (mk_vec 10 128) in
  Test.make ~name:"l0 sampler: sample"
    (Staged.stage (fun () -> ignore (L0_sampler.sample t st)))

let bench_cohen =
  let rng = Prng.create 23 in
  let t = Cohen.create rng ~reps:32 ~rows:dim in
  let supp = Array.init 64 (fun i -> (i * 37) mod dim) in
  let supp_of_col _ = supp in
  let plan = Cohen.plan t in
  [
    Test.make ~name:"cohen: column mins (32 reps, 64-support col)"
      (Staged.stage (fun () ->
           ignore (Cohen.column_mins t ~supp_of_col ~cols:1)));
    Test.make ~name:"cohen: column mins, planned"
      (Staged.stage (fun () ->
           ignore (Cohen.column_mins_with_plan t plan ~supp_of_col ~cols:1)));
  ]

let bench_compressed_matmul =
  let rng = Prng.create 25 in
  let t = Cm.create rng ~buckets:256 ~reps:3 in
  let vec = mk_vec 26 64 in
  let left = Array.init 16 (fun i -> Cm.half_sketch_left t ~rep:0 (mk_vec i 32)) in
  let right = Array.init 16 (fun i -> Cm.half_sketch_right t ~rep:0 (mk_vec (i + 50) 32)) in
  [
    Test.make ~name:"compressed-matmul: half sketch 64-sparse vector"
      (Staged.stage (fun () -> ignore (Cm.half_sketch_left t ~rep:0 vec)));
    Test.make ~name:"compressed-matmul: FFT combine (16 pairs, b=256)"
      (Staged.stage (fun () -> ignore (Cm.combine t ~rep:0 ~left ~right)));
  ]

(* Planned kernels vs their seed paths — same instances as above, plan
   built once (the driver amortisation). *)
let bench_planned =
  let ams = Ams.create (Prng.create 1) ~eps:0.2 ~groups:5 in
  let ams_plan = Ams.plan ams ~dim in
  let ams_vec = mk_vec 2 64 in
  let l0 = L0_sketch.create (Prng.create 5) ~eps:0.2 ~groups:3 ~dim in
  let l0_plan = L0_sketch.plan l0 ~dim in
  let l0_vec = mk_vec 6 64 in
  [
    Test.make ~name:"ams: sketch_with_plan"
      (Staged.stage (fun () -> ignore (Ams.sketch_with_plan ams ams_plan ams_vec)));
    Test.make ~name:"l0 sketch: sketch_with_plan"
      (Staged.stage (fun () -> ignore (L0_sketch.sketch_with_plan l0 l0_plan l0_vec)));
  ]

(* The benchmark's ℓp row shapes (eps 0.5, 5 groups, dim 96): the p=1
   estimate's median over a 240-float stable state, and a p=0 planned
   build of a 5-nonzero row, about 50 keys sorted by a 1 680-cell index.
   P1's 192-nonzero rows never reach these sizes. *)
let bench_lp_rows =
  let rng = Prng.create 27 in
  let xs = Array.init 240 (fun _ -> Matprod_util.Stable.sample rng ~p:1.0) in
  let l0 = L0_sketch.create (Prng.create 28) ~eps:0.5 ~groups:5 ~dim:96 in
  let plan = L0_sketch.plan l0 ~dim:96 in
  let row = Array.init 5 (fun i -> (i * 19, 1 + i)) in
  [
    Test.make ~name:"stats: median of 240 floats"
      (Staged.stage (fun () -> ignore (Matprod_util.Stats.median xs)));
    Test.make ~name:"l0_sketch: planned build, 5-nonzero row (eps 0.5, 5 groups, dim 96)"
      (Staged.stage (fun () -> ignore (L0_sketch.sketch_with_plan l0 plan row)));
  ]

let bench_s_sparse_decode =
  let rng = Prng.create 13 in
  let t = S_sparse.create rng ~s:16 ~reps:3 in
  let st = S_sparse.sketch t (mk_vec 14 12) in
  Test.make ~name:"s-sparse: decode (12 of 16 budget)"
    (Staged.stage (fun () -> ignore (S_sparse.decode t st)))

(* Exact-product ground-truth backends: adjacency accumulation vs
   bit-packed AND+popcount, on a dense 128x128 instance. *)
let bench_product_backends =
  let module Bmat = Matprod_matrix.Bmat in
  let module Bitmat = Matprod_matrix.Bitmat in
  let module Product = Matprod_matrix.Product in
  let module Workload = Matprod_workload.Workload in
  let rng = Prng.create 15 in
  let a = Workload.uniform_bool rng ~rows:128 ~cols:128 ~density:0.3 in
  let b = Workload.uniform_bool rng ~rows:128 ~cols:128 ~density:0.3 in
  let pa = Bitmat.of_bmat a and pbt = Bitmat.of_bmat (Bmat.transpose b) in
  [
    Test.make ~name:"exact linf: output-sensitive accumulation (d=0.3)"
      (Staged.stage (fun () -> ignore (Product.linf (Product.bool_product a b))));
    Test.make ~name:"exact linf: bit-packed AND+popcount (d=0.3)"
      (Staged.stage (fun () -> ignore (Bitmat.product_linf ~a:pa ~bt:pbt)));
  ]

(* Overhead of the observability instrumentation on the protocol
   simulator: the same small Ctx.run with the metrics registry off vs on
   (the "off" path is the default for every test and experiment, and must
   stay within a few percent of free). *)
let bench_obs_overhead =
  let module Ctx = Matprod_comm.Ctx in
  let module Codec = Matprod_comm.Codec in
  let payload = Array.init 64 (fun i -> i * i) in
  let body ctx =
    ignore (Ctx.a2b ctx ~label:"xs" Codec.int_array payload);
    ignore (Ctx.b2a ctx ~label:"ack" Codec.uint 1)
  in
  [
    Test.make ~name:"ctx.run 2-message exchange (obs disabled)"
      (Staged.stage (fun () ->
           Matprod_obs.Metrics.set_enabled false;
           ignore (Ctx.run ~seed:1 body)));
    Test.make ~name:"ctx.run 2-message exchange (metrics enabled)"
      (Staged.stage (fun () ->
           Matprod_obs.Metrics.set_enabled true;
           ignore (Ctx.run ~seed:1 body);
           Matprod_obs.Metrics.set_enabled false));
  ]

(* The wire path on the perfbench pair (96x96 boolean, density 0.05,
   seed 1): the word-at-a-time codecs against the generic [array]
   compositions they replaced (same bytes), the ℓ0 message from its
   nonzero cells against the dense arrays, the sparse combine against
   merging states with add_scaled, and one link's whole ℓ0-sampling
   exchange. *)
let bench_wire_path =
  let module Codec = Matprod_comm.Codec in
  let module Imat = Matprod_matrix.Imat in
  let module Lp = Matprod_sketch.Lp in
  let module Workload = Matprod_workload.Workload in
  let n = 96 in
  let root = Prng.create 1 in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  let a = Imat.of_bmat (Workload.uniform_bool rng_a ~rows:n ~cols:n ~density:0.05) in
  let b = Imat.of_bmat (Workload.uniform_bool rng_b ~rows:n ~cols:n ~density:0.05) in
  (* Theorem 3.2's first message: an l0 sketch (4032 cells) per column of A. *)
  let l0 = L0_sketch.create (Prng.create 2) ~eps:0.25 ~groups:3 ~dim:n in
  let at = Imat.transpose a in
  let l0_msg = Array.init n (fun k -> L0_sketch.sketch l0 (Imat.row at k)) in
  (* The p=1 lp group's message: a stable sketch per row of B. *)
  let stable = Lp.create (Prng.create 3) ~p:1.0 ~eps:0.5 ~groups:5 ~dim:n in
  let f32_msg =
    Array.init n (fun k ->
        match Lp.sketch stable (Imat.row b k) with
        | Lp.F f -> f
        | Lp.Z _ -> assert false)
  in
  let roundtrip codec v = Codec.decode codec (Codec.encode codec v) in
  (* The same message as dense arrays, for the dense codecs. *)
  let l0_dense =
    Array.map
      (fun (s : Codec.sparse) ->
        let a = Array.make s.length 0 in
        Array.iteri (fun k c -> a.(c) <- s.values.(k)) s.cells;
        a)
      l0_msg
  in
  let sparse_fast = Codec.array Codec.sparse_uint_array in
  let uint_fast = Codec.array Codec.uint_array in
  let uint_generic = Codec.array (Codec.array Codec.uint) in
  let f32_fast = Codec.array Codec.float32_array in
  let f32_generic = Codec.array (Codec.array Codec.float32) in
  (* The p=0 lp group: Alice estimates every row of A·B from B's sketches. *)
  let lp0 = Lp.create (Prng.create 4) ~p:0.0 ~eps:0.5 ~groups:5 ~dim:n in
  let lp0_msg = Array.init n (fun k -> Lp.sketch lp0 (Imat.row b k)) in
  let merged_row i =
    Lp.estimate_pow lp0
      (Array.fold_left
         (fun acc (k, c) -> Lp.add_scaled lp0 acc ~coeff:c lp0_msg.(k))
         (Lp.empty lp0) (Imat.row a i))
  in
  (* One fleet link's Theorem 3.2 exchange, end to end: the column
     sketches and one sampler per column of a 24x96 share of A built,
     encoded, decoded, combined over B's columns, and one pair drawn. *)
  let link_a = Imat.of_bmat (Workload.uniform_bool (Prng.create 6) ~rows:24 ~cols:n ~density:0.05) in
  let l0_exchange () =
    Matprod_comm.Ctx.run ~seed:7 (fun ctx ->
        Matprod_core.L0_sampling.run_many ctx
          (Matprod_core.L0_sampling.default_params ~eps:0.25)
          ~count:1 ~a:link_a ~b)
  in
  [
    Test.make ~name:"codec: l0 message 96x4032, sparse_uint_array"
      (Staged.stage (fun () -> ignore (roundtrip sparse_fast l0_msg)));
    Test.make ~name:"codec: l0 message 96x4032, uint_array"
      (Staged.stage (fun () -> ignore (roundtrip uint_fast l0_dense)));
    Test.make ~name:"codec: l0 message 96x4032, array uint"
      (Staged.stage (fun () -> ignore (roundtrip uint_generic l0_dense)));
    Test.make ~name:"l0 sampling: one link's exchange, 24x96 share"
      (Staged.stage (fun () -> ignore (l0_exchange ())));
    Test.make ~name:"codec: stable message, float32_array"
      (Staged.stage (fun () -> ignore (roundtrip f32_fast f32_msg)));
    Test.make ~name:"codec: stable message, array float32"
      (Staged.stage (fun () -> ignore (roundtrip f32_generic f32_msg)));
    Test.make ~name:"lp p=0: 96 rows, estimate_combination"
      (Staged.stage (fun () ->
           let comb = Lp.combiner lp0 lp0_msg in
           ignore
             (Array.init n (fun i -> Lp.estimate_combination comb (Imat.row a i)))));
    Test.make ~name:"lp p=0: 96 rows, add_scaled + estimate_pow"
      (Staged.stage (fun () -> ignore (Array.init n merged_row)));
  ]

(* Theorem 3.2's sampler message on one fleet link, built, encoded and
   decoded: an l0 sampler of each column of a link's 24x96 share of A
   (boolean, density 0.05). *)
let bench_sampler_message =
  let module Codec = Matprod_comm.Codec in
  let module Imat = Matprod_matrix.Imat in
  let module Workload = Matprod_workload.Workload in
  let a = Workload.uniform_bool (Prng.split (Prng.create 1)) ~rows:24 ~cols:96 ~density:0.05 in
  let cols = Imat.transpose (Imat.of_bmat a) in
  let smp = L0_sampler.create (Prng.create 5) ~dim:24 () in
  let wire = Codec.array (L0_sampler.wire smp) in
  Test.make ~name:"l0 sampler message 96 cols, dim 24: build + roundtrip"
    (Staged.stage (fun () ->
         let msg = Array.init 96 (fun k -> L0_sampler.sketch smp (Imat.row cols k)) in
         ignore (Codec.decode wire (Codec.encode wire msg))))

(* The four largest messages of a fleet-verify batch (perfbench: 96x96
   boolean, density 0.05, 4 workers), one link's worth each, encoded and
   decoded on their own: B's row sketches for the lp(p=0) and lp(p=1)
   groups (beta 0.5, 5 groups, dim 96), and the column sketches (eps
   0.25, 3 groups) and samplers of a 24-row share of A. *)
let bench_codec_messages =
  let module Codec = Matprod_comm.Codec in
  let module Imat = Matprod_matrix.Imat in
  let module Lp = Matprod_sketch.Lp in
  let module Workload = Matprod_workload.Workload in
  let n = 96 in
  let root = Prng.create 1 in
  let _ = Prng.split root in
  let b = Imat.of_bmat (Workload.uniform_bool (Prng.split root) ~rows:n ~cols:n ~density:0.05) in
  let lp_rows p =
    let lp = Lp.create (Prng.create 4) ~p ~eps:0.5 ~groups:5 ~dim:n in
    let plan = Lp.plan lp ~dim:n in
    (Codec.array (Lp.wire lp), Array.init n (fun k -> Lp.sketch_with_plan lp plan (Imat.row b k)))
  in
  let share = Imat.of_bmat (Workload.uniform_bool (Prng.create 6) ~rows:24 ~cols:n ~density:0.05) in
  let cols = Imat.transpose share in
  let sk = L0_sketch.create (Prng.create 2) ~eps:0.25 ~groups:3 ~dim:24 in
  let sk_plan = L0_sketch.plan sk ~dim:24 in
  let smp = L0_sampler.create (Prng.create 5) ~dim:24 () in
  let rows (type a) name ((codec : a Codec.t), (msg : a)) =
    let wire = Codec.encode codec msg in
    [
      Test.make ~name:(Printf.sprintf "codec: %s, encode (%d B)" name (String.length wire))
        (Staged.stage (fun () -> ignore (Codec.encode codec msg)));
      Test.make ~name:(Printf.sprintf "codec: %s, decode" name)
        (Staged.stage (fun () -> ignore (Codec.decode codec wire)));
    ]
  in
  rows "lp(p=0) B rows" (lp_rows 0.0)
  @ rows "lp(p=1) B rows" (lp_rows 1.0)
  @ rows "l0 samplers of A cols"
      (Codec.array (L0_sampler.wire smp), Array.init n (fun k -> L0_sampler.sketch smp (Imat.row cols k)))
  @ rows "l0 sketches of A cols"
      ( Codec.array (L0_sketch.wire sk),
        Array.init n (fun k -> L0_sketch.sketch_with_plan sk sk_plan (Imat.row cols k)) )

let all_tests =
  Test.make_grouped ~name:"sketches"
    ([
       bench_ams; bench_stable; bench_l0_sketch; bench_l0_estimate;
       bench_l0_sampler;
       bench_s_sparse_decode;
     ]
    @ bench_planned @ bench_lp_rows @ bench_cohen @ bench_compressed_matmul
    @ bench_product_backends @ bench_obs_overhead @ bench_wire_path
    @ bench_codec_messages)

let run () =
  Printf.printf "\n%s\n" Report.hrule;
  Printf.printf "B*  Bechamel micro-benchmarks (sketch substrate throughput)\n";
  Printf.printf "%s\n" Report.hrule;
  let instances = Instance.[ monotonic_clock ] in
  let measure ~stabilize tests =
    let cfg =
      Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ~stabilize ()
    in
    let raw = Benchmark.all cfg instances tests in
    let results =
      List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true
                                        ~predictors:[| Measure.run |]) i raw)
        instances
    in
    let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:true
                                   ~predictors:[| Measure.run |]) instances results in
    Hashtbl.iter
      (fun _measure tbl ->
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.printf "%-48s %12.1f ns/run\n" name est
            | _ -> Printf.printf "%-48s (no estimate)\n" name)
          tbl)
      results
  in
  measure ~stabilize:true all_tests;
  (* Most of the sampler message's cost is collector work. Bechamel's
     default settles the heap before every sample, which would leave
     that work outside the timed window, so this entry runs without. *)
  measure ~stabilize:false
    (Test.make_grouped ~name:"sketches (collector included)" [ bench_sampler_message ])
