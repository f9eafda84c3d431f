(* Plan/apply equivalence and domain-pool determinism.

   Two hard promises from docs/PERFORMANCE.md are enforced here:

   1. Planned kernels are BIT-identical to the unplanned sketch paths —
      qcheck properties compare the arrays with structural equality, no
      tolerance, for every sketch family and every Lp branch.

   2. The domain pool never shows in observable behaviour: journaled
      transcripts of every chaos-gallery protocol are byte-for-byte equal
      at --domains 1 and --domains 4, and the outputs are equal too. *)

module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Ams = Matprod_sketch.Ams
module Stable_sketch = Matprod_sketch.Stable_sketch
module L0_sketch = Matprod_sketch.L0_sketch
module Cohen = Matprod_sketch.Cohen
module Srht = Matprod_sketch.Srht
module Lp = Matprod_sketch.Lp
module Fwht = Matprod_util.Fwht
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Ctx = Matprod_comm.Ctx
module Metrics = Matprod_obs.Metrics

module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry

let check = Alcotest.check
let dim = 400

(* ------------------------------------------------------------------ *)
(* qcheck: planned = unplanned, structurally. *)

let sparse_vec_gen =
  QCheck.Gen.(
    list_size (0 -- 25) (pair (int_bound (dim - 1)) (int_range (-50) 50))
    |> map (fun l ->
           let module IM = Map.Make (Int) in
           let m =
             List.fold_left
               (fun m (k, v) ->
                 IM.update k (fun o -> Some (Option.value ~default:0 o + v)) m)
               IM.empty l
           in
           IM.bindings m |> List.filter (fun (_, v) -> v <> 0) |> Array.of_list))

let seeded_vec = QCheck.(pair (int_bound 10_000) (make sparse_vec_gen))

let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let farray_bits_equal a b =
  Array.length a = Array.length b && Array.for_all2 float_bits_equal a b

let with_domains d f =
  Pool.set_size d;
  Fun.protect ~finally:(fun () -> Pool.set_size 1) f

(* 96 shifted copies of [vec] (more than one pool chunk) sketched through
   one shared plan by [Pool.init] at 4 domains must equal the sequential
   unplanned sketches bit for bit: a plan is read-only, and any scratch it
   needs is per domain. *)
let fanned_equals_unplanned ~planned ~unplanned vec =
  let rows =
    Array.init 96 (fun r -> Array.map (fun (k, v) -> ((k + r) mod dim, v)) vec)
  in
  let fanned = with_domains 4 (fun () -> Pool.init 96 (fun r -> planned rows.(r))) in
  Array.for_all2 farray_bits_equal fanned (Array.map unplanned rows)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"ams: planned = unplanned" ~count:100 seeded_vec
      (fun (seed, vec) ->
        let t = Ams.create (Prng.create seed) ~eps:0.4 ~groups:3 in
        let p = Ams.plan t ~dim in
        Ams.sketch_with_plan t p vec = Ams.sketch t vec);
    Test.make ~name:"stable p=1: planned = unplanned" ~count:60 seeded_vec
      (fun (seed, vec) ->
        let t = Stable_sketch.create (Prng.create seed) ~p:1.0 ~eps:0.4 ~groups:2 in
        let p = Stable_sketch.plan t ~dim in
        Stable_sketch.sketch_with_plan t p vec = Stable_sketch.sketch t vec);
    Test.make ~name:"stable p=0.5: planned = unplanned" ~count:60 seeded_vec
      (fun (seed, vec) ->
        let t = Stable_sketch.create (Prng.create seed) ~p:0.5 ~eps:0.4 ~groups:2 in
        let p = Stable_sketch.plan t ~dim in
        Stable_sketch.sketch_with_plan t p vec = Stable_sketch.sketch t vec);
    (* The plan's column for key i, read back as the sketch of e_i (each
       word 0.0 +. 1.0 ·. column word), is [entry] word for word, for every
       p: Stable.fill_derived computes the whole table in unboxed locals. *)
    Test.make ~name:"stable: plan columns = entry, bit for bit, at every p"
      ~count:20 (int_bound 10_000) (fun seed ->
        List.for_all
          (fun p ->
            let t = Stable_sketch.create (Prng.create seed) ~p ~eps:0.5 ~groups:2 in
            let plan = Stable_sketch.plan t ~dim in
            List.for_all
              (fun i ->
                let col = Stable_sketch.sketch_with_plan t plan [| (i, 1) |] in
                farray_bits_equal col
                  (Array.init (Stable_sketch.size t) (fun row ->
                       0.0 +. (1.0 *. Stable_sketch.entry t ~row i))))
              [ 0; 1; 17; dim / 2; dim - 1 ])
          [ 0.5; 0.7; 1.0; 1.5; 2.0 ]);
    (* Also fanned out over 4 pool domains: each domain builds into its own
       radix buffers, and the rows (shifts of [vec], more than one pool
       chunk) must still equal the sequential unplanned sketches. *)
    Test.make ~name:"l0: planned = unplanned" ~count:100 seeded_vec
      (fun (seed, vec) ->
        let t = L0_sketch.create (Prng.create seed) ~eps:0.5 ~groups:3 ~dim in
        let p = L0_sketch.plan t ~dim in
        let rows =
          Array.init 96 (fun r -> Array.map (fun (k, v) -> ((k + r) mod dim, v)) vec)
        in
        let fanned =
          with_domains 4 (fun () ->
              Pool.init 96 (fun r -> L0_sketch.sketch_with_plan t p rows.(r)))
        in
        L0_sketch.sketch_with_plan t p vec = L0_sketch.sketch t vec
        && fanned = Array.map (L0_sketch.sketch t) rows);
    Test.make ~name:"lp dispatcher: planned = unplanned on every branch"
      ~count:40
      (pair (int_bound 10_000) (make sparse_vec_gen))
      (fun (seed, vec) ->
        List.for_all
          (fun p ->
            let t = Lp.create (Prng.create seed) ~p ~eps:0.5 ~groups:2 ~dim in
            let plan = Lp.plan t ~dim in
            Lp.sketch_with_plan t plan vec = Lp.sketch t vec)
          [ 0.0; 0.7; 1.0; 2.0 ]);
    Test.make ~name:"cohen: planned column mins = unplanned" ~count:40
      (int_bound 10_000) (fun seed ->
        let rng = Prng.create seed in
        let t = Cohen.create rng ~reps:6 ~rows:60 in
        let a = Workload.uniform_bool rng ~rows:60 ~cols:30 ~density:0.2 in
        let at = Bmat.transpose a in
        let supp_of_col k = Bmat.row at k in
        let p = Cohen.plan t in
        Cohen.column_mins_with_plan t p ~supp_of_col ~cols:30
        = Cohen.column_mins t ~supp_of_col ~cols:30);
    (* FWHT laws (docs/SKETCHES.md). The blocked/fused production kernel
       must be bitwise the naive radix-2 ladder on arbitrary floats —
       identical operation tree — and on integer inputs the unnormalised
       algebra is exact: H(Hx) = n·x and Parseval with equality, no
       tolerance. n sweeps past [block_floats] to cross the cache-blocked
       split. *)
    Test.make ~name:"fwht: blocked transform = naive ladder, bitwise"
      ~count:60
      (pair (int_bound 10_000) (int_bound 13))
      (fun (seed, logn) ->
        let n = 1 lsl logn in
        let rng = Prng.create seed in
        let a = Fwht.scratch n and b = Fwht.scratch n in
        for i = 0 to n - 1 do
          let v = Prng.gaussian rng in
          Bigarray.Array1.set a i v;
          Bigarray.Array1.set b i v
        done;
        Fwht.transform a ~n;
        Fwht.naive b ~n;
        let ok = ref true in
        for i = 0 to n - 1 do
          if
            not
              (float_bits_equal
                 (Bigarray.Array1.get a i)
                 (Bigarray.Array1.get b i))
          then ok := false
        done;
        !ok);
    Test.make ~name:"fwht: involution and Parseval, exact on integers"
      ~count:60
      (pair (int_bound 10_000) (int_bound 10))
      (fun (seed, logn) ->
        let n = 1 lsl logn in
        let rng = Prng.create seed in
        let x = Array.init n (fun _ -> float_of_int (Prng.int rng 201 - 100)) in
        let a = Fwht.scratch n in
        Array.iteri (fun i v -> Bigarray.Array1.set a i v) x;
        Fwht.transform a ~n;
        let hx_sq = ref 0.0 and x_sq = ref 0.0 in
        for i = 0 to n - 1 do
          let h = Bigarray.Array1.get a i in
          hx_sq := !hx_sq +. (h *. h);
          x_sq := !x_sq +. (x.(i) *. x.(i))
        done;
        let parseval = !hx_sq = float_of_int n *. !x_sq in
        Fwht.transform a ~n;
        let involution = ref true in
        for i = 0 to n - 1 do
          if Bigarray.Array1.get a i <> float_of_int n *. x.(i) then
            involution := false
        done;
        parseval && !involution);
    Test.make ~name:"srht: planned = unplanned" ~count:100 seeded_vec
      (fun (seed, vec) ->
        let t = Srht.create (Prng.create seed) ~eps:0.4 ~groups:3 ~dim in
        let p = Srht.plan t ~dim in
        Srht.sketch_with_plan t p vec = Srht.sketch t vec);
    (* Integer inputs make every SRHT intermediate an exact integer, so
       the densify+FWHT route and the tabulated sparse route agree bit
       for bit — forced via the [dense_nnz] override (the default
       threshold sits above this generator's nnz). *)
    Test.make ~name:"srht: dense route = sparse route = unplanned, bitwise"
      ~count:100 seeded_vec (fun (seed, vec) ->
        let t = Srht.create (Prng.create seed) ~eps:0.4 ~groups:3 ~dim in
        let dense = Srht.plan ~dense_nnz:0 t ~dim in
        let sparse = Srht.plan ~dense_nnz:max_int t ~dim in
        let y = Srht.sketch t vec in
        farray_bits_equal (Srht.sketch_with_plan t dense vec) y
        && farray_bits_equal (Srht.sketch_with_plan t sparse vec) y);
    Test.make ~name:"ams: planned at 4 pool domains = unplanned" ~count:30
      seeded_vec (fun (seed, vec) ->
        let t = Ams.create (Prng.create seed) ~eps:0.4 ~groups:3 in
        let p = Ams.plan t ~dim in
        fanned_equals_unplanned ~planned:(Ams.sketch_with_plan t p)
          ~unplanned:(Ams.sketch t) vec);
    Test.make ~name:"stable p=1: planned at 4 pool domains = unplanned"
      ~count:30 seeded_vec (fun (seed, vec) ->
        let t = Stable_sketch.create (Prng.create seed) ~p:1.0 ~eps:0.4 ~groups:2 in
        let p = Stable_sketch.plan t ~dim in
        fanned_equals_unplanned ~planned:(Stable_sketch.sketch_with_plan t p)
          ~unplanned:(Stable_sketch.sketch t) vec);
    (* The dense route runs the FWHT in each domain's own scratch buffer. *)
    Test.make ~name:"srht dense route: planned at 4 pool domains = unplanned"
      ~count:30 seeded_vec (fun (seed, vec) ->
        let t = Srht.create (Prng.create seed) ~eps:0.4 ~groups:3 ~dim in
        let p = Srht.plan ~dense_nnz:0 t ~dim in
        fanned_equals_unplanned ~planned:(Srht.sketch_with_plan t p)
          ~unplanned:(Srht.sketch t) vec);
    Test.make ~name:"srht sparse route: planned at 4 pool domains = unplanned"
      ~count:30 seeded_vec (fun (seed, vec) ->
        let t = Srht.create (Prng.create seed) ~eps:0.4 ~groups:3 ~dim in
        let p = Srht.plan ~dense_nnz:max_int t ~dim in
        fanned_equals_unplanned ~planned:(Srht.sketch_with_plan t p)
          ~unplanned:(Srht.sketch t) vec);
  ]

(* ------------------------------------------------------------------ *)
(* Pool semantics. *)

let test_pool_init_matches_sequential () =
  let f i = (i * 7919) land 1023 in
  let expect = Array.init 10_000 f in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          check Alcotest.bool
            (Printf.sprintf "init identical at %d domains" d)
            true
            (Pool.init 10_000 f = expect)))
    [ 1; 2; 4 ]

let test_pool_map_sum_bit_identical () =
  (* Floating sums are order-sensitive; the pool promises index order. *)
  let f i = 1.0 /. float_of_int (i + 1) in
  let expect = ref 0.0 in
  for i = 0 to 9_999 do
    expect := !expect +. f i
  done;
  List.iter
    (fun d ->
      with_domains d (fun () ->
          check (Alcotest.float 0.0)
            (Printf.sprintf "map_sum bit-identical at %d domains" d)
            !expect (Pool.map_sum 10_000 f)))
    [ 1; 2; 4 ]

let test_pool_edges () =
  with_domains 4 (fun () ->
      check Alcotest.int "init 0 is empty" 0 (Array.length (Pool.init 0 (fun i -> i)));
      check Alcotest.bool "init 1" true (Pool.init 1 (fun i -> i * 3) = [| 0 |]);
      check (Alcotest.float 0.0) "map_sum 0" 0.0 (Pool.map_sum 0 (fun _ -> 1.0)))

exception Boom

let test_pool_exception_propagates () =
  with_domains 4 (fun () ->
      (match Pool.init 1000 (fun i -> if i = 500 then raise Boom else i) with
      | _ -> Alcotest.fail "expected Boom to escape"
      | exception Boom -> ());
      (* The pool must stay serviceable after a failed job. *)
      check Alcotest.bool "pool survives an exception" true
        (Pool.init 100 (fun i -> i) = Array.init 100 (fun i -> i)))

let test_pool_size_floor () =
  (match Pool.set_size 0 with
  | () -> Alcotest.fail "set_size 0 should be rejected"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "size >= 1" true (Pool.size () >= 1)

(* ------------------------------------------------------------------ *)
(* Chaos-gallery mirror: journaled transcripts must be byte-identical at
   --domains 1 and --domains 4. The gallery is the estimator registry
   (exactly the set test_faults sweeps), on smaller instances. *)

let protocols ~seed =
  let rng = Prng.create (7 * seed) in
  let n = 16 in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  List.map
    (fun (e : Estimator.t) -> (e.name, fun ctx -> e.run ctx ~a ~b))
    Registry.all

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_journaled_at ~domains ~seed ~name f =
  Pool.set_size domains;
  let path = Filename.temp_file "matprod_plan" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let run = Ctx.run_journaled ~seed ~journal:path ~protocol:name f in
      (run.Ctx.output, read_all path))

let test_domains_byte_identical () =
  Fun.protect ~finally:(fun () -> Pool.set_size 1) @@ fun () ->
  List.iteri
    (fun i (name, f) ->
      let seed = 9000 + i in
      let out1, j1 = run_journaled_at ~domains:1 ~seed ~name f in
      let out4, j4 = run_journaled_at ~domains:4 ~seed ~name f in
      check Alcotest.bool (name ^ ": outputs equal across domain counts") true
        (out1 = out4);
      check Alcotest.bool (name ^ ": journals byte-identical") true
        (String.equal j1 j4);
      check Alcotest.bool (name ^ ": journal non-empty") true
        (String.length j1 > 0))
    (protocols ~seed:3)

(* ------------------------------------------------------------------ *)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "plan"
    [
      ("equivalence", qsuite);
      ( "pool",
        [
          Alcotest.test_case "init matches sequential" `Quick
            test_pool_init_matches_sequential;
          Alcotest.test_case "map_sum bit-identical" `Quick
            test_pool_map_sum_bit_identical;
          Alcotest.test_case "edge cases" `Quick test_pool_edges;
          Alcotest.test_case "exception propagates" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "size floor" `Quick test_pool_size_floor;
        ] );
      ( "domains",
        [
          Alcotest.test_case "gallery byte-identical at 1 vs 4 domains" `Quick
            test_domains_byte_identical;
        ] );
    ]
