(* Tests for the sketching substrate: linearity laws, estimator accuracy,
   sparse recovery exactness and failure detection, sampler uniformity. *)

module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Field31 = Matprod_util.Field31
module Ams = Matprod_sketch.Ams
module Stable_sketch = Matprod_sketch.Stable_sketch
module L0_sketch = Matprod_sketch.L0_sketch
module Lp = Matprod_sketch.Lp
module One_sparse = Matprod_sketch.One_sparse
module S_sparse = Matprod_sketch.S_sparse
module L0_sampler = Matprod_sketch.L0_sampler
module Cohen = Matprod_sketch.Cohen
module Blocked_ams = Matprod_sketch.Blocked_ams
module Pool = Matprod_util.Pool

let check = Alcotest.check

let random_sparse_vec rng ~dim ~nnz ~maxval =
  let idx = Array.init dim (fun i -> i) in
  Prng.shuffle rng idx;
  let chosen = Array.sub idx 0 (min nnz dim) in
  Array.sort compare chosen;
  Array.map
    (fun i ->
      let v = 1 + Prng.int rng maxval in
      (i, if Prng.bool rng then v else -v))
    chosen

let lp_pow_of_vec ~p vec =
  Array.fold_left
    (fun acc (_, v) ->
      if v = 0 then acc
      else acc +. if p = 0.0 then 1.0 else Float.abs (float_of_int v) ** p)
    0.0 vec

(* ------------------------------------------------------------------ *)
(* AMS *)

let test_ams_exact_on_singleton () =
  let rng = Prng.create 1 in
  let t = Ams.create rng ~eps:0.5 ~groups:5 in
  let y = Ams.sketch t [| (7, 3) |] in
  check (Alcotest.float 1e-6) "singleton norm exact" 9.0 (Ams.estimate_sq t y)

let test_ams_accuracy () =
  let rng = Prng.create 2 in
  let failures = ref 0 in
  for trial = 1 to 20 do
    let t = Ams.create rng ~eps:0.2 ~groups:7 in
    let vec = random_sparse_vec rng ~dim:500 ~nnz:100 ~maxval:20 in
    let actual = lp_pow_of_vec ~p:2.0 vec in
    let est = Ams.estimate_sq t (Ams.sketch t vec) in
    if Stats.relative_error ~actual ~estimate:est > 0.25 then incr failures;
    ignore trial
  done;
  check Alcotest.bool "most estimates within eps" true (!failures <= 2)

let test_ams_linearity () =
  let rng = Prng.create 3 in
  let t = Ams.create rng ~eps:0.3 ~groups:3 in
  let v1 = random_sparse_vec rng ~dim:100 ~nnz:30 ~maxval:10 in
  let v2 = random_sparse_vec rng ~dim:100 ~nnz:30 ~maxval:10 in
  (* sketch(3*v1 + 2*v2) = 3*sketch(v1) + 2*sketch(v2) *)
  let dense = Array.make 100 0 in
  Array.iter (fun (i, v) -> dense.(i) <- dense.(i) + (3 * v)) v1;
  Array.iter (fun (i, v) -> dense.(i) <- dense.(i) + (2 * v)) v2;
  let combined =
    Array.of_list
      (List.filter_map
         (fun i -> if dense.(i) <> 0 then Some (i, dense.(i)) else None)
         (List.init 100 (fun i -> i)))
  in
  let direct = Ams.sketch t combined in
  let composed = Ams.empty t in
  Ams.add_scaled t ~dst:composed ~coeff:3 (Ams.sketch t v1);
  Ams.add_scaled t ~dst:composed ~coeff:2 (Ams.sketch t v2);
  Array.iteri
    (fun r x ->
      check (Alcotest.float 1e-6) "linear" x composed.(r))
    direct

let test_ams_zero () =
  let rng = Prng.create 4 in
  let t = Ams.create rng ~eps:0.5 ~groups:3 in
  check (Alcotest.float 0.0) "zero vector" 0.0 (Ams.estimate_sq t (Ams.empty t))

let test_ams_entries_pm1 () =
  let rng = Prng.create 5 in
  let t = Ams.create_rows rng ~rows_per_group:4 ~groups:2 in
  for r = 0 to 7 do
    for i = 0 to 20 do
      let e = Ams.entry t ~row:r i in
      check Alcotest.bool "pm1" true (e = 1.0 || e = -1.0)
    done
  done

(* ------------------------------------------------------------------ *)
(* Stable *)

let test_stable_accuracy_per_p () =
  List.iter
    (fun p ->
      let rng = Prng.create 6 in
      let failures = ref 0 in
      for _ = 1 to 10 do
        let t = Stable_sketch.create rng ~p ~eps:0.2 ~groups:5 in
        let vec = random_sparse_vec rng ~dim:300 ~nnz:80 ~maxval:10 in
        let actual = lp_pow_of_vec ~p vec ** (1.0 /. p) in
        let est = Stable_sketch.estimate t (Stable_sketch.sketch t vec) in
        if Stats.relative_error ~actual ~estimate:est > 0.3 then incr failures
      done;
      check Alcotest.bool
        (Printf.sprintf "p=%.1f mostly accurate" p)
        true (!failures <= 2))
    [ 0.5; 1.0; 1.5; 2.0 ]

let test_stable_linearity () =
  let rng = Prng.create 7 in
  let t = Stable_sketch.create_rows rng ~p:1.0 ~rows:50 in
  let v = [| (3, 2); (10, -1) |] in
  let direct = Stable_sketch.sketch t [| (3, 4); (10, -2) |] in
  let doubled = Stable_sketch.empty t in
  Stable_sketch.add_scaled t ~dst:doubled ~coeff:2 (Stable_sketch.sketch t v);
  Array.iteri
    (fun r x -> check (Alcotest.float 1e-6) "2x" x doubled.(r))
    direct

let test_stable_entry_deterministic () =
  let rng = Prng.create 8 in
  let t = Stable_sketch.create_rows rng ~p:1.3 ~rows:10 in
  check (Alcotest.float 0.0) "same entry"
    (Stable_sketch.entry t ~row:4 77)
    (Stable_sketch.entry t ~row:4 77)

let test_stable_estimate_pow () =
  let rng = Prng.create 9 in
  let t = Stable_sketch.create rng ~p:2.0 ~eps:0.3 ~groups:5 in
  let vec = [| (0, 3); (5, 4) |] in
  (* ||x||_2 = 5, ||x||_2^2 = 25 *)
  let y = Stable_sketch.sketch t vec in
  let pow = Stable_sketch.estimate_pow t y in
  check Alcotest.bool "pow consistent" true
    (Float.abs (pow -. (Stable_sketch.estimate t y ** 2.0)) < 1e-9)

(* ------------------------------------------------------------------ *)
(* L0 sketch *)

let test_l0_exact_zero_and_small () =
  let rng = Prng.create 10 in
  let t = L0_sketch.create rng ~eps:0.3 ~groups:3 ~dim:1000 in
  check (Alcotest.float 0.0) "zero" 0.0 (L0_sketch.estimate t (L0_sketch.empty t));
  let one = L0_sketch.sketch t [| (123, 5) |] in
  let est = L0_sketch.estimate t one in
  check Alcotest.bool "singleton ~1" true (est >= 0.5 && est <= 2.0)

let test_l0_accuracy () =
  let rng = Prng.create 11 in
  List.iter
    (fun nnz ->
      let failures = ref 0 in
      for _ = 1 to 10 do
        let t = L0_sketch.create rng ~eps:0.2 ~groups:5 ~dim:4096 in
        let vec = random_sparse_vec rng ~dim:4096 ~nnz ~maxval:100 in
        let est = L0_sketch.estimate t (L0_sketch.sketch t vec) in
        if Stats.relative_error ~actual:(float_of_int nnz) ~estimate:est > 0.3
        then incr failures
      done;
      check Alcotest.bool
        (Printf.sprintf "nnz=%d mostly accurate" nnz)
        true (!failures <= 2))
    [ 10; 100; 1000; 4000 ]

let test_l0_ignores_values () =
  (* l0 depends only on the support: values 1 vs 1000 give same estimate. *)
  let rng = Prng.create 12 in
  let t = L0_sketch.create rng ~eps:0.25 ~groups:3 ~dim:500 in
  let supp = [| 5; 17; 100; 300; 499 |] in
  let v1 = Array.map (fun i -> (i, 1)) supp in
  let v2 = Array.map (fun i -> (i, 1000)) supp in
  check (Alcotest.float 1e-9) "same estimate"
    (L0_sketch.estimate t (L0_sketch.sketch t v1))
    (L0_sketch.estimate t (L0_sketch.sketch t v2))

(* The column-sketch message (an array of L0_sketch.wire rows) decodes
   only with every row of the receiver's size: a row one cell short, in
   either of its forms, is a Decode_error at receipt rather than a row
   the combiner would later refuse. *)
let test_l0_wire_checks_size () =
  let module Codec = Matprod_comm.Codec in
  let t = L0_sketch.create (Prng.create 14) ~eps:0.3 ~groups:3 ~dim:200 in
  let n = L0_sketch.size t in
  let message = Codec.array (L0_sketch.wire t) in
  let rows = [| L0_sketch.sketch t [| (3, 1) |]; L0_sketch.sketch t [| (9, 2); (40, -1) |] |] in
  (* each row in the shorter form of its own length, under one count *)
  let raw rows =
    Codec.encode Codec.uint (Array.length rows)
    ^ String.concat ""
        (Array.to_list
           (Array.map
              (fun r ->
                Codec.encode
                  (Dense_oracle.dense_view (Codec.shorter_uint_array ~length:(Array.length r)))
                  r)
              rows))
  in
  let dense = Array.map Dense_oracle.to_dense rows in
  check Alcotest.bool "own size decodes" true
    (Codec.decode message (raw dense) = rows);
  List.iter
    (fun (name, short) ->
      let bytes = raw [| dense.(0); short; dense.(1) |] in
      match Codec.decode message bytes with
      | exception Codec.Decode_error _ -> ()
      | _ -> Alcotest.failf "%s: a row of %d cells decoded" name (n - 1))
    [
      ("sparse row", Array.sub dense.(1) 0 (n - 1));
      ("dense row", Array.make (n - 1) 1);
    ]

let test_l0_linearity () =
  let rng = Prng.create 13 in
  let t = L0_sketch.create rng ~eps:0.3 ~groups:3 ~dim:200 in
  let v1 = [| (3, 1); (7, 2) |] and v2 = [| (7, 1); (50, 4) |] in
  let dense = Array.make 200 0 in
  Array.iter (fun (i, v) -> dense.(i) <- dense.(i) + v) v1;
  Array.iter (fun (i, v) -> dense.(i) <- dense.(i) + (3 * v)) v2;
  let combined =
    Array.of_list
      (List.filter_map
         (fun i -> if dense.(i) <> 0 then Some (i, dense.(i)) else None)
         (List.init 200 (fun i -> i)))
  in
  let direct = L0_sketch.sketch t combined in
  let composed =
    L0_sketch.add_scaled t
      (L0_sketch.add_scaled t (L0_sketch.empty t) ~coeff:1 (L0_sketch.sketch t v1))
      ~coeff:3 (L0_sketch.sketch t v2)
  in
  check Alcotest.bool "field linear" true (direct = composed)

(* ------------------------------------------------------------------ *)
(* Lp dispatcher *)

let test_lp_dispatch_types () =
  let rng = Prng.create 14 in
  let l0 = Lp.create rng ~p:0.0 ~eps:0.3 ~groups:3 ~dim:100 in
  let l1 = Lp.create rng ~p:1.0 ~eps:0.3 ~groups:3 ~dim:100 in
  let l2 = Lp.create rng ~p:2.0 ~eps:0.3 ~groups:3 ~dim:100 in
  (match Lp.sketch l0 [| (1, 1) |] with
  | Lp.Z _ -> ()
  | Lp.F _ -> Alcotest.fail "l0 should be field-valued");
  (match Lp.sketch l1 [| (1, 1) |] with
  | Lp.F _ -> ()
  | Lp.Z _ -> Alcotest.fail "l1 should be float-valued");
  match Lp.sketch l2 [| (1, 1) |] with
  | Lp.F _ -> ()
  | Lp.Z _ -> Alcotest.fail "l2 should be float-valued"

let test_lp_estimates_each_p () =
  let rng = Prng.create 15 in
  List.iter
    (fun p ->
      let t = Lp.create rng ~p ~eps:0.25 ~groups:5 ~dim:512 in
      let vec = random_sparse_vec rng ~dim:512 ~nnz:64 ~maxval:8 in
      let actual = lp_pow_of_vec ~p vec in
      let est = Lp.estimate_pow t (Lp.sketch t vec) in
      check Alcotest.bool
        (Printf.sprintf "p=%.1f in ballpark" p)
        true
        (Stats.relative_error ~actual ~estimate:est < 0.5))
    [ 0.0; 0.5; 1.0; 2.0 ]

let test_lp_wire_roundtrip () =
  let rng = Prng.create 16 in
  List.iter
    (fun p ->
      let t = Lp.create rng ~p ~eps:0.5 ~groups:3 ~dim:64 in
      let v = Lp.sketch t [| (3, 2); (9, -1) |] in
      let codec = Lp.wire t in
      let v' =
        Matprod_comm.Codec.decode codec (Matprod_comm.Codec.encode codec v)
      in
      (* Field sketches survive exactly; float sketches go through float32. *)
      match (v, v') with
      | Lp.Z a, Lp.Z b -> check Alcotest.bool "field exact" true (a = b)
      | Lp.F a, Lp.F b ->
          Array.iteri
            (fun i x ->
              check Alcotest.bool "f32 close" true (Float.abs (x -. b.(i)) <= Float.abs x *. 1e-6 +. 1e-6))
            a
      | _ -> Alcotest.fail "wire changed variant")
    [ 0.0; 1.0; 2.0 ]

let test_lp_rejects_bad_p () =
  let rng = Prng.create 17 in
  Alcotest.check_raises "p=3" (Invalid_argument "Lp.create: p range") (fun () ->
      ignore (Lp.create rng ~p:3.0 ~eps:0.5 ~groups:3 ~dim:10))

(* ------------------------------------------------------------------ *)
(* One-sparse recovery *)

(* One cell in flat storage. *)
let fresh_cell () = Array.make One_sparse.words 0

let test_one_sparse_zero () =
  let rng = Prng.create 18 in
  let spec = One_sparse.spec rng in
  let c = fresh_cell () in
  (match One_sparse.decode spec c 0 with
  | One_sparse.Zero -> ()
  | _ -> Alcotest.fail "fresh cell should decode Zero");
  check Alcotest.bool "is_zero" true (One_sparse.is_zero c 0)

let test_one_sparse_singleton () =
  let rng = Prng.create 19 in
  let spec = One_sparse.spec rng in
  let c = fresh_cell () in
  One_sparse.update spec c 0 42 7;
  (match One_sparse.decode spec c 0 with
  | One_sparse.One (42, 7) -> ()
  | _ -> Alcotest.fail "should recover (42,7)");
  (* negative values too *)
  let c2 = fresh_cell () in
  One_sparse.update spec c2 0 13 (-5);
  match One_sparse.decode spec c2 0 with
  | One_sparse.One (13, -5) -> ()
  | _ -> Alcotest.fail "should recover (13,-5)"

let test_one_sparse_cancellation_back_to_zero () =
  let rng = Prng.create 20 in
  let spec = One_sparse.spec rng in
  let c = fresh_cell () in
  One_sparse.update spec c 0 42 7;
  One_sparse.update spec c 0 42 (-7);
  match One_sparse.decode spec c 0 with
  | One_sparse.Zero -> ()
  | _ -> Alcotest.fail "cancel to zero"

let test_one_sparse_many () =
  let rng = Prng.create 21 in
  let spec = One_sparse.spec rng in
  let misdecodes = ref 0 in
  for trial = 1 to 500 do
    let c = fresh_cell () in
    One_sparse.update spec c 0 (trial mod 97) 3;
    One_sparse.update spec c 0 ((trial mod 89) + 100) 5;
    match One_sparse.decode spec c 0 with
    | One_sparse.Many -> ()
    | _ -> incr misdecodes
  done;
  check Alcotest.int "never misdecodes a 2-sparse vector" 0 !misdecodes

(* Regression: with raw polynomial fingerprint coefficients, equal values
   at positions i and j with i + j even ALWAYS verified as a singleton at
   (i+j)/2 — the sum Σ c(k) only depended on the positions' power sums.
   The mixed coefficients must reject every such symmetric pattern. *)
let test_one_sparse_symmetric_patterns () =
  let rng = Prng.create 51 in
  let misdecodes = ref 0 in
  for trial = 1 to 300 do
    let spec = One_sparse.spec rng in
    let gap = 2 * (1 + (trial mod 50)) in
    let i = trial mod 1000 in
    let c = fresh_cell () in
    One_sparse.update spec c 0 i 1;
    One_sparse.update spec c 0 (i + gap) 1;
    (match One_sparse.decode spec c 0 with
    | One_sparse.Many -> ()
    | _ -> incr misdecodes);
    (* Equal-size, equal-sum supports must not share a fingerprint-sum:
       a {i, i+3} vs {i+1, i+2} pair through a fresh cell pair. *)
    let c1 = fresh_cell () and c2 = fresh_cell () in
    One_sparse.update spec c1 0 i 1;
    One_sparse.update spec c1 0 (i + 3) 1;
    One_sparse.update spec c2 0 (i + 1) 1;
    One_sparse.update spec c2 0 (i + 2) 1;
    One_sparse.add_scaled c1 0 ~coeff:(-1) c2 0;
    (* c1 - c2 is 4-sparse and nonzero; it must not decode Zero or One. *)
    match One_sparse.decode spec c1 0 with
    | One_sparse.Many -> ()
    | _ -> incr misdecodes
  done;
  check Alcotest.int "symmetric patterns rejected" 0 !misdecodes

(* A cell off the sketch's arithmetic, as a message can carry it: the
   implied index Σi·x_i / Σx_i lies outside the field, where no update
   can have put a coordinate. It is Many, not an exception. *)
let test_one_sparse_out_of_field_index () =
  let spec = One_sparse.spec (Prng.create 52) in
  List.iter
    (fun cell ->
      match One_sparse.decode spec cell 0 with
      | One_sparse.Many -> ()
      | _ -> Alcotest.fail "out-of-field index must decode Many")
    [ [| 1; 1 lsl 40; 5; 7 |]; [| 3; 3 * Field31.p; 0; 0 |]; [| -1; min_int; 1; 1 |] ]

let test_one_sparse_add_scaled () =
  let rng = Prng.create 22 in
  let spec = One_sparse.spec rng in
  let a = fresh_cell () and b = fresh_cell () in
  One_sparse.update spec a 0 10 2;
  One_sparse.update spec b 0 10 3;
  (* a - ... combine: a + (-2)*b + 4e10... check linear combo decodes *)
  One_sparse.add_scaled a 0 ~coeff:2 b 0;
  match One_sparse.decode spec a 0 with
  | One_sparse.One (10, 8) -> ()
  | _ -> Alcotest.fail "2+2*3=8 at index 10"

(* ------------------------------------------------------------------ *)
(* S-sparse recovery *)

let test_s_sparse_recovers_exactly () =
  let rng = Prng.create 23 in
  let ok = ref 0 in
  let trials = 50 in
  for _ = 1 to trials do
    let t = S_sparse.create rng ~s:16 ~reps:3 in
    let vec = random_sparse_vec rng ~dim:10_000 ~nnz:12 ~maxval:50 in
    match S_sparse.decode t (S_sparse.sketch t vec) with
    | S_sparse.Ok pairs when pairs = Array.to_list vec -> incr ok
    | _ -> ()
  done;
  check Alcotest.bool "recovery succeeds almost always" true (!ok >= trials - 2)

let test_s_sparse_detects_overflow () =
  let rng = Prng.create 24 in
  let lies = ref 0 in
  for _ = 1 to 30 do
    let t = S_sparse.create rng ~s:4 ~reps:3 in
    let vec = random_sparse_vec rng ~dim:10_000 ~nnz:200 ~maxval:10 in
    match S_sparse.decode t (S_sparse.sketch t vec) with
    | S_sparse.Fail -> ()
    | S_sparse.Ok pairs ->
        (* If it does claim success, the answer must actually be right. *)
        if pairs <> Array.to_list vec then incr lies
  done;
  check Alcotest.int "never lies" 0 !lies

let test_s_sparse_zero () =
  let rng = Prng.create 25 in
  let t = S_sparse.create rng ~s:4 ~reps:2 in
  match S_sparse.decode t (S_sparse.fresh t) with
  | S_sparse.Ok [] -> ()
  | _ -> Alcotest.fail "zero vector decodes to empty"

let test_s_sparse_linear_composition () =
  let rng = Prng.create 26 in
  let t = S_sparse.create rng ~s:8 ~reps:3 in
  let v1 = [| (5, 2); (100, 1) |] and v2 = [| (5, 1); (200, -3) |] in
  let st = S_sparse.add_scaled t (S_sparse.sketch t v1) ~coeff:3 (S_sparse.sketch t v2) in
  (* v1 + 3*v2 = { 5 -> 5, 100 -> 1, 200 -> -9 } *)
  match S_sparse.decode t st with
  | S_sparse.Ok [ (5, 5); (100, 1); (200, -9) ] -> ()
  | S_sparse.Ok other ->
      Alcotest.failf "wrong recovery: %s"
        (String.concat ";"
           (List.map (fun (i, v) -> Printf.sprintf "(%d,%d)" i v) other))
  | S_sparse.Fail -> Alcotest.fail "recovery failed"

(* ------------------------------------------------------------------ *)
(* L0 sampler *)

let test_l0_sampler_returns_support () =
  let rng = Prng.create 27 in
  let misses = ref 0 and wrong = ref 0 in
  for _ = 1 to 50 do
    let t = L0_sampler.create rng ~dim:2000 () in
    let vec = random_sparse_vec rng ~dim:2000 ~nnz:50 ~maxval:9 in
    match L0_sampler.sample t (L0_sampler.sketch t vec) with
    | None -> incr misses
    | Some (i, v) ->
        if not (Array.exists (fun (j, w) -> j = i && w = v) vec) then incr wrong
  done;
  check Alcotest.int "sampled values always correct" 0 !wrong;
  check Alcotest.bool "few failures" true (!misses <= 3)

let test_l0_sampler_zero_vector () =
  let rng = Prng.create 28 in
  let t = L0_sampler.create rng ~dim:100 () in
  check Alcotest.bool "none on zero" true
    (L0_sampler.sample t (L0_sampler.fresh t) = None)

let test_l0_sampler_uniformity () =
  (* Fix a support of size 8 and draw with many independent samplers:
     each support element should come up roughly uniformly. *)
  let rng = Prng.create 29 in
  let supp = [| 3; 50; 120; 400; 777; 1500; 1800; 1999 |] in
  let vec = Array.map (fun i -> (i, 1)) supp in
  let counts = Array.make (Array.length supp) 0 in
  let trials = 800 in
  let got = ref 0 in
  for _ = 1 to trials do
    let t = L0_sampler.create rng ~dim:2000 () in
    match L0_sampler.sample t (L0_sampler.sketch t vec) with
    | Some (i, _) ->
        incr got;
        Array.iteri (fun k j -> if j = i then counts.(k) <- counts.(k) + 1) supp
    | None -> ()
  done;
  check Alcotest.bool "mostly succeeds" true (!got > trials * 9 / 10);
  let expected = Array.make 8 (float_of_int !got /. 8.0) in
  let chi2 = Stats.chi_square ~observed:counts ~expected in
  (* 7 dof, 99.9th percentile ~ 24.3; allow margin for near-uniformity. *)
  check Alcotest.bool "uniform over support" true (chi2 < 35.0)

let test_l0_sampler_linear_composition () =
  let rng = Prng.create 30 in
  let t = L0_sampler.create rng ~dim:500 () in
  let st =
    L0_sampler.add_scaled t (L0_sampler.sketch t [| (5, 2) |]) ~coeff:1
      (L0_sampler.sketch t [| (5, -2); (9, 4) |])
  in
  (* combined vector is {9 -> 4} *)
  match L0_sampler.sample t st with
  | Some (9, 4) -> ()
  | Some (i, v) -> Alcotest.failf "expected (9,4), got (%d,%d)" i v
  | None -> Alcotest.fail "sampler failed on 1-sparse vector"

let test_l0_sampler_wire () =
  let rng = Prng.create 31 in
  let t = L0_sampler.create rng ~dim:300 () in
  let st = L0_sampler.sketch t [| (17, 3); (200, -1) |] in
  let codec = L0_sampler.wire t in
  let st' = Matprod_comm.Codec.decode codec (Matprod_comm.Codec.encode codec st) in
  check Alcotest.bool "sample survives transport" true
    (L0_sampler.sample t st = L0_sampler.sample t st')

(* The sampler message as its parts: (cell count, nonzero cells) per
   level, then the l0 sketch as (dense length, (delta, value) pairs) —
   the bytes of L0_sampler.wire, with no shape to check. *)
let raw_sampler_wire =
  let module Codec = Matprod_comm.Codec in
  let cell = Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint) in
  Codec.pair
    (Codec.array (Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint cell))))
    (Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint Codec.uint)))

let decode_error codec bytes =
  match Matprod_comm.Codec.decode codec bytes with
  | _ -> false
  | exception Matprod_comm.Codec.Decode_error _ -> true

(* A message decodes only through a sampler of its own shape: level
   count, cells per level and l0 sketch size are each checked. *)
let test_l0_sampler_wire_shape () =
  let module Codec = Matprod_comm.Codec in
  let small = L0_sampler.create (Prng.create 32) ~dim:24 () in
  let large = L0_sampler.create (Prng.create 32) ~dim:96 () in
  let more_reps = L0_sampler.create (Prng.create 32) ~dim:24 ~reps:4 () in
  let msg = Codec.encode (L0_sampler.wire small) (L0_sampler.sketch small [| (3, 1); (20, -2) |]) in
  check Alcotest.bool "own shape decodes" false (decode_error (L0_sampler.wire small) msg);
  check Alcotest.bool "level count" true (decode_error (L0_sampler.wire large) msg);
  check Alcotest.bool "cells per level" true (decode_error (L0_sampler.wire more_reps) msg);
  let levels, (l0_len, l0_pairs) = Codec.decode raw_sampler_wire msg in
  let tamper v = Codec.encode raw_sampler_wire v in
  List.iter
    (fun (name, bytes) ->
      check Alcotest.bool name true (decode_error (L0_sampler.wire small) bytes))
    [
      ("l0 sketch longer", tamper (levels, (l0_len + 1, l0_pairs)));
      ("l0 sketch shorter", tamper (levels, (l0_len - 1, [])));
      ("one level fewer", tamper (Array.sub levels 1 (Array.length levels - 1), (l0_len, l0_pairs)));
      ("one level more", tamper (Array.append levels [| levels.(0) |], (l0_len, l0_pairs)));
      ( "one level short a cell",
        tamper
          ( Array.mapi (fun l (n, cells) -> if l = 0 then (n - 1, []) else (n, cells)) levels,
            (l0_len, l0_pairs) ) );
    ]

(* Declared lengths the message does not pay for are checked against the
   receiver's shape before anything is allocated: a cell count of
   max_dense_length (the 5-byte level (2^24, [])), a level count far
   above the sampler's, and an l0 sketch of max_dense_length cells. *)
let test_l0_sampler_wire_allocation () =
  let module Codec = Matprod_comm.Codec in
  let t = L0_sampler.create (Prng.create 33) ~dim:24 () in
  let wire = L0_sampler.wire t in
  let levels, l0 = Codec.decode raw_sampler_wire (Codec.encode wire (L0_sampler.fresh t)) in
  let big = Dense_oracle.max_dense_length in
  List.iter
    (fun (name, msg) ->
      let bytes = Codec.encode raw_sampler_wire msg in
      let before = Gc.allocated_bytes () in
      let rejected = decode_error wire bytes in
      let allocated = Gc.allocated_bytes () -. before in
      check Alcotest.bool (name ^ ": Decode_error") true rejected;
      if allocated >= 1e6 then Alcotest.failf "%s: decode allocated %.0f bytes" name allocated)
    [
      ("level of 2^24 cells", (Array.map (fun _ -> (big, [])) levels, l0));
      ("first level of 2^24 cells", ([| (big, []) |], l0));
      ("2^20 levels", (Array.make (1 lsl 20) levels.(0), l0));
      ("l0 sketch of 2^24 cells", (levels, (big, [])));
    ]

(* Bob's combine in Theorem 3.2 both ways, at seeds 1–5: sampler states
   merged by L0_sampler.add_scaled, and the same states summed as dense
   arrays — One_sparse.add_scaled on every flat cell of every level, the
   field formula on every ℓ0 cell — and read back through the wire. The
   coefficients repeat a column with c and −c, which cancels it. Both
   give the same state, byte for byte, and so the same pair. *)
let test_l0_sampler_matches_dense_path () =
  let module Codec = Matprod_comm.Codec in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let t = L0_sampler.create rng ~dim:200 () in
      let states =
        Array.init 6 (fun _ ->
            L0_sampler.sketch t (random_sparse_vec rng ~dim:200 ~nnz:4 ~maxval:3))
      in
      let coeffs = [| (0, 1); (2, 3); (3, -1); (5, 2); (1, 7); (1, -7) |] in
      let sparse =
        Array.fold_left
          (fun acc (k, c) -> L0_sampler.add_scaled t acc ~coeff:c states.(k))
          (L0_sampler.fresh t) coeffs
      in
      let dense_of st =
        let levels, (len, pairs) =
          Codec.decode raw_sampler_wire (Codec.encode (L0_sampler.wire t) st)
        in
        let level (n, cells) =
          let a = Array.make (One_sparse.words * n) 0 in
          List.iter
            (fun (j, ((w0, w1), (w2, w3))) -> Array.blit [| w0; w1; w2; w3 |] 0 a (4 * j) 4)
            cells;
          a
        in
        let l0 = Array.make len 0 and at = ref (-1) in
        List.iter
          (fun (gap, v) ->
            at := !at + gap + 1;
            l0.(!at) <- v)
          pairs;
        (Array.map level levels, l0)
      in
      let levels0, l00 = dense_of (L0_sampler.fresh t) in
      Array.iter
        (fun (k, c) ->
          let levels, l0 = dense_of states.(k) in
          Array.iteri
            (fun l src ->
              for j = 0 to (Array.length src / One_sparse.words) - 1 do
                One_sparse.add_scaled levels0.(l) j ~coeff:c src j
              done)
            levels;
          let f = Field31.of_int c in
          Array.iteri (fun i x -> l00.(i) <- Field31.add l00.(i) (Field31.mul f x)) l0)
        coeffs;
      let raw_of_dense =
        let level a =
          let cells = ref [] in
          for j = (Array.length a / 4) - 1 downto 0 do
            if Array.exists (fun w -> w <> 0) (Array.sub a (4 * j) 4) then
              cells := (j, ((a.(4 * j), a.((4 * j) + 1)), (a.((4 * j) + 2), a.((4 * j) + 3)))) :: !cells
          done;
          (Array.length a / 4, !cells)
        in
        let pairs = ref [] and prev = ref (-1) in
        Array.iteri
          (fun i v ->
            if v <> 0 then begin
              pairs := (i - !prev - 1, v) :: !pairs;
              prev := i
            end)
          l00;
        (Array.map level levels0, (Array.length l00, List.rev !pairs))
      in
      let dense_bytes = Codec.encode raw_sampler_wire raw_of_dense in
      check Alcotest.string
        (Printf.sprintf "seed %d: combined state" seed)
        dense_bytes
        (Codec.encode (L0_sampler.wire t) sparse);
      check Alcotest.(option (pair int int))
        (Printf.sprintf "seed %d: sampled pair" seed)
        (L0_sampler.sample t (Codec.decode (L0_sampler.wire t) dense_bytes))
        (L0_sampler.sample t sparse))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Cohen *)

let test_cohen_estimates_union_sizes () =
  let rng = Prng.create 35 in
  let t = Cohen.create rng ~reps:400 ~rows:1000 in
  (* Columns of A: k=0 has rows {0..99}, k=1 has {50..149}, union = 150. *)
  let supp_of_col = function
    | 0 -> Array.init 100 (fun i -> i)
    | 1 -> Array.init 100 (fun i -> i + 50)
    | _ -> [||]
  in
  let mins = Cohen.column_mins t ~supp_of_col ~cols:3 in
  let est_union = Cohen.estimate_union t mins [| 0; 1 |] in
  check Alcotest.bool "union ~150" true
    (Stats.relative_error ~actual:150.0 ~estimate:est_union < 0.2);
  let est_single = Cohen.estimate_union t mins [| 0 |] in
  check Alcotest.bool "single ~100" true
    (Stats.relative_error ~actual:100.0 ~estimate:est_single < 0.2);
  check (Alcotest.float 0.0) "empty" 0.0 (Cohen.estimate_union t mins [||]);
  check (Alcotest.float 0.0) "empty col" 0.0 (Cohen.estimate_union t mins [| 2 |])

let test_cohen_labels_deterministic () =
  let rng = Prng.create 36 in
  let t = Cohen.create rng ~reps:3 ~rows:10 in
  check (Alcotest.float 0.0) "deterministic" (Cohen.label t ~rep:1 5)
    (Cohen.label t ~rep:1 5)

(* ------------------------------------------------------------------ *)
(* Blocked AMS *)

let test_blocked_ams_linf_bounds () =
  let rng = Prng.create 37 in
  let kappa = 4.0 in
  let successes = ref 0 in
  for _ = 1 to 20 do
    let t = Blocked_ams.create rng ~dim:1024 ~kappa in
    let vec = random_sparse_vec rng ~dim:1024 ~nnz:60 ~maxval:30 in
    let actual =
      Array.fold_left (fun acc (_, v) -> max acc (abs v)) 0 vec |> float_of_int
    in
    let est = Blocked_ams.estimate_linf t (Blocked_ams.sketch t vec) in
    (* est should be within [actual/2, 2*kappa*actual] roughly *)
    if est >= actual /. 2.0 && est <= 2.0 *. kappa *. actual then incr successes
  done;
  check Alcotest.bool "kappa-approx mostly holds" true (!successes >= 18)

let test_blocked_ams_zero () =
  let rng = Prng.create 38 in
  let t = Blocked_ams.create rng ~dim:100 ~kappa:3.0 in
  check (Alcotest.float 0.0) "zero" 0.0 (Blocked_ams.estimate_linf t (Blocked_ams.empty t))

let test_blocked_ams_size_shrinks_with_kappa () =
  let rng = Prng.create 39 in
  let t2 = Blocked_ams.create rng ~dim:4096 ~kappa:2.0 in
  let t8 = Blocked_ams.create rng ~dim:4096 ~kappa:8.0 in
  check Alcotest.bool "larger kappa -> smaller sketch" true
    (Blocked_ams.size t8 < Blocked_ams.size t2);
  check Alcotest.int "blocks kappa=8" 64 (Blocked_ams.blocks t8)

(* ------------------------------------------------------------------ *)
(* Compressed matrix multiplication (Pagh [32]) *)

module Cm = Matprod_sketch.Compressed_matmul
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product

let test_cm_buckets_power_of_two () =
  let rng = Prng.create 40 in
  let t = Cm.create rng ~buckets:100 ~reps:2 in
  check Alcotest.int "rounded up" 128 (Cm.buckets t);
  check Alcotest.int "reps" 2 (Cm.reps t)

let cm_sketch_of rng ~buckets ~reps a b =
  let t = Cm.create rng ~buckets ~reps in
  let at = Imat.transpose a in
  let inner = Imat.cols a in
  let sketches =
    Array.init reps (fun rep ->
        let left = Array.init inner (fun k -> Cm.half_sketch_left t ~rep (Imat.row at k)) in
        let right = Array.init inner (fun k -> Cm.half_sketch_right t ~rep (Imat.row b k)) in
        Cm.combine t ~rep ~left ~right)
  in
  (t, sketches)

let test_cm_exact_when_buckets_large () =
  (* With b >= n^2-ish and a single repetition the sketch is essentially a
     perfect hash: point queries recover C exactly (up to fp rounding). *)
  let rng = Prng.create 41 in
  let d = [| [| 1; 2; 0 |]; [| 0; 1; 1 |]; [| 3; 0; 1 |] |] in
  let a = Imat.of_dense d and b = Imat.of_dense d in
  let c = Product.int_product a b in
  let t, sketches = cm_sketch_of rng ~buckets:4096 ~reps:5 a b in
  for i = 0 to 2 do
    for j = 0 to 2 do
      let q = Cm.query t ~sketches i j in
      check Alcotest.bool
        (Printf.sprintf "entry (%d,%d)" i j)
        true
        (Float.abs (q -. float_of_int (Product.get c i j)) < 1e-6)
    done
  done

let test_cm_heavy_entry_visible () =
  let rng = Prng.create 42 in
  let a, b, planted =
    Matprod_workload.Workload.planted_heavy_int rng ~n:64 ~density:0.05
      ~max_value:3 ~heavy:[ (1, 20, 10) ]
  in
  let c = Product.int_product a b in
  let t, sketches = cm_sketch_of rng ~buckets:512 ~reps:5 a b in
  let i, j = List.hd planted in
  let actual = float_of_int (Product.get c i j) in
  let q = Cm.query t ~sketches i j in
  check Alcotest.bool "planted entry estimated within 30%" true
    (Float.abs (q -. actual) < 0.3 *. actual)

let test_cm_linearity_of_halves () =
  (* The half-sketch is linear in the vector. *)
  let rng = Prng.create 43 in
  let t = Cm.create rng ~buckets:64 ~reps:1 in
  let v1 = [| (3, 2); (10, 1) |] and v2 = [| (3, 1); (20, 4) |] in
  let sum = [| (3, 3); (10, 1); (20, 4) |] in
  let h1 = Cm.half_sketch_left t ~rep:0 v1 in
  let h2 = Cm.half_sketch_left t ~rep:0 v2 in
  let hsum = Cm.half_sketch_left t ~rep:0 sum in
  Array.iteri
    (fun idx x ->
      check Alcotest.bool "linear" true
        (Float.abs (x -. (h1.(idx) +. h2.(idx))) < 1e-9))
    hsum

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* A combination as generated: (source draw, coefficients) pairs, the
   draw reduced modulo the number of sources once they are known. A pair
   [c; p − c] cancels that source's contribution in the field. *)
let combination_gen =
  QCheck.Gen.(
    list_size (0 -- 10)
      (pair (int_bound 1_000)
         (oneof
            [
              map (fun c -> [ c ]) (int_range (-5) 5);
              return [ 0 ];
              map (fun c -> [ c; Field31.p - c ]) (int_range 1 1_000_000);
              map (fun c -> [ c ])
                (oneofl [ max_int; min_int; Field31.p; -Field31.p; 1 lsl 40 ]);
            ])))

let resolve_combination srcs raw =
  let n = Array.length srcs in
  Array.of_list
    (List.concat_map (fun (k, cs) -> List.map (fun c -> (k mod n, c)) cs) raw)

(* Sketches of the vectors, then a repeat of the first and an empty one. *)
let lp_sources t vecs =
  Array.of_list (List.map (Lp.sketch t) (vecs @ [ List.hd vecs; [||] ]))

(* The specification: for the float families the add_scaled sum; for
   p = 0 the sum over dense field arrays, cell by cell, read back into a
   state. *)
let dense_combination t srcs coeffs =
  match Lp.empty t with
  | Lp.F _ ->
      Lp.estimate_pow t
        (Array.fold_left
           (fun acc (k, c) -> Lp.add_scaled t acc ~coeff:c srcs.(k))
           (Lp.empty t) coeffs)
  | Lp.Z zero ->
      let acc = Array.make zero.length 0 in
      Array.iter
        (fun (k, c) ->
          match srcs.(k) with
          | Lp.Z src ->
              let c = Field31.of_int c in
              Array.iteri
                (fun i x -> acc.(i) <- Field31.add acc.(i) (Field31.mul c x))
                (Dense_oracle.to_dense src)
          | Lp.F _ -> assert false)
        coeffs;
      Lp.estimate_pow t (Lp.Z (Dense_oracle.of_dense acc))

(* ------------------------------------------------------------------ *)
(* The record kernel: One_sparse as it was before cells moved into flat
   int storage (one mutable record per cell), kept as the specification
   of the flat kernel, with S_sparse's peel and the cells codec over it.
   [spec] and [s_sparse] draw from the rng in the order One_sparse.spec
   and S_sparse.create do, so the same seed gives the same hashes. *)
module Record = struct
  module Hashing = Matprod_util.Hashing
  module Codec = Matprod_comm.Codec

  type spec = { c1 : Hashing.t; c2 : Hashing.t }

  type cell = {
    mutable sum : int;
    mutable isum : int;
    mutable fp1 : int;
    mutable fp2 : int;
  }

  let spec rng = { c1 = Hashing.create rng ~k:2; c2 = Hashing.create rng ~k:2 }
  let fresh () = { sum = 0; isum = 0; fp1 = 0; fp2 = 0 }
  let is_zero c = c.sum = 0 && c.isum = 0 && c.fp1 = 0 && c.fp2 = 0

  let update spec cell i v =
    if i < 0 then invalid_arg "One_sparse.update: negative index";
    if v <> 0 then begin
      let w = Field31.of_int v in
      cell.sum <- cell.sum + v;
      cell.isum <- cell.isum + (i * v);
      cell.fp1 <- Field31.add cell.fp1 (Field31.mul w (Hashing.field_coeff spec.c1 i));
      cell.fp2 <- Field31.add cell.fp2 (Field31.mul w (Hashing.field_coeff spec.c2 i))
    end

  let add_scaled dst ~coeff src =
    if coeff <> 0 then begin
      let c = Field31.of_int coeff in
      dst.sum <- dst.sum + (coeff * src.sum);
      dst.isum <- dst.isum + (coeff * src.isum);
      dst.fp1 <- Field31.add dst.fp1 (Field31.mul c src.fp1);
      dst.fp2 <- Field31.add dst.fp2 (Field31.mul c src.fp2)
    end

  let decode spec cell =
    if is_zero cell then One_sparse.Zero
    else if cell.sum = 0 then One_sparse.Many
    else
      let i = cell.isum / cell.sum in
      if i < 0 || i >= Field31.p || i * cell.sum <> cell.isum then One_sparse.Many
      else
        let w = Field31.of_int cell.sum in
        let want1 = Field31.mul w (Hashing.field_coeff spec.c1 i) in
        let want2 = Field31.mul w (Hashing.field_coeff spec.c2 i) in
        if cell.fp1 = want1 && cell.fp2 = want2 then One_sparse.One (i, cell.sum)
        else One_sparse.Many

  let cell_codec =
    Codec.map
      (fun c -> ((c.sum, c.isum), (c.fp1, c.fp2)))
      (fun ((sum, isum), (fp1, fp2)) -> { sum; isum; fp1; fp2 })
      (Codec.pair (Codec.pair Codec.int Codec.int) (Codec.pair Codec.uint Codec.uint))

  let cells_wire =
    Codec.map
      (fun cells ->
        let nonzero = ref [] in
        Array.iteri
          (fun idx c -> if not (is_zero c) then nonzero := (idx, c) :: !nonzero)
          cells;
        (Array.length cells, List.rev !nonzero))
      (fun (len, nonzero) ->
        if len > Dense_oracle.max_dense_length then
          raise (Codec.Decode_error "One_sparse.cells_wire: length exceeds cap");
        if List.exists (fun (idx, _) -> idx >= len) nonzero then
          raise (Codec.Decode_error "One_sparse.cells_wire: index beyond length");
        let cells = Array.init len (fun _ -> fresh ()) in
        List.iter (fun (idx, c) -> cells.(idx) <- c) nonzero;
        cells)
      (Codec.pair Codec.uint (Codec.list (Codec.pair Codec.uint cell_codec)))

  (* S_sparse over records: [reps] repetitions of [2s] buckets. *)
  type s_sparse = { spec : spec; buckets : int; hashes : Hashing.t array }

  let s_sparse rng ~s ~reps =
    let hashes = Array.init reps (fun _ -> Hashing.create rng ~k:2) in
    { spec = spec rng; buckets = 2 * s; hashes }

  let bucket_of t ~rep i = (rep * t.buckets) + Hashing.bucket t.hashes.(rep) ~buckets:t.buckets i

  let s_update t state i v =
    if v <> 0 then
      Array.iteri (fun r _ -> update t.spec state.(bucket_of t ~rep:r i) i v) t.hashes

  let s_sketch t vec =
    let st = Array.init (Array.length t.hashes * t.buckets) (fun _ -> fresh ()) in
    Array.iter (fun (i, v) -> s_update t st i v) vec;
    st

  let s_decode t state =
    let work =
      Array.map (fun c -> { sum = c.sum; isum = c.isum; fp1 = c.fp1; fp2 = c.fp2 }) state
    in
    let recovered : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let progress = ref true and passes = ref 0 in
    while !progress && !passes <= Array.length work + 1 do
      progress := false;
      incr passes;
      Array.iter
        (fun cell ->
          match decode t.spec cell with
          | One_sparse.One (i, v) ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt recovered i) in
              Hashtbl.replace recovered i (prev + v);
              s_update t work i (-v);
              progress := true
          | One_sparse.Zero | One_sparse.Many -> ())
        work
    done;
    if Array.for_all is_zero work then
      S_sparse.Ok
        (Hashtbl.fold (fun i v acc -> if v = 0 then acc else (i, v) :: acc) recovered []
        |> List.sort compare)
    else S_sparse.Fail

  (* Records laid out as the flat kernel stores them. *)
  let flatten cells =
    Array.concat
      (Array.to_list (Array.map (fun c -> [| c.sum; c.isum; c.fp1; c.fp2 |]) cells))
end

(* Coefficients and values a cell must carry exactly: small of either
   sign, zero, and huge ones whose products wrap. *)
let kernel_int_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-1000) 1000);
        (1, return 0);
        ( 2,
          oneofl
            [ max_int; min_int; Field31.p; -Field31.p; Field31.p - 1; 1 lsl 40; -(1 lsl 40) ]
        );
        (1, int);
      ])

(* One step on two runs of [cells] cells, x and y: an update, a cancelling
   update pair, or a scaled add between the runs or onto itself (which
   with coefficient −1 clears the cell). *)
type kernel_op =
  | Upd of bool * int * int * int
  | Upd_cancel of bool * int * int * int
  | Add of bool * int * int
  | Self of bool * int * int

let kernel_op_gen ~cells =
  let open QCheck.Gen in
  let k = int_bound (cells - 1) and i = oneof [ int_bound 1000; int_bound 1_000_000_000 ] in
  frequency
    [
      (5, map (fun (x, k, (i, v)) -> Upd (x, k, i, v)) (triple bool k (pair i kernel_int_gen)));
      (1, map (fun (x, k, (i, v)) -> Upd_cancel (x, k, i, v)) (triple bool k (pair i kernel_int_gen)));
      (3, map (fun (x, k, c) -> Add (x, k, c)) (triple bool k kernel_int_gen));
      (1, map (fun (x, k, c) -> Self (x, k, c)) (triple bool k (oneof [ return (-1); kernel_int_gen ])));
    ]

let qcheck_tests =
  let open QCheck in
  let sparse_vec_gen =
    Gen.(
      list_size (0 -- 20) (pair (int_bound 499) (int_range (-50) 50))
      |> map (fun l ->
             let module IM = Map.Make (Int) in
             let m =
               List.fold_left
                 (fun m (k, v) -> IM.update k (fun o -> Some (Option.value ~default:0 o + v)) m)
                 IM.empty l
             in
             IM.bindings m |> List.filter (fun (_, v) -> v <> 0) |> Array.of_list))
  in
  [
    Test.make ~name:"one-sparse: decode of singleton is exact" ~count:300
      (pair (int_bound 100_000) (int_range (-1000) 1000))
      (fun (i, v) ->
        QCheck.assume (v <> 0);
        let rng = Prng.create (i + v) in
        let spec = One_sparse.spec rng in
        let c = fresh_cell () in
        One_sparse.update spec c 0 i v;
        One_sparse.decode spec c 0 = One_sparse.One (i, v));
    (let cells = 6 in
     Test.make ~name:"one-sparse: flat kernel equals the record kernel" ~count:500
       (make Gen.(pair nat (list_size (0 -- 40) (kernel_op_gen ~cells))))
       (fun (seed, ops) ->
         let spec = One_sparse.spec (Prng.create seed) in
         let rspec = Record.spec (Prng.create seed) in
         let flat = Array.init 2 (fun _ -> Array.make (One_sparse.words * cells) 0) in
         let recs = Array.init 2 (fun _ -> Array.init cells (fun _ -> Record.fresh ())) in
         let side x = if x then 0 else 1 in
         List.iter
           (function
             | Upd (x, k, i, v) ->
                 One_sparse.update spec flat.(side x) k i v;
                 Record.update rspec recs.(side x).(k) i v
             | Upd_cancel (x, k, i, v) ->
                 List.iter
                   (fun v ->
                     One_sparse.update spec flat.(side x) k i v;
                     Record.update rspec recs.(side x).(k) i v)
                   [ v; -v ]
             | Add (x, k, coeff) ->
                 let d = side x and s = 1 - side x in
                 One_sparse.add_scaled flat.(d) k ~coeff flat.(s) k;
                 Record.add_scaled recs.(d).(k) ~coeff recs.(s).(k)
             | Self (x, k, coeff) ->
                 let d = side x in
                 One_sparse.add_scaled flat.(d) k ~coeff flat.(d) k;
                 Record.add_scaled recs.(d).(k) ~coeff recs.(d).(k))
           ops;
         Array.for_all2
           (fun f r ->
             f = Record.flatten r
             && List.for_all
                  (fun k ->
                    One_sparse.is_zero f k = Record.is_zero r.(k)
                    && One_sparse.decode spec f k = Record.decode rspec r.(k))
                  (List.init cells Fun.id))
           flat recs));
    (* Sketches past the budget too, so both Ok and Fail verdicts occur;
       one linear combination per case. *)
    Test.make ~name:"s-sparse: decode equals the record kernel's peel" ~count:200
      (make Gen.(triple nat (pair sparse_vec_gen sparse_vec_gen) kernel_int_gen))
      (fun (seed, (v1, v2), coeff) ->
        let t = S_sparse.create (Prng.create seed) ~s:4 ~reps:3 in
        let r = Record.s_sparse (Prng.create seed) ~s:4 ~reps:3 in
        let st = S_sparse.sketch t v1 and rst = Record.s_sketch r v1 in
        let same st =
          Dense_oracle.cells_to_dense st = Record.flatten rst
          && S_sparse.decode t st = Record.s_decode r rst
        in
        let first = same st in
        let st = S_sparse.add_scaled t st ~coeff (S_sparse.sketch t v2) in
        Array.iter2
          (fun d s -> Record.add_scaled d ~coeff s)
          rst (Record.s_sketch r v2);
        first && same st);
    (let cell =
       Gen.(
         frequency
           [
             (3, return (Record.fresh ()));
             ( 1,
               map
                 (fun ((sum, isum), (fp1, fp2)) -> { Record.sum; isum; fp1; fp2 })
                 (pair (pair kernel_int_gen kernel_int_gen)
                    (pair (int_bound (Field31.p - 1)) (int_bound (Field31.p - 1)))) );
           ])
     in
     let flat =
       Dense_oracle.cells_view
         (One_sparse.cells_wire ~max_cells:Dense_oracle.max_dense_length)
     in
     let decode c b =
       match Matprod_comm.Codec.decode c b with
       | v -> Some v
       | exception Matprod_comm.Codec.Decode_error _ -> None
     in
     Test.make ~name:"one-sparse: cells_wire bytes equal the record codec's" ~count:300
       (make Gen.(pair (array_size (0 -- 40) cell) (pair nat (int_bound 7))))
       (fun (recs, (at, bit)) ->
         let bytes = Matprod_comm.Codec.encode Record.cells_wire recs in
         (* One bit flipped: both decoders accept it or both reject it. *)
         let flipped =
           if bytes = "" then bytes
           else
             let b = Bytes.of_string bytes in
             let at = at mod Bytes.length b in
             Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)));
             Bytes.to_string b
         in
         Matprod_comm.Codec.encode flat (Record.flatten recs) = bytes
         && List.for_all
              (fun b ->
                decode flat b = Option.map Record.flatten (decode Record.cells_wire b))
              [ bytes; flipped ]));
    Test.make ~name:"s-sparse: decode inverts sketch (within budget)" ~count:100
      (make sparse_vec_gen) (fun vec ->
        let rng = Prng.create (Array.length vec + 17) in
        let t = S_sparse.create rng ~s:24 ~reps:4 in
        match S_sparse.decode t (S_sparse.sketch t vec) with
        | S_sparse.Ok pairs -> pairs = Array.to_list vec
        | S_sparse.Fail -> Array.length vec > 24);
    Test.make ~name:"ams: sketch of empty is zeros" ~count:20 (int_bound 1000)
      (fun seed ->
        let rng = Prng.create seed in
        let t = Ams.create rng ~eps:0.5 ~groups:3 in
        Array.for_all (fun x -> x = 0.0) (Ams.sketch t [||]));
    Test.make ~name:"l0 sketch: add_scaled with coeff 0 is identity" ~count:50
      (make sparse_vec_gen) (fun vec ->
        let rng = Prng.create 123 in
        let t = L0_sketch.create rng ~eps:0.5 ~groups:2 ~dim:500 in
        let st = L0_sketch.sketch t vec in
        L0_sketch.add_scaled t st ~coeff:0 (L0_sketch.sketch t [| (1, 1) |]) = st);
    (* The kernel skips zero source cells; the cell-by-cell field formula
       is its specification for any coefficient. *)
    (let t =
       L0_sketch.create_explicit (Prng.create 9) ~buckets:8 ~groups:2 ~dim:40
     in
     let n = L0_sketch.size t in
     let residue =
       Gen.frequency
         [ (12, Gen.return 0); (1, Gen.int_bound (Field31.p - 1)) ]
     in
     let coeff =
       Gen.oneof
         [
           Gen.int_range (-1000) 1000;
           Gen.return 0;
           Gen.oneofl [ min_int; max_int; Field31.p; -Field31.p; 1 lsl 40 ];
           Gen.int;
         ]
     in
     Test.make ~name:"l0 sketch: add_scaled equals the cell-by-cell formula"
       ~count:300
       (make
          Gen.(triple (array_repeat n residue) (array_repeat n residue) coeff))
       (fun (dst, src, coeff) ->
         let want =
           Array.map2
             (fun d s -> Field31.add d (Field31.mul (Field31.of_int coeff) s))
             dst src
         in
         Dense_oracle.to_dense
           (L0_sketch.add_scaled t (Dense_oracle.of_dense dst) ~coeff
              (Dense_oracle.of_dense src))
         = want));

    (* A build's radix digit is sized to its key count. add_scaled sorts
       exactly |dst| + |src| keys, so these builds hit key counts on both
       sides of every digit-width switch (16, 32, ..., 2048 keys), on a
       sketch of 1 680 cells (11 bits, the benchmark's ℓ0 shape) and one
       of 11 700 (14 bits, more passes), rising and then falling so a
       wide build precedes a narrow one on the same domain. The
       specification is the cell-by-cell field sum. *)
    Test.make ~name:"l0 sketch: builds across radix digit widths = dense field sum"
      ~count:4 (make Gen.(int_bound 10_000))
      (fun seed ->
        let rng = Prng.create seed in
        let counts =
          0 :: 1 :: List.concat_map (fun w -> [ (1 lsl w) - 1; 1 lsl w ]) [ 4; 5; 6; 7; 8; 9; 10; 11 ]
        in
        List.for_all
          (fun t ->
            let size = L0_sketch.size t in
            let perm = Array.init size Fun.id in
            let random_dense nnz =
              Prng.shuffle rng perm;
              let a = Array.make size 0 in
              for k = 0 to nnz - 1 do
                a.(perm.(k)) <- 1 + Prng.int rng (Field31.p - 1)
              done;
              a
            in
            List.for_all
              (fun n ->
                let dst = random_dense (n / 2) and src = random_dense (n - (n / 2)) in
                let coeff = 1 + Prng.int rng (Field31.p - 1) in
                let want =
                  Array.map2 (fun d x -> Field31.add d (Field31.mul coeff x)) dst src
                in
                Dense_oracle.to_dense
                  (L0_sketch.add_scaled t (Dense_oracle.of_dense dst) ~coeff
                     (Dense_oracle.of_dense src))
                = want)
              (counts @ List.rev counts))
          [
            L0_sketch.create (Prng.create seed) ~eps:0.5 ~groups:5 ~dim:96;
            L0_sketch.create (Prng.create seed) ~eps:0.2 ~groups:3 ~dim:4096;
          ]);
    (* Planned builds of rows from 1 to 96 nonzeros (about 10 to 1 000
       keys on the benchmark's ℓ0 shape), wide rows before narrow ones,
       against the field sum of the rows' one-nonzero sketches. *)
    Test.make ~name:"l0 sketch: planned builds = dense sum of one-nonzero sketches"
      ~count:10 (make Gen.(int_bound 10_000))
      (fun seed ->
        let rng = Prng.create seed in
        let t = L0_sketch.create (Prng.create seed) ~eps:0.5 ~groups:5 ~dim:96 in
        let plan = L0_sketch.plan t ~dim:96 in
        let keys = Array.init 96 Fun.id in
        List.for_all
          (fun nnz ->
            Prng.shuffle rng keys;
            let row = Array.init nnz (fun k -> (keys.(k), Prng.int rng 41 - 20)) in
            let want = Array.make (L0_sketch.size t) 0 in
            Array.iter
              (fun e ->
                Array.iteri
                  (fun i x -> want.(i) <- Field31.add want.(i) x)
                  (Dense_oracle.to_dense (L0_sketch.sketch t [| e |])))
              row;
            Dense_oracle.to_dense (L0_sketch.sketch_with_plan t plan row) = want)
          [ 1; 2; 5; 13; 24; 48; 96; 5; 1 ]);
    (* The sparse combine against its specification, estimate_pow of the
       sum built by add_scaled, bit for bit on every Lp branch. The
       sources repeat one sketch and add an empty one; the coefficients
       repeat indices, include zeros and huge values, and pair c with
       p − c on one source, which takes its field cells back to 0. *)
    Test.make
      ~name:"lp: estimate_combination = estimate_pow of the combination"
      ~count:100
      (make
         Gen.(
           triple (int_bound 10_000)
             (list_size (1 -- 4) sparse_vec_gen)
             (list_size (0 -- 4) combination_gen)))
      (fun (seed, vecs, combos) ->
        List.for_all
          (fun p ->
            let t = Lp.create (Prng.create seed) ~p ~eps:0.5 ~groups:3 ~dim:500 in
            let srcs = lp_sources t vecs in
            let comb = Lp.combiner t srcs in
            List.for_all
              (fun raw ->
                let coeffs = resolve_combination srcs raw in
                float_bits_equal
                  (Lp.estimate_combination comb coeffs)
                  (dense_combination t srcs coeffs))
              ([] :: combos))
          [ 0.0; 1.0; 2.0 ]);
    Test.make ~name:"lp: estimate_combination equal at 1 and 4 domains"
      ~count:10
      (make
         Gen.(
           triple (int_bound 10_000)
             (list_size (1 -- 4) sparse_vec_gen)
             (array_size (return 200) combination_gen)))
      (fun (seed, vecs, combos) ->
        List.for_all
          (fun p ->
            let t = Lp.create (Prng.create seed) ~p ~eps:0.5 ~groups:3 ~dim:500 in
            let srcs = lp_sources t vecs in
            let comb = Lp.combiner t srcs in
            let coeffs = Array.map (resolve_combination srcs) combos in
            let at d =
              Pool.set_size d;
              Fun.protect
                ~finally:(fun () -> Pool.set_size 1)
                (fun () ->
                  Pool.init (Array.length coeffs) (fun i ->
                      Lp.estimate_combination comb coeffs.(i)))
            in
            Array.for_all2 float_bits_equal (at 1) (at 4))
          [ 0.0; 1.0; 2.0 ]);
  ]

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_tests in
  Alcotest.run "sketch"
    [
      ( "ams",
        [
          Alcotest.test_case "singleton exact" `Quick test_ams_exact_on_singleton;
          Alcotest.test_case "accuracy" `Slow test_ams_accuracy;
          Alcotest.test_case "linearity" `Quick test_ams_linearity;
          Alcotest.test_case "zero" `Quick test_ams_zero;
          Alcotest.test_case "entries pm1" `Quick test_ams_entries_pm1;
        ] );
      ( "stable",
        [
          Alcotest.test_case "accuracy per p" `Slow test_stable_accuracy_per_p;
          Alcotest.test_case "linearity" `Quick test_stable_linearity;
          Alcotest.test_case "entry deterministic" `Quick test_stable_entry_deterministic;
          Alcotest.test_case "estimate_pow" `Quick test_stable_estimate_pow;
        ] );
      ( "l0-sketch",
        [
          Alcotest.test_case "zero & singleton" `Quick test_l0_exact_zero_and_small;
          Alcotest.test_case "accuracy" `Slow test_l0_accuracy;
          Alcotest.test_case "value independence" `Quick test_l0_ignores_values;
          Alcotest.test_case "linearity" `Quick test_l0_linearity;
          Alcotest.test_case "wire checks size" `Quick test_l0_wire_checks_size;
        ] );
      ( "lp",
        [
          Alcotest.test_case "dispatch types" `Quick test_lp_dispatch_types;
          Alcotest.test_case "estimates each p" `Slow test_lp_estimates_each_p;
          Alcotest.test_case "wire roundtrip" `Quick test_lp_wire_roundtrip;
          Alcotest.test_case "rejects bad p" `Quick test_lp_rejects_bad_p;
        ] );
      ( "one-sparse",
        [
          Alcotest.test_case "zero" `Quick test_one_sparse_zero;
          Alcotest.test_case "singleton" `Quick test_one_sparse_singleton;
          Alcotest.test_case "cancellation" `Quick test_one_sparse_cancellation_back_to_zero;
          Alcotest.test_case "many" `Quick test_one_sparse_many;
          Alcotest.test_case "symmetric patterns" `Quick test_one_sparse_symmetric_patterns;
          Alcotest.test_case "add_scaled" `Quick test_one_sparse_add_scaled;
          Alcotest.test_case "out-of-field index" `Quick test_one_sparse_out_of_field_index;
        ] );
      ( "s-sparse",
        [
          Alcotest.test_case "recovers exactly" `Quick test_s_sparse_recovers_exactly;
          Alcotest.test_case "detects overflow" `Quick test_s_sparse_detects_overflow;
          Alcotest.test_case "zero" `Quick test_s_sparse_zero;
          Alcotest.test_case "linear composition" `Quick test_s_sparse_linear_composition;
        ] );
      ( "l0-sampler",
        [
          Alcotest.test_case "returns support" `Slow test_l0_sampler_returns_support;
          Alcotest.test_case "matches the dense path" `Quick test_l0_sampler_matches_dense_path;
          Alcotest.test_case "zero vector" `Quick test_l0_sampler_zero_vector;
          Alcotest.test_case "uniformity" `Slow test_l0_sampler_uniformity;
          Alcotest.test_case "linear composition" `Quick test_l0_sampler_linear_composition;
          Alcotest.test_case "wire" `Quick test_l0_sampler_wire;
          Alcotest.test_case "wire checks shape" `Quick test_l0_sampler_wire_shape;
          Alcotest.test_case "wire bounds allocation" `Quick test_l0_sampler_wire_allocation;
        ] );
      ( "cohen",
        [
          Alcotest.test_case "union sizes" `Slow test_cohen_estimates_union_sizes;
          Alcotest.test_case "deterministic labels" `Quick test_cohen_labels_deterministic;
        ] );
      ( "compressed-matmul",
        [
          Alcotest.test_case "buckets power of two" `Quick test_cm_buckets_power_of_two;
          Alcotest.test_case "exact with large b" `Quick test_cm_exact_when_buckets_large;
          Alcotest.test_case "heavy entry visible" `Quick test_cm_heavy_entry_visible;
          Alcotest.test_case "halves linear" `Quick test_cm_linearity_of_halves;
        ] );
      ( "blocked-ams",
        [
          Alcotest.test_case "linf bounds" `Slow test_blocked_ams_linf_bounds;
          Alcotest.test_case "zero" `Quick test_blocked_ams_zero;
          Alcotest.test_case "size vs kappa" `Quick test_blocked_ams_size_shrinks_with_kappa;
        ] );
      ("properties", qsuite);
    ]
