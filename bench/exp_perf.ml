(* Experiment P1: plan/apply sketch-kernel throughput.

   The drivers sketch every row of B against ONE shared hash family, so
   the per-key hash work (splitmix64 finalisers, GF(2^31-1) coefficient
   maps, Int64 boxing) can be tabulated once — [plan] — and each row
   applied with table lookups — [sketch_with_plan]. P1 measures
   rows/second of the seed path vs the planned path for every sketch
   family, plan cost amortised exactly the way the drivers amortise it
   (one plan, many rows), and reports the planned fan-out across the
   domain pool as well.

   Verdicts:
   - planned kernels >= 3x the seed path on every family whose seed path
     re-hashes per row (ams, l0_sketch, lp, cohen, srht);
   - stable (p=1) >= 2x: its seed path already amortises entry
     generation through a lazy column cache, so the plan's win is the
     4-key batched accumulate, a smaller (but now gated) margin;
   - srht planned >= hashing planned throughput on dense rows
     (nnz/d >= 0.5), where the O(d log d) FWHT route undercuts the
     O(nnz*m) table walk — the crossover sweep below;
   - pool fan-out: domains=4 >= 1.5x domains=1 where the host has
     multiple cores; on a single-core host the gate degrades to a
     no-inversion floor (chunked dispatch must stay within 0.6x of the
     sequential path). *)

module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Bmat = Matprod_matrix.Bmat
module Workload = Matprod_workload.Workload
module Ams = Matprod_sketch.Ams
module Stable_sketch = Matprod_sketch.Stable_sketch
module L0_sketch = Matprod_sketch.L0_sketch
module Lp = Matprod_sketch.Lp
module Cohen = Matprod_sketch.Cohen
module Srht = Matprod_sketch.Srht

let dim = 4096

(* ~5% density, the low end of the densities the protocol experiments
   drive (workload generators run 0.05..0.25): per-row hash work then
   carries its real weight against the fixed buffer-reset cost that both
   paths pay identically. *)
let nnz = 192

let mk_rows ~rows ~nnz seed =
  let rng = Prng.create seed in
  Array.init rows (fun r ->
      Array.init nnz (fun i -> (((r * 131) + (i * 37)) mod dim, 1 + Prng.int rng 20)))

(* Best-of-five wall times (ns) of two jobs whose passes alternate inside
   one loop, so host drift (clock scaling, a busy neighbour) hits both
   sides of a ratio alike. Each pass starts from a collected heap so a
   measurement does not inherit GC debt from the allocations of the
   previous one. *)
let best_pair a b =
  let pass job =
    Gc.full_major ();
    let t0 = Matprod_obs.Clock.now_ns () in
    job ();
    Matprod_obs.Clock.elapsed_ns t0
  in
  let best_a = ref max_int and best_b = ref max_int in
  for _ = 1 to 5 do
    best_a := min !best_a (pass a);
    best_b := min !best_b (pass b)
  done;
  (!best_a, !best_b)

let per_sec n ns = float_of_int n /. (float_of_int (max 1 ns) /. 1e9)

(* rows/sec of [f] and of [g], each applied to every row. *)
let rows_per_sec ~rows f g =
  let all h () =
    for r = 0 to rows - 1 do
      h r
    done
  in
  let a, b = best_pair (all f) (all g) in
  (per_sec rows a, per_sec rows b)

type family = {
  name : string;
  gate_full : float option; (* speedup floor at full size; None = report-only *)
  gate_quick : float option; (* looser floor for the 300-row smoke tier *)
  seed_path : int -> unit;
  planned_path : int -> unit; (* plan built once, outside timing *)
}

let families ~rows =
  let vecs = mk_rows ~rows ~nnz 42 in
  let ams = Ams.create (Prng.create 2) ~eps:0.2 ~groups:5 in
  let ams_plan = Ams.plan ams ~dim in
  let l0 = L0_sketch.create (Prng.create 3) ~eps:0.2 ~groups:3 ~dim in
  let l0_plan = L0_sketch.plan l0 ~dim in
  let lp = Lp.create (Prng.create 4) ~p:0.0 ~eps:0.2 ~groups:3 ~dim in
  let lp_plan = Lp.plan lp ~dim in
  let stable = Stable_sketch.create (Prng.create 5) ~p:1.0 ~eps:0.2 ~groups:5 in
  let stable_plan = Stable_sketch.plan stable ~dim in
  let srht = Srht.create (Prng.create 9) ~eps:0.2 ~groups:5 ~dim in
  let srht_plan = Srht.plan srht ~dim in
  [
    {
      name = "ams";
      gate_full = Some 3.0;
      gate_quick = Some 2.0;
      seed_path = (fun r -> ignore (Ams.sketch ams vecs.(r)));
      planned_path = (fun r -> ignore (Ams.sketch_with_plan ams ams_plan vecs.(r)));
    };
    {
      name = "l0_sketch";
      gate_full = Some 3.0;
      gate_quick = Some 2.0;
      seed_path = (fun r -> ignore (L0_sketch.sketch l0 vecs.(r)));
      planned_path = (fun r -> ignore (L0_sketch.sketch_with_plan l0 l0_plan vecs.(r)));
    };
    {
      name = "lp (p=0)";
      gate_full = Some 3.0;
      gate_quick = Some 2.0;
      seed_path = (fun r -> ignore (Lp.sketch lp vecs.(r)));
      planned_path = (fun r -> ignore (Lp.sketch_with_plan lp lp_plan vecs.(r)));
    };
    (* The stable seed path already amortises entry generation through a
       lazy column cache, so its planned win is the 4-key batched
       accumulate in Kernel.apply — gated at 2x, not 3x. *)
    {
      name = "stable (p=1)";
      gate_full = Some 2.0;
      gate_quick = Some 1.5;
      seed_path = (fun r -> ignore (Stable_sketch.sketch stable vecs.(r)));
      planned_path =
        (fun r -> ignore (Stable_sketch.sketch_with_plan stable stable_plan vecs.(r)));
    };
    (* srht's seed path materialises D and the sampled Hadamard rows per
       key (Prng.derive + popcount per entry); the plan tabulates both
       and routes dense rows through the FWHT. *)
    {
      name = "srht";
      gate_full = Some 3.0;
      gate_quick = Some 2.0;
      seed_path = (fun r -> ignore (Srht.sketch srht vecs.(r)));
      planned_path = (fun r -> ignore (Srht.sketch_with_plan srht srht_plan vecs.(r)));
    };
  ]

(* Cohen's shape differs (column minima, not per-row buffers), so it gets
   its own batch measurement: columns/second over one support structure,
   seed and planned. *)
let cohen_cols_per_sec ~cols =
  let rng = Prng.create 6 in
  let t = Cohen.create rng ~reps:64 ~rows:1024 in
  let a = Workload.uniform_bool rng ~rows:1024 ~cols ~density:0.05 in
  let at = Bmat.transpose a in
  let supp_of_col k = Bmat.row at k in
  let plan = Cohen.plan t in
  let seed, planned =
    best_pair
      (fun () -> ignore (Cohen.column_mins t ~supp_of_col ~cols))
      (fun () -> ignore (Cohen.column_mins_with_plan t plan ~supp_of_col ~cols))
  in
  (per_sec cols seed, per_sec cols planned)

let frate r =
  if r >= 1e6 then Printf.sprintf "%.2fM" (r /. 1e6)
  else if r >= 1e3 then Printf.sprintf "%.1fk" (r /. 1e3)
  else Printf.sprintf "%.0f" r

(* Hashing vs FWHT route crossover: ams planned (O(nnz*m) table walk)
   against srht planned (densify + O(d log d) FWHT + gather) over a
   density sweep at matched sketch width. The sparsest point rides srht's
   tabulated sparse route (parity expected); from nnz/d = 0.5 the FWHT
   must win outright. *)
let crossover ~quick =
  let rows = if quick then 80 else 300 in
  let ams = Ams.create (Prng.create 7) ~eps:0.4 ~groups:5 in
  let ams_plan = Ams.plan ams ~dim in
  let srht = Srht.create (Prng.create 8) ~eps:0.4 ~groups:5 ~dim in
  let srht_plan = Srht.plan srht ~dim in
  let tbl =
    [ ("nnz/d", 8); ("nnz", 6); ("hashing rows/s", 14); ("srht rows/s", 12);
      ("srht/hashing", 12); ("gated", 6) ]
  in
  Printf.printf
    "\ncrossover: ams planned vs srht planned, dim %d, matched width m=%d\n"
    dim (Ams.size ams);
  Report.table_header tbl;
  let ok = ref true in
  List.iter
    (fun permille ->
      let frac = float_of_int permille /. 1000.0 in
      let row_nnz = max 1 (int_of_float (frac *. float_of_int dim)) in
      let vecs = mk_rows ~rows ~nnz:row_nnz (100 + permille) in
      let hashing_rate, srht_rate =
        rows_per_sec ~rows
          (fun r -> ignore (Ams.sketch_with_plan ams ams_plan vecs.(r)))
          (fun r -> ignore (Srht.sketch_with_plan srht srht_plan vecs.(r)))
      in
      let ratio = srht_rate /. hashing_rate in
      let gated = permille >= 500 in
      if gated && ratio < 1.0 then ok := false;
      Report.row tbl
        [ Printf.sprintf "%.2f" frac; string_of_int row_nnz;
          frate hashing_rate; frate srht_rate; Printf.sprintf "%.2fx" ratio;
          (if gated then "yes" else "no") ];
      Report.bench_row
        [
          ("family", Matprod_obs.Json.String "hashing vs fwht crossover");
          ("nnz_permille", Matprod_obs.Json.Int permille);
          ("nnz", Matprod_obs.Json.Int row_nnz);
          ("dim", Matprod_obs.Json.Int dim);
          ("rows", Matprod_obs.Json.Int rows);
          ("hashing_rows_per_sec", Matprod_obs.Json.Float hashing_rate);
          ("srht_rows_per_sec", Matprod_obs.Json.Float srht_rate);
          ("srht_vs_hashing_rate", Matprod_obs.Json.Float ratio);
          ("gated", Matprod_obs.Json.Bool gated);
        ])
    [ 20; 100; 500; 1000 ];
  Report.record_verdict !ok
    "srht planned >= hashing planned throughput on dense rows (nnz/d >= 0.5)"

(* Domain fan-out of the planned kernel. The pool is warmed (domains
   spawned, plan tables faulted in) before the timed region, and the two
   domain counts alternate pass by pass inside one best-of-five loop
   ([best_pair]), as the kernels' two paths do, so host drift lands on
   both sides of the ratio alike. Spawn cost is a per-process constant
   the drivers pay once, not a per-batch cost. The gate is
   machine-aware: a single-core host cannot show a wall-clock win, so
   there the check degrades to a no-inversion floor on the chunked
   dispatch overhead. *)
let fanout ~rows =
  let vecs = mk_rows ~rows ~nnz 42 in
  let l0 = L0_sketch.create (Prng.create 3) ~eps:0.2 ~groups:3 ~dim in
  let plan = L0_sketch.plan l0 ~dim in
  let job d () =
    Pool.set_size d;
    ignore (Pool.init rows (fun r -> L0_sketch.sketch_with_plan l0 plan vecs.(r)))
  in
  (* warm: spawn + fault-in, untimed *)
  job 4 ();
  job 1 ();
  let best1, best4 = best_pair (job 1) (job 4) in
  let r1 = per_sec rows best1 and r4 = per_sec rows best4 in
  List.iter
    (fun (d, rate) ->
      Printf.printf "pool fan-out (l0_sketch planned), domains=%d: %s rows/s\n"
        d (frate rate);
      Report.bench_row
        [
          ("family", Matprod_obs.Json.String "l0_sketch pool fan-out");
          ("domains", Matprod_obs.Json.Int d);
          ("rows", Matprod_obs.Json.Int rows);
          ("planned_rows_per_sec", Matprod_obs.Json.Float rate);
          ("gated", Matprod_obs.Json.Bool true);
        ])
    [ (1, r1); (4, r4) ];
  Pool.set_size 1;
  let ratio = r4 /. r1 in
  Report.bench_row
    [
      ("family", Matprod_obs.Json.String "l0_sketch pool fan-out");
      ("fanout_speedup", Matprod_obs.Json.Float ratio);
      ("gated", Matprod_obs.Json.Bool true);
    ];
  if Domain.recommended_domain_count () > 1 then
    Report.record_verdict (ratio >= 1.5)
      "pool fan-out: domains=4 >= 1.5x domains=1 (measured %.2fx)" ratio
  else
    Report.record_verdict (ratio >= 0.6)
      "pool fan-out on a single-core host: domains=4 stays within chunk \
       overhead of domains=1 (measured %.2fx, floor 0.6x; the 1.5x gate \
       applies on multi-core hosts)"
      ratio

let p1 ~quick =
  Report.section ~id:"P1  plan/apply kernel throughput (rows/sec)"
    ~claim:
      "tabulating the hash family once per driver (plan) and applying it \
       with table lookups (sketch_with_plan) lifts \
       sketch-build throughput >= 3x over the per-row rehashing seed path \
       (>= 2x for stable, whose seed path already caches columns), and the \
       srht FWHT route beats the hashing table walk on dense rows";
  let rows = if quick then 300 else 1500 in
  let cols = if quick then 256 else 1024 in
  Printf.printf
    "workload: %d rows, %d-sparse over dim %d, one shared hash family; plan \
     built once outside the timed region (as the drivers amortise it)\n\n"
    rows nnz dim;
  let tbl =
    [ ("family", 14); ("seed rows/s", 12); ("planned rows/s", 14);
      ("speedup", 8); ("gate", 6) ]
  in
  Report.table_header tbl;
  let all_gated_ok = ref true in
  (* Quick mode is a smoke tier: 300-row passes are too short for stable
     ratios on a timeshared box, so each family's quick gate is looser;
     the headline claims are judged (and the committed sidecar produced)
     at full size. *)
  let record name ~gate ~seed_rate ~planned_rate =
    let speedup = planned_rate /. seed_rate in
    (match gate with
    | Some g -> if speedup < g then all_gated_ok := false
    | None -> ());
    Report.row tbl
      [ name; frate seed_rate; frate planned_rate;
        Printf.sprintf "%.1fx" speedup;
        (match gate with Some g -> Printf.sprintf "%.1fx" g | None -> "-") ];
    Report.bench_row
      [
        ("family", Matprod_obs.Json.String name);
        ("rows", Matprod_obs.Json.Int rows);
        ("nnz", Matprod_obs.Json.Int nnz);
        ("dim", Matprod_obs.Json.Int dim);
        ("seed_rows_per_sec", Matprod_obs.Json.Float seed_rate);
        ("planned_rows_per_sec", Matprod_obs.Json.Float planned_rate);
        ("speedup", Matprod_obs.Json.Float speedup);
        ("gate_rate", Matprod_obs.Json.Float (Option.value gate ~default:0.0));
        ("gated", Matprod_obs.Json.Bool (gate <> None));
      ]
  in
  List.iter
    (fun fam ->
      let seed_rate, planned_rate =
        rows_per_sec ~rows fam.seed_path fam.planned_path
      in
      let gate = if quick then fam.gate_quick else fam.gate_full in
      record fam.name ~gate ~seed_rate ~planned_rate)
    (families ~rows);
  let cohen_seed, cohen_planned = cohen_cols_per_sec ~cols in
  record "cohen (cols/s)"
    ~gate:(Some (if quick then 2.0 else 3.0))
    ~seed_rate:cohen_seed ~planned_rate:cohen_planned;
  Report.record_verdict !all_gated_ok
    "planned kernels clear their per-family speedup gates (3x rehashing \
     families, 2x stable)";
  crossover ~quick;
  fanout ~rows
