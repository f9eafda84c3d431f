(* Fleet topology tests: shard partitioning, bit-identical shard sketch
   merges, quorum-degraded answers, and per-link chaos recovery.

   The load-bearing properties (ISSUE 7 / docs/ROBUSTNESS.md):

   - merging k shard sketches reproduces the unsharded sketch bit for bit
     at the same seed, for every plan/apply family — the determinism the
     fleet's shared public coins rest on;
   - a (k-1)-quorum answer equals the full-fleet merge restricted to the
     surviving links, for every registered estimator;
   - any single worker crashed or straggling at k >= 4 ends in [Ok] (after
     journal resume) or a bound-consistent [Degraded] — never an unflagged
     wrong answer.

   MATPROD_FLEET_RANKS=all sweeps the chaos victim over every rank (CI);
   the default hits one representative rank to stay quick. *)

module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat
module Product = Matprod_matrix.Product
module Ctx = Matprod_comm.Ctx
module Fault = Matprod_comm.Fault
module Transcript = Matprod_comm.Transcript
module Lp = Matprod_sketch.Lp
module Srht = Matprod_sketch.Srht
module Ams = Matprod_sketch.Ams
module Stable_sketch = Matprod_sketch.Stable_sketch
module Estimator = Matprod_core.Estimator
module Registry = Matprod_core.Registry
module Outcome = Matprod_core.Outcome
module Supervisor = Matprod_core.Supervisor
module Engine = Matprod_engine.Engine
module Workload = Matprod_workload.Workload
module Shard = Matprod_topology.Shard
module Merge = Matprod_topology.Merge
module Fleet = Matprod_topology.Fleet
module Verify = Matprod_verify.Verify

let check = Alcotest.check

let all_ranks =
  match Sys.getenv_opt "MATPROD_FLEET_RANKS" with
  | Some "all" -> true
  | _ -> false

let chaos_ranks ~workers = if all_ranks then List.init workers Fun.id else [ 1 ]

(* MATPROD_BYZANTINE_MODES=scale,garbage narrows the byzantine sweep. *)
let byzantine_modes =
  match Sys.getenv_opt "MATPROD_BYZANTINE_MODES" with
  | None -> Fault.all_byzantine_modes
  | Some s -> (
      match
        List.filter_map Fault.byzantine_mode_of_string
          (String.split_on_char ',' s)
      with
      | [] -> Fault.all_byzantine_modes
      | modes -> modes)

let bool_pair seed ~n ~density =
  let rng = Prng.create seed in
  ( Workload.uniform_bool rng ~rows:n ~cols:n ~density,
    Workload.uniform_bool rng ~rows:n ~cols:n ~density )

let str c = Format.asprintf "%a" Estimator.pp_answer c

let with_tmp_journal name k =
  let path = Filename.temp_file ("matprod_fleet_" ^ name ^ "_") ".journal" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f ->
          if
            String.length f >= String.length (Filename.basename path)
            && String.sub f 0 (String.length (Filename.basename path))
               = Filename.basename path
          then Sys.remove (Filename.concat (Filename.dirname path) f))
        (Sys.readdir (Filename.dirname path)))
    (fun () -> k path)

(* ------------------------------------------------------------------ *)
(* Shard *)

let test_shard_ranges () =
  for rows = 1 to 40 do
    for workers = 1 to min rows 7 do
      let rs = Shard.ranges ~rows ~workers in
      check Alcotest.int "count" workers (Array.length rs);
      let covered = Array.fold_left (fun a r -> a + r.Shard.length) 0 rs in
      check Alcotest.int "partition" rows covered;
      Array.iteri
        (fun i r ->
          if i > 0 then
            check Alcotest.int "contiguous" r.Shard.offset
              (rs.(i - 1).Shard.offset + rs.(i - 1).Shard.length))
        rs;
      let lens = Array.map (fun r -> r.Shard.length) rs in
      let mn = Array.fold_left min max_int lens
      and mx = Array.fold_left max 0 lens in
      check Alcotest.bool "balanced" true (mx - mn <= 1);
      check (Alcotest.float 1e-9) "coverage" 1.0
        (Shard.coverage ~rows (Array.to_list rs))
    done
  done;
  Alcotest.check_raises "too many workers"
    (Invalid_argument "Shard.ranges: 5 workers for 3 rows") (fun () ->
      ignore (Shard.ranges ~rows:3 ~workers:5))

let test_shard_slice () =
  let a, _ = bool_pair 3 ~n:13 ~density:0.4 in
  let rs = Shard.ranges ~rows:13 ~workers:4 in
  Array.iter
    (fun r ->
      let s = Shard.slice a r in
      check Alcotest.int "rows" r.Shard.length (Bmat.rows s);
      for j = 0 to r.Shard.length - 1 do
        check Alcotest.bool "row content" true
          (Bmat.row s j = Bmat.row a (r.Shard.offset + j))
      done)
    rs

(* ------------------------------------------------------------------ *)
(* Bit-identical shard sketch merges (satellite 3).

   Worker i builds the SAME sketch family as the unsharded run (same
   seed), plans it, and sketches the rows of its compact shard; placing
   each shard's per-row sketches at their global offsets must reproduce
   the unsharded per-row sketches bit for bit — equivalently, the merge
   adds exact-zero sketches of the rows the shard does not own. *)

let float_bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let lp_value_equal a b =
  match (a, b) with
  | Lp.F x, Lp.F y ->
      Array.length x = Array.length y
      && Array.for_all2 float_bits_equal x y
  | Lp.Z x, Lp.Z y -> x = y
  | _ -> false

let sparse_rows rng ~rows ~cols ~density =
  Array.init rows (fun _ ->
      let entries = ref [] in
      for c = cols - 1 downto 0 do
        if Prng.float rng < density then
          entries := (c, 1 + Prng.int rng 9) :: !entries
      done;
      Array.of_list !entries)

let qcheck_sketch_merge =
  let open QCheck in
  let families =
    [ ("lp p=0", 0.0); ("lp p=1", 1.0); ("lp p=2", 2.0) ]
  in
  List.map
    (fun (fname, p) ->
      Test.make
        ~name:(Printf.sprintf "shard sketches merge bit-identically (%s)" fname)
        ~count:25
        (pair (int_bound 10_000) (int_range 2 5))
        (fun (seed, workers) ->
          let rows = 11 and cols = 23 in
          let m =
            sparse_rows (Prng.create (seed + 1)) ~rows ~cols ~density:0.3
          in
          let mk () =
            let t =
              Lp.create (Prng.create seed) ~p ~eps:0.5 ~groups:3 ~dim:cols
            in
            (t, Lp.plan t ~dim:cols)
          in
          let t0, plan0 = mk () in
          let unsharded =
            Array.map (fun row -> Lp.sketch_with_plan t0 plan0 row) m
          in
          let merged = Array.make rows None in
          Array.iter
            (fun r ->
              (* each worker instantiates the family fresh at the fleet
                 seed — the shared public coins *)
              let t, plan = mk () in
              for j = 0 to r.Shard.length - 1 do
                merged.(r.Shard.offset + j) <-
                  Some (Lp.sketch_with_plan t plan m.(r.Shard.offset + j))
              done)
            (Shard.ranges ~rows ~workers);
          Array.for_all2
            (fun u m ->
              match m with
              | Some v -> lp_value_equal u v
              | None -> false)
            unsharded merged))
    families
  @ List.map
      (fun (fname, mk) ->
        Test.make
          ~name:(Printf.sprintf "shard sketches merge bit-identically (%s)" fname)
          ~count:25
          (pair (int_bound 10_000) (int_range 2 5))
          (fun (seed, workers) ->
            let rows = 11 and cols = 23 in
            let m =
              sparse_rows (Prng.create (seed + 1)) ~rows ~cols ~density:0.3
            in
            let sketch0 = mk ~seed ~cols in
            let unsharded = Array.map sketch0 m in
            let ok = ref true in
            Array.iter
              (fun r ->
                let sketch = mk ~seed ~cols in
                for j = 0 to r.Shard.length - 1 do
                  let v = sketch m.(r.Shard.offset + j) in
                  if
                    not
                      (Array.for_all2 float_bits_equal v
                         unsharded.(r.Shard.offset + j))
                  then ok := false
                done)
              (Shard.ranges ~rows ~workers);
            !ok))
      (* Each [mk] instantiates the family fresh at the fleet seed and
         returns its planned sketch of one row. srht: at cols = 23 the
         default route threshold sits at a few nonzeros, so density 0.3
         rows exercise the densify+FWHT route inside the sharded sketches
         too. *)
      [
        ( "srht",
          fun ~seed ~cols ->
            let t = Srht.create (Prng.create seed) ~eps:0.5 ~groups:3 ~dim:cols in
            Srht.sketch_with_plan t (Srht.plan t ~dim:cols) );
        ( "ams",
          fun ~seed ~cols ->
            let t = Ams.create (Prng.create seed) ~eps:0.5 ~groups:3 in
            Ams.sketch_with_plan t (Ams.plan t ~dim:cols) );
        ( "stable p=1",
          fun ~seed ~cols ->
            let t =
              Stable_sketch.create (Prng.create seed) ~p:1.0 ~eps:0.5 ~groups:3
            in
            Stable_sketch.sketch_with_plan t (Stable_sketch.plan t ~dim:cols) );
        ( "stable p=0.5",
          fun ~seed ~cols ->
            let t =
              Stable_sketch.create (Prng.create seed) ~p:0.5 ~eps:0.5 ~groups:3
            in
            Stable_sketch.sketch_with_plan t (Stable_sketch.plan t ~dim:cols) );
      ]

(* ------------------------------------------------------------------ *)
(* Outcome.graded (satellite 2) *)

let test_degradation () =
  let d = Outcome.degradation ~survivors:3 ~parties:4 ~coverage:0.75 in
  check (Alcotest.float 1e-9) "bound factor" (4.0 /. 3.0) d.Outcome.bound_factor;
  check Alcotest.bool "is_degraded" true (Outcome.is_degraded (Outcome.Degraded ((), d)));
  check Alcotest.bool "full" false (Outcome.is_degraded (Outcome.Full ()));
  check Alcotest.int "value" 7 (Outcome.graded_value (Outcome.Degraded (7, d)));
  check Alcotest.int "value full" 7 (Outcome.graded_value (Outcome.Full 7));
  List.iter
    (fun (s, p, c) ->
      match Outcome.degradation ~survivors:s ~parties:p ~coverage:c with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "degradation %d/%d cov %g should be rejected" s p c)
    [ (5, 4, 0.75); (-1, 4, 0.75); (3, 4, 0.0); (3, 4, 1.5) ]

(* ------------------------------------------------------------------ *)
(* Straggle faults (satellite 1) *)

let test_straggle_validation () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("bad straggle spec should be rejected: " ^ spec))
    [
      "kind=straggle,delay=0";
      "kind=straggle,delay=-1";
      "kind=straggle,after=-1,delay=1";
      "kind=straggle,burst=0,delay=1";
    ]

(* A straggle spike larger than the retransmission timeout makes the link
   late but not lossy: the run completes with the fault-free answer while
   accumulating honest simulated waiting — and identically so across
   reruns at the same seed. *)
let test_straggle_reproducible () =
  let a, b = bool_pair 11 ~n:24 ~density:0.2 in
  let est = Option.get (Registry.find "lp p=1") in
  let clean =
    (Ctx.run ~seed:5 (fun ctx -> est.run ctx ~a ~b))
      .Ctx.output
  in
  let run () =
    Ctx.run ~seed:5 (fun ctx ->
        Ctx.install_wire ctx
          ~fault:(Fault.of_string "kind=straggle,after=1,burst=2,delay=5")
          ();
        let out = est.run ctx ~a ~b in
        (out, Ctx.wire_stats ctx, Outcome.diagnostics_of_ctx ctx))
  in
  let (out1, stats1, diag1) = (run ()).Ctx.output in
  let (out2, stats2, diag2) = (run ()).Ctx.output in
  check Alcotest.bool "fault-free answer" true (out1 = clean);
  check Alcotest.int "frames straggled" 2 stats1.Matprod_comm.Ctx.faults.Fault.straggled;
  check (Alcotest.float 1e-9) "injected delay" 10.0
    stats1.Matprod_comm.Ctx.faults.Fault.injected_delay;
  check Alcotest.bool "waiting accumulated" true (diag1.Outcome.waited >= 10.0);
  check Alcotest.bool "reproducible" true
    (out1 = out2 && stats1 = stats2 && diag1 = diag2)

(* ------------------------------------------------------------------ *)
(* Fleet: chaos wires *)

let kill_both ~after ctx =
  Ctx.install_wire ctx
    ~fault:
      (Fault.of_string ~seed:1
         (Printf.sprintf "kind=crash,party=a,after=%d;kind=crash,party=b,after=%d"
            after after))
    ()

let permanent_crash ~victim ~rank ~attempt:_ ctx =
  if rank = victim then kill_both ~after:0 ctx

let transient_crash ~victim ~rank ~attempt ctx =
  if rank = victim && attempt = 1 then kill_both ~after:1 ctx

(* [after:0] spikes the very first message's frames, so even one-message
   protocols (lp oneround) go late. *)
let transient_straggle ~victim ~rank ~attempt ctx =
  if rank = victim && attempt = 1 then
    Ctx.install_wire ctx
      ~fault:(Fault.of_string "kind=straggle,after=0,burst=2,delay=5")
      ()

(* A one-shot lie by [victim], seeded per victim. *)
let byzantine_fault ~victim mode =
  Fault.of_string ~seed:(91 * (victim + 1))
    ("kind=byzantine,mode=" ^ Fault.byzantine_mode_to_string mode)

(* ------------------------------------------------------------------ *)
(* Fleet: exactness against ground truth *)

let test_fleet_exact () =
  let a, b = bool_pair 21 ~n:19 ~density:0.3 in
  let c = Product.bool_product a b in
  let l1 = Product.l1 (Product.int_product (Imat.of_bmat a) (Imat.of_bmat b)) in
  let cfg = Fleet.config ~workers:4 ~seed:9 () in
  (match Fleet.run cfg (Option.get (Registry.find "l1_exact")) ~a ~b with
  | Ok rep -> (
      match rep.Fleet.answer with
      | Outcome.Full (Estimator.Scalar x) ->
          check (Alcotest.float 1e-9) "l1 exact over fleet" (float_of_int l1) x
      | _ -> Alcotest.fail "expected Full Scalar")
  | Error e -> Alcotest.failf "l1_exact fleet: %s" (Outcome.error_to_string e));
  match Fleet.run cfg (Option.get (Registry.find "trivial")) ~a ~b with
  | Ok rep -> (
      match rep.Fleet.answer with
      | Outcome.Full (Estimator.Scalar x) ->
          check (Alcotest.float 1e-9) "l0 exact over fleet"
            (float_of_int (Product.nnz c))
            x
      | _ -> Alcotest.fail "expected Full Scalar")
  | Error e -> Alcotest.failf "trivial fleet: %s" (Outcome.error_to_string e)

(* The full gallery: every registered estimator answers over a clean
   k = 4 fleet with a Full, deterministic answer. *)
let test_fleet_gallery () =
  let a, b = bool_pair 31 ~n:17 ~density:0.35 in
  let cfg = Fleet.config ~workers:4 ~seed:7 () in
  List.iter
    (fun (est : Estimator.t) ->
      let name = est.name in
      match (Fleet.run cfg est ~a ~b, Fleet.run cfg est ~a ~b) with
      | Ok r1, Ok r2 ->
          check Alcotest.bool (name ^ ": full") false
            (Outcome.is_degraded r1.Fleet.answer);
          check Alcotest.int (name ^ ": survivors") 4 r1.Fleet.survivors;
          check Alcotest.bool (name ^ ": deterministic") true
            (r1.Fleet.answer = r2.Fleet.answer)
      | Error e, _ | _, Error e ->
          Alcotest.failf "%s: %s" name (Outcome.error_to_string e))
    Registry.all

(* (k-1)-quorum: for EVERY estimator, permanently crash one worker at
   quorum k-1 and require a Degraded answer equal to the full-fleet merge
   restricted to the surviving links. *)
let test_quorum_equivalence () =
  let a, b = bool_pair 41 ~n:17 ~density:0.35 in
  let workers = 4 in
  let cfg = Fleet.config ~workers ~quorum:(workers - 1) ~seed:7 () in
  List.iter
    (fun (est : Estimator.t) ->
      let name = est.name in
      let full =
        match Fleet.run cfg est ~a ~b with
        | Ok r -> r
        | Error e -> Alcotest.failf "%s full: %s" name (Outcome.error_to_string e)
      in
      List.iter
        (fun victim ->
          let expected =
            Merge.merge ~seed:7 ~rows:17 est.contract
              (List.filter_map
                 (fun (l : Fleet.link_report) ->
                   if l.Fleet.rank = victim then None
                   else
                     match l.Fleet.answer with
                     | Ok value ->
                         Some
                           { Merge.rank = l.Fleet.rank; range = l.Fleet.range; value }
                     | Error _ -> None)
                 full.Fleet.links)
          in
          let wire ~rank ~replica:_ ~attempt ctx =
            permanent_crash ~victim ~rank ~attempt ctx
          in
          match Fleet.run ~wire cfg est ~a ~b with
          | Error e ->
              Alcotest.failf "%s victim %d: %s" name victim
                (Outcome.error_to_string e)
          | Ok rep -> (
              check Alcotest.int
                (Printf.sprintf "%s victim %d survivors" name victim)
                (workers - 1) rep.Fleet.survivors;
              match rep.Fleet.answer with
              | Outcome.Full _ ->
                  Alcotest.failf "%s victim %d: lost link must degrade" name
                    victim
              | Outcome.Degraded (v, d) ->
                  check Alcotest.int "degradation survivors" (workers - 1)
                    d.Outcome.survivors;
                  check Alcotest.int "degradation parties" workers
                    d.Outcome.parties;
                  check (Alcotest.float 1e-9) "bound factor"
                    (1.0 /. d.Outcome.coverage)
                    d.Outcome.bound_factor;
                  if v <> expected then
                    Alcotest.failf "%s victim %d: got %s want %s" name victim
                      (str v) (str expected)))
        (chaos_ranks ~workers))
    Registry.all

(* Chaos gallery: every estimator, one worker hit by a transient crash or
   a straggle spike, with per-link journals armed. The ladder must bring
   the fleet back to the clean Full answer — resume replays the journaled
   prefix at the same seed, so even sampling estimators reproduce. *)
let test_chaos_gallery () =
  let a, b = bool_pair 51 ~n:17 ~density:0.35 in
  let workers = 4 in
  with_tmp_journal "gallery" @@ fun base ->
  let lp = { Fleet.default_link_policy with Fleet.deadline_s = Some 0.5 } in
  let cfg =
    Fleet.config ~workers ~quorum:(workers - 1) ~link_policy:lp ~journal:base
      ~seed:7 ()
  in
  let chaos =
    [ ("transient-crash", transient_crash); ("straggle", transient_straggle) ]
  in
  List.iter
    (fun (est : Estimator.t) ->
      let name = est.name in
      let clean =
        match Fleet.run cfg est ~a ~b with
        | Ok r -> Outcome.graded_value r.Fleet.answer
        | Error e -> Alcotest.failf "%s clean: %s" name (Outcome.error_to_string e)
      in
      List.iter
        (fun victim ->
          List.iter
            (fun (kind, inject) ->
              let wire ~rank ~replica:_ ~attempt ctx =
                inject ~victim ~rank ~attempt ctx
              in
              match Fleet.run ~wire cfg est ~a ~b with
              | Error e ->
                  Alcotest.failf "%s %s victim %d: %s" name kind victim
                    (Outcome.error_to_string e)
              | Ok rep ->
                  (* never an unflagged wrong answer: a Full answer must
                     equal the clean fleet's, a Degraded one must say so *)
                  (match rep.Fleet.answer with
                  | Outcome.Full v ->
                      if v <> clean then
                        Alcotest.failf "%s %s victim %d: got %s want %s" name
                          kind victim (str v) (str clean)
                  | Outcome.Degraded _ ->
                      Alcotest.failf
                        "%s %s victim %d: transient chaos must recover" name
                        kind victim);
                  if kind = "straggle" then begin
                    let l = List.nth rep.Fleet.links victim in
                    check Alcotest.bool
                      (Printf.sprintf "%s victim %d straggled flag" name victim)
                      true l.Fleet.straggled;
                    check Alcotest.bool
                      (Printf.sprintf "%s victim %d retried" name victim)
                      true
                      (List.length l.Fleet.attempts >= 2)
                  end)
            chaos)
        (chaos_ranks ~workers))
    Registry.all

(* Straggler economics: the resumed attempt replays the journaled prefix
   for free, so recovery costs strictly less than a fresh rerun. *)
(* Byzantine gallery: every estimator × every corruption mode, one lying
   worker — replica 0 of the victim rank delivers a perfectly framed
   wrong answer (CRC/ARQ pass by construction). With the validators on
   and a second replica per shard the fleet must never answer silently
   out of bound: either the lie is quarantined (suspects name the victim
   and the merged answer is re-built from the honest survivor), or the
   whole replica group is indicted and the answer degrades/fails typed,
   or the perturbation was within the family's own consistency bound.
   Clean control first: replicas + verify on an honest fleet must
   produce a Full answer with zero suspects (no false quarantines). *)
let test_byzantine_gallery () =
  let a, b = bool_pair 61 ~n:17 ~density:0.35 in
  let workers = 3 in
  let cfg =
    Fleet.config ~workers ~quorum:(workers - 1) ~replicas:2 ~verify:true
      ~seed:7 ()
  in
  let consistent est summary x y =
    match Verify.vote est.Estimator.contract summary [ (0, x); (1, y) ] with
    | Some v -> v.Verify.outvoted = []
    | None -> false
  in
  List.iter
    (fun (est : Estimator.t) ->
      let name = est.name in
      let summary = Verify.summarize ~a ~b in
      let clean =
        match Fleet.run cfg est ~a ~b with
        | Error e ->
            Alcotest.failf "%s clean: %s" name (Outcome.error_to_string e)
        | Ok rep ->
            check Alcotest.bool (name ^ ": clean full") false
              (Outcome.is_degraded rep.Fleet.answer);
            check Alcotest.int (name ^ ": clean suspects") 0
              (List.length rep.Fleet.suspects);
            Outcome.graded_value rep.Fleet.answer
      in
      (match est.contract with
      | Estimator.Exact_count _ | Estimator.Product_shares -> (
          (* replica 0 runs at the fleet seed, so replication must not
             move a deterministic answer *)
          match Fleet.run (Fleet.config ~workers ~seed:7 ()) est ~a ~b with
          | Ok rep ->
              if Outcome.graded_value rep.Fleet.answer <> clean then
                Alcotest.failf "%s: replicas changed a deterministic answer"
                  name
          | Error e ->
              Alcotest.failf "%s r=1: %s" name (Outcome.error_to_string e))
      | _ -> ());
      List.iter
        (fun victim ->
          List.iter
            (fun mode ->
              let label =
                Printf.sprintf "%s/%s victim %d" name
                  (Fault.byzantine_mode_to_string mode)
                  victim
              in
              let wire ~rank ~replica ~attempt ctx =
                if rank = victim && replica = 0 && attempt = 1 then
                  Ctx.install_wire ctx
                    ~fault:(byzantine_fault ~victim mode)
                    ()
              in
              match Fleet.run ~wire cfg est ~a ~b with
              | Error (Outcome.Byzantine_detected _) ->
                  (* whole replica group indicted: typed, never silent *)
                  ()
              | Error e ->
                  Alcotest.failf "%s: %s" label (Outcome.error_to_string e)
              | Ok rep -> (
                  List.iter
                    (fun (s : Fleet.suspect) ->
                      check Alcotest.int (label ^ ": suspect rank") victim
                        s.Fleet.s_rank)
                    rep.Fleet.suspects;
                  match rep.Fleet.answer with
                  | Outcome.Degraded _ -> () (* flagged, quorum ladder took over *)
                  | Outcome.Full v ->
                      (* flagged or not, a Full answer must stay within the
                         family's own bound of the clean fleet's answer *)
                      if not (v = clean || consistent est summary clean v) then
                        Alcotest.failf
                          "%s: unflagged answer %s outside bound (clean %s)"
                          label (str v) (str clean)))
            byzantine_modes)
        (chaos_ranks ~workers))
    Registry.all

let test_straggler_resume_saves_bits () =
  let a, b = bool_pair 61 ~n:24 ~density:0.3 in
  let est = Option.get (Registry.find "lp p=1") in
  with_tmp_journal "straggler" @@ fun base ->
  let lp = { Fleet.default_link_policy with Fleet.deadline_s = Some 0.5 } in
  let cfg = Fleet.config ~workers:4 ~link_policy:lp ~journal:base ~seed:7 () in
  let wire ~rank ~replica:_ ~attempt ctx =
    transient_straggle ~victim:1 ~rank ~attempt ctx
  in
  match Fleet.run ~wire cfg est ~a ~b with
  | Error e -> Alcotest.failf "straggler fleet: %s" (Outcome.error_to_string e)
  | Ok rep ->
      let l = List.nth rep.Fleet.links 1 in
      check Alcotest.bool "straggled" true l.Fleet.straggled;
      let resumed =
        List.exists
          (fun (at : Supervisor.attempt) -> at.Supervisor.rung = Supervisor.Resume)
          l.Fleet.attempts
      in
      check Alcotest.bool "recovered via resume" true resumed;
      check Alcotest.bool "resume replayed bits" true
        (rep.Fleet.resume_bits_saved > 0)

let test_quorum_sweep () =
  let a, b = bool_pair 71 ~n:16 ~density:0.3 in
  let est = Option.get (Registry.find "lp p=0") in
  let workers = 4 in
  let wire ~rank ~replica:_ ~attempt ctx =
    permanent_crash ~victim:1 ~rank ~attempt ctx;
    permanent_crash ~victim:3 ~rank ~attempt ctx
  in
  List.iter
    (fun (quorum, expect_ok) ->
      let cfg = Fleet.config ~workers ~quorum ~seed:7 () in
      match Fleet.run ~wire cfg est ~a ~b with
      | Ok rep ->
          if not expect_ok then
            Alcotest.failf "quorum %d should fail with 2 dead links" quorum;
          check Alcotest.int "survivors" 2 rep.Fleet.survivors;
          check Alcotest.bool "degraded" true
            (Outcome.is_degraded rep.Fleet.answer);
          check (Alcotest.float 1e-9) "coverage" 0.5 rep.Fleet.coverage
      | Error e ->
          if expect_ok then
            Alcotest.failf "quorum %d should answer: %s" quorum
              (Outcome.error_to_string e);
          (match e with
          | Outcome.Crashed _ -> ()
          | other ->
              Alcotest.failf "expected Crashed, got %s"
                (Outcome.error_to_string other)))
    [ (2, true); (3, false); (4, false) ]

(* ------------------------------------------------------------------ *)
(* Fleet: batched engine queries *)

let batch_queries =
  [
    Engine.Norm_pow { p = 1.0; eps = 0.25 };
    Engine.Row_norms { p = 0.0; beta = 0.5 };
    Engine.Top_rows { p = 1.0; beta = 0.5; k = 3 };
    Engine.L0_sample { eps = 0.25; count = 2 };
    Engine.Heavy_hitters { phi = 0.05; eps = 0.02 };
    Engine.Exact_product;
  ]

let dense_product a b =
  let ai = Imat.to_dense (Imat.of_bmat a) and bi = Imat.to_dense (Imat.of_bmat b) in
  let n = Array.length ai
  and m = Array.length bi.(0)
  and k = Array.length bi in
  let out = ref [] in
  for r = n - 1 downto 0 do
    for c = m - 1 downto 0 do
      let v = ref 0 in
      for t = 0 to k - 1 do
        v := !v + (ai.(r).(t) * bi.(t).(c))
      done;
      if !v <> 0 then out := (r, c, !v) :: !out
    done
  done;
  !out

let test_batch_fleet () =
  let a, b = bool_pair 81 ~n:17 ~density:0.35 in
  let engine = Engine.create () in
  let cfg = Fleet.config ~workers:4 ~seed:7 () in
  match Fleet.run_batch cfg engine batch_queries ~a ~b with
  | Error e -> Alcotest.failf "batch fleet: %s" (Outcome.error_to_string e)
  | Ok rep ->
      check Alcotest.int "survivors" 4 rep.Fleet.batch_survivors;
      let answers = Outcome.graded_value rep.Fleet.batch_answers in
      check Alcotest.int "answer count" (List.length batch_queries)
        (Array.length answers);
      (match answers.(1) with
      | Engine.Vector v ->
          check Alcotest.int "row norms length" 17 (Array.length v);
          check Alcotest.bool "no gaps at full fleet" false
            (Array.exists Float.is_nan v)
      | _ -> Alcotest.fail "row norms shape");
      (match answers.(5) with
      | Engine.Shares (entries, []) ->
          check Alcotest.bool "exact product reconstructed" true
            (entries = dense_product a b)
      | _ -> Alcotest.fail "exact product shape");
      check Alcotest.bool "batch bits counted" true (rep.Fleet.batch_fresh_bits > 0)

let test_batch_fleet_degraded () =
  let a, b = bool_pair 91 ~n:16 ~density:0.35 in
  let engine = Engine.create () in
  let cfg = Fleet.config ~workers:4 ~quorum:3 ~seed:7 () in
  let wire ~rank ~replica:_ ~attempt ctx = permanent_crash ~victim:2 ~rank ~attempt ctx in
  match Fleet.run_batch ~wire cfg engine batch_queries ~a ~b with
  | Error e -> Alcotest.failf "degraded batch: %s" (Outcome.error_to_string e)
  | Ok rep -> (
      check Alcotest.int "survivors" 3 rep.Fleet.batch_survivors;
      check Alcotest.bool "degraded" true
        (Outcome.is_degraded rep.Fleet.batch_answers);
      let answers = Outcome.graded_value rep.Fleet.batch_answers in
      match answers.(1) with
      | Engine.Vector v ->
          let dead = List.nth rep.Fleet.batch_links 2 in
          let r = dead.Fleet.b_range in
          check Alcotest.bool "dead shard rows are nan" true
            (Array.for_all Float.is_nan
               (Array.sub v r.Shard.offset r.Shard.length));
          check Alcotest.bool "surviving rows answered" false
            (Array.exists Float.is_nan (Array.sub v 0 r.Shard.offset))
      | _ -> Alcotest.fail "row norms shape")

let batch_value label = function
  | Ok (rep : Fleet.batch_report) -> rep
  | Error e -> Alcotest.failf "%s: %s" label (Outcome.error_to_string e)

(* [compare] rather than [=]: degraded row-norm vectors carry nan gaps. *)
let batch_answers_equal (xs : Engine.answer array) ys = compare xs ys = 0

let byzantine_wire ~victim ~replica:r ~mode ~rank ~replica ~attempt ctx =
  if rank = victim && replica = r && attempt = 1 then
    Ctx.install_wire ctx
      ~fault:(byzantine_fault ~victim mode)
      ()

(* TMR for batches: one replica of each victim rank lies with a valid
   frame; the two honest replicas outvote it, the merged answer is the
   honest replicas = 1 answer, and the liar is the only suspect. *)
let test_batch_replica_vote () =
  let a, b = bool_pair 81 ~n:17 ~density:0.35 in
  let workers = 3 in
  let honest =
    Outcome.graded_value
      (batch_value "honest"
         (Fleet.run_batch
            (Fleet.config ~workers ~seed:7 ())
            (Engine.create ()) batch_queries ~a ~b))
        .Fleet.batch_answers
  in
  let cfg = Fleet.config ~workers ~replicas:3 ~seed:7 () in
  List.iter
    (fun victim ->
      let label = Printf.sprintf "victim %d" victim in
      let wire = byzantine_wire ~victim ~replica:0 ~mode:Fault.Sign_flip in
      let rep =
        batch_value label
          (Fleet.run_batch ~wire cfg (Engine.create ()) batch_queries ~a ~b)
      in
      (match rep.Fleet.batch_answers with
      | Outcome.Full answers ->
          check Alcotest.bool (label ^ ": honest answers") true
            (batch_answers_equal answers honest)
      | Outcome.Degraded _ -> Alcotest.failf "%s: outvoted liar degraded" label);
      check Alcotest.int (label ^ ": survivors") workers
        rep.Fleet.batch_survivors;
      (match rep.Fleet.batch_suspects with
      | [ s ] ->
          check Alcotest.int (label ^ ": suspect rank") victim s.Fleet.s_rank;
          check Alcotest.int (label ^ ": suspect replica") 0 s.Fleet.s_replica;
          check Alcotest.string (label ^ ": check") "replica_vote"
            s.Fleet.s_check;
          check Alcotest.string (label ^ ": detail")
            "replica output disagrees with the 2-replica majority"
            s.Fleet.s_detail
      | ss -> Alcotest.failf "%s: %d suspects" label (List.length ss));
      List.iter
        (fun (l : Fleet.batch_link) ->
          let liar = l.Fleet.b_rank = victim && l.Fleet.b_replica = 0 in
          match l.Fleet.b_answers with
          | Error
              (Outcome.Byzantine_detected { rank; replica; check = "replica_vote" })
            when liar ->
              check Alcotest.int (label ^ ": blamed rank") victim rank;
              check Alcotest.int (label ^ ": blamed replica") 0 replica
          | Ok _ when not liar -> ()
          | _ ->
              Alcotest.failf "%s: link %d.%d reported wrongly" label
                l.Fleet.b_rank l.Fleet.b_replica)
        rep.Fleet.batch_links)
    (chaos_ranks ~workers)

(* The validators alone, no replicas: a garbage liar is quarantined by the
   first failing [Verify.check], its shard is lost, and the
   (k-1)-quorum answers Degraded. *)
let test_batch_verify_quarantine () =
  let a, b = bool_pair 91 ~n:16 ~density:0.35 in
  let workers = 4 in
  let cfg = Fleet.config ~workers ~quorum:(workers - 1) ~verify:true ~seed:7 () in
  let clean =
    batch_value "clean" (Fleet.run_batch cfg (Engine.create ()) batch_queries ~a ~b)
  in
  check Alcotest.int "clean suspects" 0 (List.length clean.Fleet.batch_suspects);
  List.iter
    (fun victim ->
      let label = Printf.sprintf "victim %d" victim in
      let honest_link = List.nth clean.Fleet.batch_links victim in
      let range = honest_link.Fleet.b_range in
      (* The liar's answer, rebuilt from the honest shard answer and the
         same byzantine rule, and the first check it fails. *)
      let expected =
        let honest = Result.get_ok honest_link.Fleet.b_answers in
        let mode, g =
          Option.get
            (Fault.check_byzantine (byzantine_fault ~victim Fault.Garbage))
        in
        let lie = Array.map (Verify.corrupt mode g) honest in
        let summary =
          Verify.summarize ~a:(Shard.slice a range) ~b
        in
        List.find_map
          (fun (qi, q) ->
            match
              Verify.check ~name:"engine" (Engine.contract q) summary ~seed:7
                lie.(qi)
            with
            | Verify.Pass -> None
            | Verify.Fail { invariant; detail } -> Some (invariant, detail))
          (List.mapi (fun qi q -> (qi, q)) batch_queries)
      in
      let invariant, detail =
        match expected with
        | Some f -> f
        | None -> Alcotest.failf "%s: garbage passes every check" label
      in
      let wire = byzantine_wire ~victim ~replica:0 ~mode:Fault.Garbage in
      let rep =
        batch_value label
          (Fleet.run_batch ~wire cfg (Engine.create ()) batch_queries ~a ~b)
      in
      check Alcotest.bool (label ^ ": degraded") true
        (Outcome.is_degraded rep.Fleet.batch_answers);
      check Alcotest.int (label ^ ": survivors") (workers - 1)
        rep.Fleet.batch_survivors;
      (match rep.Fleet.batch_suspects with
      | [ s ] ->
          check Alcotest.int (label ^ ": suspect rank") victim s.Fleet.s_rank;
          check Alcotest.string (label ^ ": check") invariant s.Fleet.s_check;
          check Alcotest.string (label ^ ": detail") detail s.Fleet.s_detail
      | ss -> Alcotest.failf "%s: %d suspects" label (List.length ss));
      match (List.nth rep.Fleet.batch_links victim).Fleet.b_answers with
      | Error (Outcome.Byzantine_detected { rank; replica = 0; check = c }) ->
          check Alcotest.int (label ^ ": blamed rank") victim rank;
          check Alcotest.string (label ^ ": blamed check") invariant c
      | _ -> Alcotest.failf "%s: liar link not quarantined" label)
    (chaos_ranks ~workers)

(* An answer of the wrong shape for its query's contract fails
   verification, so the replica is quarantined instead of breaking the
   merge. *)
let test_check_shape () =
  let a, b = bool_pair 92 ~n:8 ~density:0.35 in
  match
    Verify.check ~name:"engine"
      (Engine.contract (Engine.Norm_pow { p = 1.0; eps = 0.25 }))
      (Verify.summarize ~a ~b) ~seed:7 (Engine.Vector [| 1.0 |])
  with
  | Verify.Fail { invariant; _ } ->
      check Alcotest.string "invariant" "answer_shape" invariant
  | Verify.Pass -> Alcotest.fail "a vector answer to a scalar query passed"

(* ||C||_inf merges by the max over the parts, starting from the first,
   for the registry's linf_general and the engine's Linf alike: parts
   that are all negative (only an unverified liar sends them) merge to
   their largest, never to 0. *)
let test_linf_merge_negative () =
  let parts =
    List.mapi
      (fun rank x ->
        {
          Merge.rank;
          range = { Shard.offset = 4 * rank; length = 4 };
          value = Estimator.Scalar x;
        })
      [ -3.0; -2.0; -5.0 ]
  in
  let linf_general = Option.get (Registry.find "linf_general") in
  let linf = Engine.Linf { kappa = 2.0 } in
  let merged c = Merge.merge ~seed:7 ~rows:12 c parts in
  check Alcotest.string "linf_general" "-2"
    (str (merged linf_general.Estimator.contract));
  check Alcotest.string "engine linf" "-2" (str (merged (Engine.contract linf)));
  match
    Merge.merge_batch ~seed:7 ~rows:12 [ linf ]
      (List.map (fun p -> { p with Merge.value = [| p.Merge.value |] }) parts)
  with
  | [| answer |] -> check Alcotest.string "engine batch" "-2" (str answer)
  | _ -> Alcotest.fail "one query, one merged answer"

(* (k-1)-quorum for batches: a permanently crashed worker leaves a
   Degraded answer equal to the merge of the full run's surviving link
   answers. *)
let test_batch_quorum_equivalence () =
  let a, b = bool_pair 41 ~n:17 ~density:0.35 in
  let workers = 4 in
  let cfg = Fleet.config ~workers ~quorum:(workers - 1) ~seed:7 () in
  let full =
    batch_value "full" (Fleet.run_batch cfg (Engine.create ()) batch_queries ~a ~b)
  in
  List.iter
    (fun victim ->
      let label = Printf.sprintf "victim %d" victim in
      let expected =
        Merge.merge_batch ~seed:7 ~rows:17 batch_queries
          (List.filter_map
             (fun (l : Fleet.batch_link) ->
               match l.Fleet.b_answers with
               | Ok value when l.Fleet.b_rank <> victim ->
                   Some
                     { Merge.rank = l.Fleet.b_rank; range = l.Fleet.b_range; value }
               | _ -> None)
             full.Fleet.batch_links)
      in
      let wire ~rank ~replica:_ ~attempt ctx =
        permanent_crash ~victim ~rank ~attempt ctx
      in
      let rep =
        batch_value label
          (Fleet.run_batch ~wire cfg (Engine.create ()) batch_queries ~a ~b)
      in
      check Alcotest.int (label ^ ": survivors") (workers - 1)
        rep.Fleet.batch_survivors;
      match rep.Fleet.batch_answers with
      | Outcome.Full _ -> Alcotest.failf "%s: lost link must degrade" label
      | Outcome.Degraded (answers, _) ->
          check Alcotest.bool (label ^ ": survivors' merge") true
            (batch_answers_equal answers expected))
    (chaos_ranks ~workers)

(* No strict majority: replica 1 lies, replica 2 never answers, so the
   vote is 1 against 1. The shard is lost and the fleet error must blame
   a replica that took part in the vote, not the crashed one. *)
let test_batch_ambiguous_blame () =
  let a, b = bool_pair 81 ~n:17 ~density:0.35 in
  let workers = 3 in
  let cfg = Fleet.config ~workers ~replicas:3 ~seed:7 () in
  List.iter
    (fun victim ->
      let label = Printf.sprintf "victim %d" victim in
      let wire ~rank ~replica ~attempt ctx =
        byzantine_wire ~victim ~replica:1 ~mode:Fault.Sign_flip ~rank ~replica
          ~attempt ctx;
        if replica = 2 then permanent_crash ~victim ~rank ~attempt ctx
      in
      match Fleet.run_batch ~wire cfg (Engine.create ()) batch_queries ~a ~b with
      | Ok _ -> Alcotest.failf "%s: an ambiguous shard must fail the quorum" label
      | Error (Outcome.Byzantine_detected { rank; replica; check = c }) ->
          check Alcotest.int (label ^ ": blamed rank") victim rank;
          check Alcotest.bool (label ^ ": blamed replica voted") true
            (replica = 0 || replica = 1);
          check Alcotest.string (label ^ ": check") "ambiguous_vote" c
      | Error e ->
          Alcotest.failf "%s: %s" label (Outcome.error_to_string e))
    (chaos_ranks ~workers)

(* ------------------------------------------------------------------ *)
(* Fleet: the coordinator's shared B-row messages are invisible *)

(* [Fleet.run_batch] hands every link its engine, so a link after the
   first sends the lp and frob groups' B-row bytes that the engine holds
   from an earlier link at the same seed. The reference runs each link
   alone, as the fleet's supervisor would, on a fresh engine. Per link,
   every attempt's transcript (sender, round, label, bytes), every
   delivered payload, the ladder (rung, seed, fresh bits and rounds of
   each attempt) and the answers must agree, clean and under link faults: corrupted and dropped
   frames, which the ARQ layer retransmits, and a crash of every worker
   on its first attempt as it is about to send its sampled rows, after
   the coordinator's sketches crossed; the rerun climbs to a Reseed rung
   at another seed, whose messages no fleet-seed link may serve. *)
let shared_batch_queries = batch_queries @ [ Engine.Frob_norm { eps = 0.5 } ]

(* What one link saw: per attempt, its transcript and the payloads its
   transport delivered, in order, and the retransmissions its faults
   caused. *)
type link_log = {
  transcripts : (int * Transcript.message list) list;
  payloads : (int * (Transcript.party * string * string)) list;
  retries : int;
}

(* A wire hook that arms the spec's faults and a faithful transport that
   logs each delivery under the attempt the hook was last called for (a
   supervisor opens the transport first, then calls the hook). *)
let link_recorder spec =
  let logs = Hashtbl.create 16 in
  let attempt_log = ref (ref []) in
  let wire ~rank ~replica ~attempt ctx =
    Option.iter
      (fun fault -> Ctx.install_wire ctx ~fault ())
      (Fault.for_link ~seed:7 spec ~rank ~replica ~attempt);
    attempt_log := ref [];
    Hashtbl.add logs (rank, replica)
      (attempt, ctx, !attempt_log)
  in
  let transport () =
    {
      Matprod_comm.Transport.name = "recording";
      deliver =
        (fun ~from ~label payload ->
          let log = !attempt_log in
          log := (from, label, payload) :: !log;
          payload);
      close = ignore;
    }
  in
  let log_of ~rank ~replica =
    let attempts =
      List.sort compare
        (List.map
           (fun (attempt, ctx, log) ->
             (attempt, (ctx, List.rev !log)))
           (Hashtbl.find_all logs (rank, replica)))
    in
    {
      transcripts =
        List.map
          (fun (i, (ctx, _)) -> (i, Transcript.messages (Ctx.transcript ctx)))
          attempts;
      payloads =
        List.concat_map
          (fun (i, (_, ps)) -> List.map (fun p -> (i, p)) ps)
          attempts;
      retries =
        List.fold_left
          (fun acc (_, (ctx, _)) ->
            acc + (Ctx.wire_stats ctx).Matprod_comm.Ctx.retries)
          0 attempts;
    }
  in
  (wire, transport, log_of)

let test_batch_shared_messages_invisible () =
  let a, b = bool_pair 83 ~n:17 ~density:0.35 in
  let chaos =
    [
      ("clean", "");
      ("corrupt", "kind=corrupt,rate=0.2");
      ("drop", "kind=drop,rate=0.2");
      ("crash then reseed", "kind=crash,party=a,label=sampled rows");
    ]
  in
  List.iter
    (fun (workers, replicas, (name, spec_s)) ->
      let label =
        Printf.sprintf "workers %d, replicas %d, %s" workers replicas name
      in
      let spec = Result.get_ok (Fault.parse spec_s) in
      let wire, transport, log_of = link_recorder spec in
      let cfg = Fleet.config ~workers ~replicas ~transport ~seed:7 () in
      let engine = Engine.create () in
      let rep =
        batch_value label
          (Fleet.run_batch ~wire cfg engine shared_batch_queries ~a ~b)
      in
      let rwire, rtransport, rlog_of = link_recorder spec in
      let policy =
        Supervisor.policy ~max_resumes:cfg.Fleet.link_policy.Fleet.max_resumes
          ~max_reseeds:cfg.Fleet.link_policy.Fleet.max_reseeds ()
      in
      let reseeded = ref false and retries = ref 0 in
      List.iter
        (fun (l : Fleet.batch_link) ->
          let rank = l.Fleet.b_rank and replica = l.Fleet.b_replica in
          let what = Printf.sprintf "%s: link %d.%d" label rank replica in
          let ai = Imat.of_bmat (Shard.slice a l.Fleet.b_range) in
          let solo = Engine.create () in
          let alone =
            Supervisor.run ~policy ~wire:(rwire ~rank ~replica)
              ~transport:rtransport ~seed:7 ~protocol:"engine-batch"
              (fun ctx ->
                (Engine.run solo ctx ~a:ai ~b:(Imat.of_bmat b)
                   shared_batch_queries)
                  .Engine.answers)
          in
          let answers, attempts =
            match alone with
            | Ok r -> (Ok r.Supervisor.output, r.Supervisor.attempts)
            | Error e -> (Error e, [])
          in
          check Alcotest.bool (what ^ ": answers") true
            (compare answers l.Fleet.b_answers = 0);
          check Alcotest.bool (what ^ ": attempts and fresh bits") true
            (attempts = l.Fleet.b_attempts);
          let shared = log_of ~rank ~replica and own = rlog_of ~rank ~replica in
          check Alcotest.bool (what ^ ": transcripts") true
            (shared.transcripts = own.transcripts);
          check Alcotest.bool (what ^ ": payloads") true
            (shared.payloads = own.payloads);
          retries := !retries + shared.retries;
          if
            List.exists
              (fun (at : Supervisor.attempt) ->
                match at.Supervisor.rung with
                | Supervisor.Reseed _ -> true
                | _ -> false)
              l.Fleet.b_attempts
          then reseeded := true)
        rep.Fleet.batch_links;
      check Alcotest.int (label ^ ": links") (workers * replicas)
        (List.length rep.Fleet.batch_links);
      check Alcotest.bool (label ^ ": a reseed rung iff the crash") true
        (!reseeded = (name = "crash then reseed"));
      check Alcotest.bool (label ^ ": retransmissions iff a byte fault") true
        (!retries > 0 = (name = "corrupt" || name = "drop")))
    (List.concat_map
       (fun workers ->
         List.concat_map
           (fun replicas -> List.map (fun c -> (workers, replicas, c)) chaos)
           [ 1; 3 ])
       [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)

let () =
  let qsuite = List.map QCheck_alcotest.to_alcotest qcheck_sketch_merge in
  Alcotest.run "topology"
    [
      ( "shard",
        [
          Alcotest.test_case "ranges partition" `Quick test_shard_ranges;
          Alcotest.test_case "slice" `Quick test_shard_slice;
        ] );
      ("sketch merge", qsuite);
      ( "graded",
        [ Alcotest.test_case "degradation" `Quick test_degradation ] );
      ( "straggle",
        [
          Alcotest.test_case "validation" `Quick test_straggle_validation;
          Alcotest.test_case "reproducible lateness" `Quick
            test_straggle_reproducible;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "exact answers" `Quick test_fleet_exact;
          Alcotest.test_case "gallery k=4" `Slow test_fleet_gallery;
          Alcotest.test_case "quorum equivalence" `Slow test_quorum_equivalence;
          Alcotest.test_case "chaos gallery" `Slow test_chaos_gallery;
          Alcotest.test_case "byzantine gallery" `Slow test_byzantine_gallery;
          Alcotest.test_case "straggler resume" `Quick
            test_straggler_resume_saves_bits;
          Alcotest.test_case "quorum sweep" `Quick test_quorum_sweep;
        ] );
      ( "batch",
        [
          Alcotest.test_case "full fleet" `Quick test_batch_fleet;
          Alcotest.test_case "degraded fleet" `Quick test_batch_fleet_degraded;
          Alcotest.test_case "replica vote" `Quick test_batch_replica_vote;
          Alcotest.test_case "verify quarantine" `Quick
            test_batch_verify_quarantine;
          Alcotest.test_case "check rejects a wrong shape" `Quick
            test_check_shape;
          Alcotest.test_case "linf merges negative parts by max" `Quick
            test_linf_merge_negative;
          Alcotest.test_case "quorum equivalence" `Quick
            test_batch_quorum_equivalence;
          Alcotest.test_case "ambiguous vote blame" `Quick
            test_batch_ambiguous_blame;
          Alcotest.test_case "shared B-row messages are invisible" `Quick
            test_batch_shared_messages_invisible;
        ] );
    ]
