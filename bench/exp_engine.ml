(* E1 companion: the batched query engine. Same statistic family as E1's
   Algorithm 1 runs, but asked through Matprod_engine as one batch — the
   rows land in BENCH_e1.json next to the standalone protocol rows. *)

module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Workload = Matprod_workload.Workload
module Transcript = Matprod_comm.Transcript
module Engine = Matprod_engine.Engine

(* Mixed families share speaking rounds: perfbench's six specs over its
   pair, fused, against the same groups run one after another — the
   runs of their singleton transcripts' senders, concatenated. *)
let mixed () =
  let n = 96 and seed = 1001 in
  let a, b = Workload.gen_pair ~zipf:false ~seed:1 ~n ~density:0.05 in
  let a = Imat.of_bmat a and b = Imat.of_bmat b in
  let queries =
    List.map
      (fun s ->
        match Engine.query_of_string s with Ok q -> q | Error e -> failwith e)
      [ "norm:eps=0.25"; "norm:p=1,eps=0.25"; "top:k=3"; "rows:beta=0.5";
        "l0:count=1"; "hh:phi=0.05" ]
  in
  let run queries =
    Ctx.run ~seed (fun ctx -> Engine.run (Engine.create ()) ctx ~a ~b queries)
  in
  let fused = run queries in
  let qs = Array.of_list queries in
  let senders =
    List.concat_map
      (fun g ->
        let solo = run (List.map (fun i -> qs.(i)) g.Engine.members) in
        List.map
          (fun m -> m.Transcript.sender)
          (Transcript.messages solo.Ctx.transcript))
      fused.Ctx.output.Engine.groups
  in
  let sequential =
    fst
      (List.fold_left
         (fun (runs, last) s -> ((if Some s = last then runs else runs + 1), Some s))
         (0, None) senders)
  in
  let groups = List.length fused.Ctx.output.Engine.groups in
  Report.note "mixed batch at n=%d: %d groups, %s, %d fused rounds vs %d sequential"
    n groups (Report.fbits fused.Ctx.bits) fused.Ctx.rounds sequential;
  Report.bench_row
    [
      ("n", Matprod_obs.Json.Int n);
      ("protocol", Matprod_obs.Json.String "engine mixed");
      ("queries", Matprod_obs.Json.Int (List.length queries));
      ("groups", Matprod_obs.Json.Int groups);
      ("bits", Matprod_obs.Json.Int fused.Ctx.bits);
      ("rounds", Matprod_obs.Json.Int fused.Ctx.rounds);
      ("sequential_rounds", Matprod_obs.Json.Int sequential);
    ];
  Report.record_verdict
    (fused.Ctx.rounds < sequential)
    "mixed-family batch fuses its groups' rounds (%d < %d sequential)"
    fused.Ctx.rounds sequential

let e1 ~quick =
  Report.section ~id:"E1  batched query engine (round-1 reuse + plan cache)"
    ~claim:
      "a batch of k >= 3 same-family queries spends strictly fewer transcript \
       bits than the k standalone runs: the round-1 sketch exchange ships once";
  let n = if quick then 128 else 256 in
  let density = 0.05 in
  let rng = Prng.create 42 in
  let a =
    Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density)
  in
  let b =
    Imat.of_bmat (Workload.uniform_bool rng ~rows:n ~cols:n ~density)
  in
  (* Three queries over one lp family: the norm pays its sampling round,
     the row queries answer from the shared round-1 sketches. *)
  let queries =
    [
      Engine.Norm_pow { p = 0.0; eps = 0.25 };
      Engine.Row_norms { p = 0.0; beta = 0.5 };
      Engine.Top_rows { p = 0.0; beta = 0.5; k = 5 };
    ]
  in
  let engine = Engine.create () in
  let batched =
    Ctx.run ~seed:1 (fun ctx -> Engine.run engine ctx ~a ~b queries)
  in
  let rep = batched.Ctx.output in
  let standalone =
    List.fold_left
      (fun acc q ->
        let solo = Engine.create () in
        acc
        + (Ctx.run ~seed:1 (fun ctx -> Engine.run solo ctx ~a ~b [ q ])).Ctx.bits)
      0 queries
  in
  let saved = standalone - batched.Ctx.bits in
  let cols =
    [ ("mode", 12); ("queries", 8); ("groups", 7); ("bits", 10); ("rounds", 7) ]
  in
  Report.table_header cols;
  Report.row cols
    [
      "batched";
      string_of_int (List.length queries);
      string_of_int (List.length rep.Engine.groups);
      Report.fbits batched.Ctx.bits;
      string_of_int batched.Ctx.rounds;
    ];
  Report.row cols
    [
      "standalone";
      string_of_int (List.length queries);
      string_of_int (List.length queries);
      Report.fbits standalone;
      "-";
    ];
  List.iter
    (fun (mode, bits, rounds, groups) ->
      Report.bench_row
        [
          ("n", Matprod_obs.Json.Int n);
          ("protocol", Matprod_obs.Json.String ("engine " ^ mode));
          ("queries", Matprod_obs.Json.Int (List.length queries));
          ("groups", Matprod_obs.Json.Int groups);
          ("bits", Matprod_obs.Json.Int bits);
          ("rounds", Matprod_obs.Json.Int rounds);
          ("saved_bits", Matprod_obs.Json.Int saved);
        ])
    [
      ("batch", batched.Ctx.bits, batched.Ctx.rounds, List.length rep.Engine.groups);
      ("standalone", standalone, 0, List.length queries);
    ];
  Report.note "batching saves %s of %s standalone bits (%.1f%%)"
    (Report.fbits saved) (Report.fbits standalone)
    (100.0 *. float_of_int saved /. float_of_int standalone);
  Report.record_verdict
    (batched.Ctx.bits < standalone)
    "batch of %d same-family queries strictly cheaper than standalone"
    (List.length queries);
  (* The held family is a wall-clock lever only: a warm second batch at
     the same seed hits the held sketch plan and leaves the transcript
     untouched. *)
  let warm = Ctx.run ~seed:1 (fun ctx -> Engine.run engine ctx ~a ~b queries) in
  let hits = rep.Engine.plan_hits + warm.Ctx.output.Engine.plan_hits
  and misses = rep.Engine.plan_misses + warm.Ctx.output.Engine.plan_misses in
  Report.note "plan cache across two batches: %d hits, %d misses" hits misses;
  Report.bench_row
    [
      ("n", Matprod_obs.Json.Int n);
      ("protocol", Matprod_obs.Json.String "engine warm");
      ("bits", Matprod_obs.Json.Int warm.Ctx.bits);
      ("plan_hits", Matprod_obs.Json.Int hits);
      ("plan_misses", Matprod_obs.Json.Int misses);
    ];
  Report.record_verdict
    (warm.Ctx.output.Engine.plan_hits = 1 && warm.Ctx.bits = batched.Ctx.bits)
    "warm plan-cache hit leaves the transcript bit-identical";
  mixed ()
