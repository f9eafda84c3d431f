(* The batched query engine's contract (docs/API.md):

   1. Batch composition is invisible to each query: the answer a query
      gets inside any batch EQUALS the answer it gets as a singleton
      batch at the same seed (per-group derived randomness).
   2. Batching is strictly cheaper: k same-family queries in one batch
      spend strictly fewer transcript bits than the k standalone runs,
      because the round-1 sketch exchange ships once.
   3. The held exchanges change wall-clock only: hits/misses are
      observable in the report and the Metrics counters, never in answers
      or bits.
   4. A mid-batch crash leaves a journal whose resume completes with the
      fault-free answers, and fresh + replayed bits account for exactly
      the fault-free transcript.
   5. The groups share speaking rounds: the fused transcript interleaves
      the groups' singleton transcripts message for message, and takes
      no more rounds than running them one after another, nor more than
      one round above the longest group. *)

module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Workload = Matprod_workload.Workload
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Fault = Matprod_comm.Fault
module Reliable = Matprod_comm.Reliable
module Journal = Matprod_comm.Journal
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Outcome = Matprod_core.Outcome
module Estimator = Matprod_core.Estimator
module Engine = Matprod_engine.Engine

let check = Alcotest.check

(* A wire on which [party] dies once [after] messages have crossed it. *)
let crash ~party ~after =
  Fault.of_string
    (Printf.sprintf "kind=crash,party=%s,after=%d"
       (Transcript.party_name party) after)

let gen_pair ~seed ~n =
  let rng = Prng.create (7 * seed) in
  let a = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  let b = Workload.uniform_bool rng ~rows:n ~cols:n ~density:0.25 in
  (Imat.of_bmat a, Imat.of_bmat b)

(* eps 0.25 gives Norm_pow the round-1 accuracy beta = sqrt(0.25) = 0.5,
   aligned with the row queries: all three share one lp exchange. *)
let lp_batch =
  [
    Engine.Norm_pow { p = 0.0; eps = 0.25 };
    Engine.Row_norms { p = 0.0; beta = 0.5 };
    Engine.Top_rows { p = 0.0; beta = 0.5; k = 3 };
  ]

let mixed_batch =
  lp_batch
  @ [
      Engine.L0_sample { eps = 0.5; count = 2 };
      Engine.L1_sample { count = 2 };
      Engine.Heavy_hitters { phi = 0.2; eps = 0.1 };
      Engine.Linf { kappa = 2.0 };
      Engine.Exact_product;
      Engine.L0_sample { eps = 0.5; count = 1 };
    ]

let run_batch ?engine ~seed ~a ~b queries =
  let engine =
    match engine with Some e -> e | None -> Engine.create ()
  in
  Ctx.run ~seed (fun ctx -> Engine.run engine ctx ~a ~b queries)

(* Property 1: each answer in the mixed batch equals the singleton-batch
   answer for the same query at the same seed. The second L0_sample is
   excluded here: sample queries merged into one exchange draw later
   slices of the group's shared stream (the concatenation property below
   is their contract). *)
let test_batched_equals_sequential () =
  let seed = 42 in
  let a, b = gen_pair ~seed ~n:20 in
  let batched = (run_batch ~seed ~a ~b mixed_batch).Ctx.output in
  List.iteri
    (fun i q ->
      if i <> 8 then begin
        let solo = (run_batch ~seed ~a ~b [ q ]).Ctx.output in
        if batched.Engine.answers.(i) <> solo.Engine.answers.(0) then
          Alcotest.failf
            "query %d (%s): batched answer differs from its singleton run" i
            (Engine.query_to_string q)
      end)
    mixed_batch

(* Merged sample queries: the slices concatenate to exactly the samples a
   single query with the merged total count draws. *)
let test_sample_concatenation () =
  let seed = 42 in
  let a, b = gen_pair ~seed ~n:20 in
  let split =
    (run_batch ~seed ~a ~b
       [
         Engine.L0_sample { eps = 0.5; count = 2 };
         Engine.L0_sample { eps = 0.5; count = 1 };
       ])
      .Ctx.output
  in
  let merged =
    (run_batch ~seed ~a ~b [ Engine.L0_sample { eps = 0.5; count = 3 } ])
      .Ctx.output
  in
  match (split.Engine.answers, merged.Engine.answers) with
  | [| Engine.L0_samples s1; Engine.L0_samples s2 |], [| Engine.L0_samples m |]
    ->
      if Array.append s1 s2 <> m then
        Alcotest.fail "slices do not concatenate to the merged run"
  | _ -> Alcotest.fail "unexpected answer shapes"

(* Merged multi-sample queries: the two L0_sample queries (counts 2 and 1)
   ride one 3-sample exchange; the slices must keep their sizes. *)
let test_sample_slicing () =
  let seed = 7 in
  let a, b = gen_pair ~seed ~n:20 in
  let rep = (run_batch ~seed ~a ~b mixed_batch).Ctx.output in
  (match rep.Engine.answers.(3) with
  | Engine.L0_samples s -> check Alcotest.int "first l0 slice" 2 (Array.length s)
  | _ -> Alcotest.fail "answer 3 should be L0_samples");
  (match rep.Engine.answers.(8) with
  | Engine.L0_samples s -> check Alcotest.int "second l0 slice" 1 (Array.length s)
  | _ -> Alcotest.fail "answer 8 should be L0_samples");
  let l0_groups =
    List.filter
      (fun g -> List.mem 3 g.Engine.members)
      rep.Engine.groups
  in
  match l0_groups with
  | [ g ] ->
      check (Alcotest.list Alcotest.int) "both l0 queries share one group"
        [ 3; 8 ] g.Engine.members
  | _ -> Alcotest.fail "expected exactly one l0 group"

(* Property 2: the three same-family queries in one batch cost strictly
   fewer bits than the three standalone runs, and the round-1 sketch
   message crosses the wire exactly once. *)
let test_bit_savings () =
  let seed = 5 in
  let a, b = gen_pair ~seed ~n:24 in
  let batched = run_batch ~seed ~a ~b lp_batch in
  let standalone =
    List.fold_left
      (fun acc q -> acc + (run_batch ~seed ~a ~b [ q ]).Ctx.bits)
      0 lp_batch
  in
  check Alcotest.bool
    (Printf.sprintf "batch (%d bits) strictly under standalone (%d bits)"
       batched.Ctx.bits standalone)
    true
    (batched.Ctx.bits < standalone);
  let prefix = "engine: lp sketches" in
  let sketch_messages =
    List.length
      (List.filter
         (fun m ->
           let l = m.Transcript.label in
           String.length l >= String.length prefix
           && String.sub l 0 (String.length prefix) = prefix)
         (Transcript.messages batched.Ctx.transcript))
  in
  check Alcotest.int "round-1 sketches shipped once" 1 sketch_messages;
  let rep = batched.Ctx.output in
  check Alcotest.int "one exchange group" 1 (List.length rep.Engine.groups);
  check Alcotest.int "group bits = total bits" batched.Ctx.bits
    rep.Engine.total_bits

(* Property 3a: hit/miss accounting, in the report and the counters. *)
let test_plan_cache_counters () =
  let seed = 9 in
  let a, b = gen_pair ~seed ~n:20 in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let engine = Engine.create () in
  let first = (run_batch ~engine ~seed ~a ~b lp_batch).Ctx.output in
  check Alcotest.int "cold run misses" 1 first.Engine.plan_misses;
  check Alcotest.int "cold run has no hits" 0 first.Engine.plan_hits;
  let second = (run_batch ~engine ~seed ~a ~b lp_batch).Ctx.output in
  check Alcotest.int "warm run hits" 1 second.Engine.plan_hits;
  check Alcotest.int "warm run misses nothing" 0 second.Engine.plan_misses;
  (match second.Engine.groups with
  | [ g ] ->
      check Alcotest.bool "group reports the hit" true
        (g.Engine.plan = Engine.Plan_hit)
  | _ -> Alcotest.fail "expected one group");
  (* Plan-cache counters record into per-group scopes: sum the tree. *)
  check Alcotest.int "metrics hit counter" 1
    (Metrics.total "engine_plan_hits");
  check Alcotest.int "metrics miss counter" 1
    (Metrics.total "engine_plan_misses")

(* Property 3b: a cache hit is invisible on the wire — same answers, same
   bits as a cold engine. Distinct seeds never share a family. *)
let test_plan_cache_soundness () =
  let seed = 11 in
  let a, b = gen_pair ~seed ~n:20 in
  let warm_engine = Engine.create () in
  ignore (run_batch ~engine:warm_engine ~seed ~a ~b lp_batch);
  let warm = run_batch ~engine:warm_engine ~seed ~a ~b lp_batch in
  let cold = run_batch ~seed ~a ~b lp_batch in
  if warm.Ctx.output.Engine.answers <> cold.Ctx.output.Engine.answers then
    Alcotest.fail "plan-cache hit changed the answers";
  check Alcotest.int "plan-cache hit leaves bits unchanged" cold.Ctx.bits
    warm.Ctx.bits;
  (* Same engine, different seed: the cached family must not be reused. *)
  let other = (run_batch ~engine:warm_engine ~seed:(seed + 1) ~a ~b lp_batch).Ctx.output in
  check Alcotest.int "different seed misses" 1 other.Engine.plan_misses

(* Property 3c: the engine holds one seed's exchanges. A run at another
   seed drops them, so returning to an earlier seed misses. At the held
   seed, a run over another B keeps the family and plan (no hash
   evaluations) but builds and encodes B's message again, and answers as
   a fresh engine does; a run over the same B does neither. *)
let test_one_seed_held () =
  let seed = 13 in
  let a, b = gen_pair ~seed ~n:20 in
  let _, b2 = gen_pair ~seed:(seed + 1) ~n:20 in
  let rows = [ Engine.Row_norms { p = 0.0; beta = 0.5 } ] in
  let engine = Engine.create () in
  ignore (run_batch ~engine ~seed ~a ~b rows);
  ignore (run_batch ~engine ~seed:(seed + 1) ~a ~b rows);
  let back = (run_batch ~engine ~seed ~a ~b rows).Ctx.output in
  check Alcotest.int "an earlier seed misses" 1 back.Engine.plan_misses;
  check Alcotest.int "an earlier seed has no hits" 0 back.Engine.plan_hits;
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
  @@ fun () ->
  (* sketch builds, encodes and hash evaluations a run records *)
  let costs f =
    let read () =
      ( Metrics.in_scope "group-lp" (fun () ->
            ( Metrics.hist_count
                (Metrics.histogram ~label:"lp_planned" "sketch_build_ns"),
              Metrics.hist_count (Metrics.histogram "codec_encode_ns") )),
        Metrics.total "plan_hash_evals" )
    in
    let (builds0, encodes0), evals0 = read () in
    let r = f () in
    let (builds1, encodes1), evals1 = read () in
    (r, builds1 - builds0, encodes1 - encodes0, evals1 - evals0)
  in
  let _, cold_builds, cold_encodes, cold_evals =
    costs (fun () -> run_batch ~seed ~a ~b rows)
  in
  check Alcotest.bool "a cold run builds, encodes and hashes" true
    (cold_builds > 0 && cold_encodes > 0 && cold_evals > 0);
  let same, builds, encodes, evals =
    costs (fun () -> run_batch ~engine ~seed ~a ~b rows)
  in
  check Alcotest.int "same B hits" 1 same.Ctx.output.Engine.plan_hits;
  check Alcotest.(list int) "same B: no build, encode or hash evaluation"
    [ 0; 0; 0 ] [ builds; encodes; evals ];
  let other, builds, encodes, evals =
    costs (fun () -> run_batch ~engine ~seed ~a ~b:b2 rows)
  in
  check Alcotest.int "another B hits the plan" 1
    other.Ctx.output.Engine.plan_hits;
  check Alcotest.(list int) "another B: the message is built and encoded again"
    [ cold_builds; cold_encodes; 0 ] [ builds; encodes; evals ];
  let fresh = run_batch ~seed ~a ~b:b2 rows in
  if other.Ctx.output.Engine.answers <> fresh.Ctx.output.Engine.answers then
    Alcotest.fail "a held plan over another B changed the answers";
  check Alcotest.bool "another B: the transcript of a fresh engine" true
    (Transcript.messages other.Ctx.transcript
    = Transcript.messages fresh.Ctx.transcript)

(* Property 4: crash mid-batch, then resume from the journal. *)
let test_journal_resume_mid_batch () =
  let seed = 17 in
  let a, b = gen_pair ~seed ~n:20 in
  let queries = mixed_batch in
  let body ctx = Engine.run (Engine.create ()) ctx ~a ~b queries in
  let base = Ctx.run ~seed body in
  let messages = Transcript.message_count base.Ctx.transcript in
  check Alcotest.bool "batch spans several messages" true (messages >= 3);
  let path = Filename.temp_file "matprod_engine" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let victim =
        (List.nth (Transcript.messages base.Ctx.transcript) 2).Transcript.sender
      in
      (match
         Outcome.guard (fun () ->
             Ctx.run_journaled ~seed ~journal:path ~protocol:"engine batch"
               (fun ctx ->
                 Ctx.install_wire ctx
                   ~fault:(crash ~party:victim ~after:2)
                   ~reliable:(Reliable.config ~max_attempts:4 ())
                   ();
                 body ctx))
       with
      | Error (Outcome.Crashed { after_messages; _ }) ->
          check Alcotest.int "crash mid-batch" 2 after_messages
      | Ok _ -> Alcotest.fail "crash rule did not fire"
      | Error e ->
          Alcotest.failf "wrong error: %s" (Outcome.error_to_string e));
      let journal =
        match Journal.load path with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal unreadable: %s" e
      in
      check Alcotest.int "journal holds the delivered prefix" 2
        (List.length journal.Journal.entries);
      let resumed = Ctx.resume ~seed ~journal body in
      if resumed.Ctx.output.Engine.answers <> base.Ctx.output.Engine.answers
      then Alcotest.fail "resumed answers differ from the fault-free run";
      check Alcotest.int "replayed the journaled prefix" 2
        resumed.Ctx.replayed_messages;
      check Alcotest.int "fresh + replayed = fault-free bits" base.Ctx.bits
        (resumed.Ctx.bits + resumed.Ctx.replayed_bits))

(* The benchmark batch: the perfbench pair (96x96, density 0.05, seed 1)
   and its six specs, run at batch seed 1001. *)
let bench_pair () =
  let a, b = Workload.gen_pair ~zipf:false ~seed:1 ~n:96 ~density:0.05 in
  (Imat.of_bmat a, Imat.of_bmat b)

let bench_queries () =
  List.map
    (fun s ->
      match Engine.query_of_string s with
      | Ok q -> q
      | Error e -> Alcotest.failf "spec %S: %s" s e)
    [ "norm:eps=0.25"; "norm:p=1,eps=0.25"; "top:k=3"; "rows:beta=0.5";
      "l0:count=1"; "hh:phi=0.05" ]

let bench_seed = 1001

(* The wire bytes of a served batch, pinned: the benchmark's pair (96x96,
   density 0.05, seed 1) and its six specs at batch seed 1001. The
   journal stores every message's payload, so its length and CRC-32 move
   if any codec, sketch or combine kernel changes a single byte; the CRC
   also moves if the fused schedule reorders the messages. *)
let test_golden_journal_bytes () =
  let a, b = bench_pair () in
  let queries = bench_queries () in
  let path = Filename.temp_file "matprod_golden" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore
        (Ctx.run_journaled ~seed:bench_seed ~journal:path ~protocol:"serve"
           (fun ctx -> Engine.run (Engine.create ()) ctx ~a ~b queries));
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.int "journal length" 340_837 (String.length bytes);
      check Alcotest.string "journal crc32" "0xa313773a"
        (Printf.sprintf "0x%08x" (Reliable.crc32 bytes)))


(* ------------------------------------------------------------------ *)
(* Property 5: fused rounds against a singleton oracle. Every group of a
   fused batch is re-run alone, as a batch of just its members, at the
   same seed. *)

let wire_view tr =
  List.map
    (fun m -> (m.Transcript.sender, m.Transcript.label, m.Transcript.bytes))
    (Transcript.messages tr)

let speaker_runs senders =
  fst
    (List.fold_left
       (fun (runs, last) s -> ((if Some s = last then runs else runs + 1), Some s))
       (0, None) senders)

(* Is [fused] an interleaving of [queues], each kept in order? *)
let rec interleaves fused queues =
  match fused with
  | [] -> List.for_all (( = ) []) queues
  | m :: rest ->
      List.exists
        (fun i ->
          match List.nth queues i with
          | m' :: tail when m' = m ->
              interleaves rest
                (List.mapi (fun j q -> if j = i then tail else q) queues)
          | _ -> false)
        (List.init (List.length queues) Fun.id)

let fused_oracle ~seed ~n queries =
  let a, b = gen_pair ~seed ~n in
  let fused = run_batch ~seed ~a ~b queries in
  let rep = fused.Ctx.output in
  let qs = Array.of_list queries in
  let solos =
    List.map
      (fun g ->
        (g, run_batch ~seed ~a ~b (List.map (fun i -> qs.(i)) g.Engine.members)))
      rep.Engine.groups
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  List.iter
    (fun (g, solo) ->
      List.iteri
        (fun j i ->
          if compare rep.Engine.answers.(i) solo.Ctx.output.Engine.answers.(j) <> 0
          then fail "query %d (%s): fused answer differs from its group run" i
              (Engine.query_to_string qs.(i)))
        g.Engine.members;
      if g.Engine.bits <> solo.Ctx.bits || g.Engine.rounds <> solo.Ctx.rounds
      then
        fail "%s: reports %d bits, %d rounds; alone it takes %d bits, %d rounds"
          g.Engine.family g.Engine.bits g.Engine.rounds solo.Ctx.bits
          solo.Ctx.rounds)
    solos;
  if not
       (interleaves (wire_view fused.Ctx.transcript)
          (List.map (fun (_, solo) -> wire_view solo.Ctx.transcript) solos))
  then fail "the fused transcript does not interleave the group transcripts";
  let solo_bits = List.fold_left (fun acc (_, solo) -> acc + solo.Ctx.bits) 0 solos in
  if fused.Ctx.bits <> solo_bits then
    fail "fused %d bits <> %d summed over the groups" fused.Ctx.bits solo_bits;
  let sequential =
    speaker_runs
      (List.concat_map
         (fun (_, solo) ->
           List.map (fun (s, _, _) -> s) (wire_view solo.Ctx.transcript))
         solos)
  in
  let longest = List.fold_left (fun acc (_, solo) -> max acc solo.Ctx.rounds) 0 solos in
  if fused.Ctx.rounds > sequential then
    fail "fused %d rounds > %d run one after another" fused.Ctx.rounds sequential;
  if fused.Ctx.rounds > longest + 1 then
    fail "fused %d rounds > longest group %d + 1" fused.Ctx.rounds longest;
  (* With every group's opener and rounds measured alone, the best
     opening speaker X gives max_i (rounds_i + [opener_i <> X]). *)
  let optimum x =
    List.fold_left
      (fun acc (_, solo) ->
        match wire_view solo.Ctx.transcript with
        | (opener, _, _) :: _ ->
            max acc (solo.Ctx.rounds + if opener = x then 0 else 1)
        | [] -> acc)
      0 solos
  in
  let optimum = min (optimum Transcript.Alice) (optimum Transcript.Bob) in
  if fused.Ctx.rounds <> optimum then
    fail "fused %d rounds, the best opening speaker gives %d" fused.Ctx.rounds
      optimum;
  true

let query_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun p -> Engine.Norm_pow { p; eps = 0.25 }) (oneofl [ 0.0; 1.0 ]);
      return (Engine.Frob_norm { eps = 0.5 });
      map (fun p -> Engine.Row_norms { p; beta = 0.5 }) (oneofl [ 0.0; 1.0 ]);
      map (fun p -> Engine.Top_rows { p; beta = 0.5; k = 3 }) (oneofl [ 0.0; 1.0 ]);
      map (fun count -> Engine.L0_sample { eps = 0.5; count }) (1 -- 2);
      map (fun count -> Engine.L1_sample { count }) (1 -- 2);
      return (Engine.Heavy_hitters { phi = 0.2; eps = 0.1 });
      return (Engine.Linf { kappa = 2.0 });
      return Engine.Exact_product;
    ]

let batch_gen =
  let open QCheck.Gen in
  let* n = oneofl [ 16; 32 ] in
  let* seed = int_bound 100_000 in
  let* queries = list_size (1 -- 7) query_gen in
  (* duplicates, in random positions *)
  let* dups = list_size (0 -- 2) (int_bound 6) in
  let queries =
    queries @ List.map (fun i -> List.nth queries (i mod List.length queries)) dups
  in
  let* queries = shuffle_l queries in
  return (n, seed, queries)

let print_batch (n, seed, queries) =
  Printf.sprintf "n=%d seed=%d [%s]" n seed
    (String.concat "; " (List.map Engine.query_to_string queries))

let qcheck_fused_oracle =
  QCheck.Test.make ~name:"fused batch = its group runs, interleaved" ~count:25
    (QCheck.make ~print:print_batch batch_gen)
    (fun (n, seed, queries) -> fused_oracle ~seed ~n queries)

(* Each query kind's declared own turns equal what its group measures
   alone — its opener and its rounds — the engine's twin of the
   registry's predicted = measured. *)
let test_declared_turns () =
  let seed = 3 in
  let a, b = gen_pair ~seed ~n:20 in
  List.iter
    (fun q ->
      let run = run_batch ~seed ~a ~b [ q ] in
      let what = Engine.query_to_string q in
      let opener, rounds = Engine.own_turns q in
      check Alcotest.int (what ^ ": declared = measured rounds") rounds
        run.Ctx.rounds;
      (match Transcript.messages run.Ctx.transcript with
      | m :: _ ->
          check Alcotest.string (what ^ ": declared = measured opener")
            (Transcript.party_name opener)
            (Transcript.party_name m.Transcript.sender)
      | [] -> ());
      match run.Ctx.output.Engine.groups with
      | [ g ] -> check Alcotest.int (what ^ ": group report") run.Ctx.rounds g.Engine.rounds
      | _ -> Alcotest.failf "%s: expected one group" what)
    [
      Engine.Norm_pow { p = 0.0; eps = 0.25 };
      Engine.Frob_norm { eps = 0.5 };
      Engine.Row_norms { p = 1.0; beta = 0.5 };
      Engine.Top_rows { p = 0.0; beta = 0.5; k = 3 };
      Engine.L0_sample { eps = 0.5; count = 2 };
      Engine.L0_sample { eps = 0.5; count = 0 };
      Engine.L1_sample { count = 2 };
      Engine.L1_sample { count = 0 };
      Engine.Heavy_hitters { phi = 0.2; eps = 0.1 };
      Engine.Linf { kappa = 2.0 };
      Engine.Exact_product;
    ]

(* The benchmark batch fuses 6 sequential rounds into 3, with Alice
   opening: hh's first two messages; then Bob: both lp sketches and hh's
   rows; then Alice: both lp samples, hh's last two messages and, started
   as late as it can, l0's two. An lp group (B, A) beside an l0 group (A)
   opens with Bob and keeps 2 rounds, where Alice opening would take 3. *)
let test_bench_batch_rounds () =
  (let a, b = gen_pair ~seed:2 ~n:20 in
   let run =
     run_batch ~seed:2 ~a ~b
       (lp_batch @ [ Engine.L0_sample { eps = 0.5; count = 1 } ])
   in
   check Alcotest.int "lp + l0 rounds" 2 run.Ctx.rounds;
   match Transcript.messages run.Ctx.transcript with
   | m :: _ -> check Alcotest.bool "Bob opens" true (m.Transcript.sender = Transcript.Bob)
   | [] -> Alcotest.fail "no messages");
  let a, b = bench_pair () in
  let run = run_batch ~seed:bench_seed ~a ~b (bench_queries ()) in
  check Alcotest.int "fused rounds" 3 run.Ctx.rounds;
  check
    (Alcotest.list Alcotest.int)
    "per-group own rounds" [ 2; 2; 1; 3 ]
    (List.map (fun g -> g.Engine.rounds) run.Ctx.output.Engine.groups);
  check Alcotest.string "speakers" "AABBBAAAAAA"
    (String.concat ""
       (List.map
          (fun m ->
            match m.Transcript.sender with Transcript.Alice -> "A" | Bob -> "B")
          (Transcript.messages run.Ctx.transcript)))

(* Suspended groups keep their observability: counters land in their
   group-<family> scope, every span a group opens has that group's
   engine.group span as ancestor, and group spans exclude their waits, so
   they never sum past the batch span. *)
let test_fused_observability () =
  let a, b = bench_pair () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Trace.enable ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  ignore (run_batch ~seed:bench_seed ~a ~b (bench_queries ()));
  let messages = Metrics.counter "messages_sent" in
  List.iter
    (fun (fam, expected) ->
      check Alcotest.int ("messages in group-" ^ fam) expected
        (Metrics.in_scope ("group-" ^ fam) (fun () -> Metrics.value messages)))
    [ ("lp", 4); ("l0-sample", 2); ("heavy-hitters", 5) ];
  let spans = Trace.spans () in
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.id sp) spans;
  let rec group_of sp =
    if sp.Trace.name = "engine.group" then
      match List.assoc_opt "family" sp.Trace.attrs with
      | Some (Matprod_obs.Json.String f) -> Some f
      | _ -> None
    else Option.bind sp.Trace.parent (fun p -> group_of (Hashtbl.find by_id p))
  in
  let owner = [ ("lp_protocol.", "lp"); ("l0_sampling.", "l0-sample");
                ("hh_general.", "heavy-hitters") ] in
  let checked = ref 0 in
  List.iter
    (fun sp ->
      List.iter
        (fun (prefix, fam) ->
          if String.starts_with ~prefix sp.Trace.name then begin
            incr checked;
            check (Alcotest.option Alcotest.string)
              (sp.Trace.name ^ " under its group") (Some fam) (group_of sp)
          end)
        owner)
    spans;
  check Alcotest.bool "group spans seen" true (!checked >= 4);
  let dur name =
    List.fold_left
      (fun acc sp -> if sp.Trace.name = name then acc + sp.Trace.dur_ns else acc)
      0 spans
  in
  check Alcotest.bool "group spans sum within the batch span" true
    (dur "engine.group" <= dur "engine.batch")

(* ------------------------------------------------------------------ *)
(* Failure and resume inside a fused batch: a crash of either party at
   any message closes every span the run opened (the suspended groups
   are discontinued) and leaves no foreign metrics scope behind,
   ends in a typed error whenever the rule fires (and in the fault-free
   answers when the party never speaks again), and its journal prefix
   resumes to the full answers with exactly the prefix's bits replayed. *)
let test_fused_crash_resume () =
  let a, b = bench_pair () in
  let queries = bench_queries () in
  let body ctx = Engine.run (Engine.create ()) ctx ~a ~b queries in
  let seed = bench_seed in
  let base = Ctx.run ~seed body in
  let msgs = Array.of_list (Transcript.messages base.Ctx.transcript) in
  let count = Array.length msgs in
  let prefix_bits k =
    let acc = ref 0 in
    for i = 0 to k - 1 do
      acc := !acc + (8 * msgs.(i).Transcript.bytes)
    done;
    !acc
  in
  let speaks_from party k =
    Array.exists (fun m -> m.Transcript.sender = party) (Array.sub msgs k (count - k))
  in
  Metrics.set_enabled true;
  Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ();
      Trace.disable ();
      Trace.reset ())
  @@ fun () ->
  let path = Filename.temp_file "matprod_fused" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Trace.with_span ~name:"test.outer" @@ fun () ->
  Metrics.in_scope "test-outer" @@ fun () ->
  let depth0 = Trace.depth () and scope0 = Metrics.current_scope () in
  List.iter
    (fun party ->
      for k = 0 to count - 1 do
        let what =
          Printf.sprintf "%s crashes at %d" (Transcript.party_name party) k
        in
        Trace.reset ();
        let crashed =
          Ctx.run_journaled ~seed ~journal:path ~protocol:"serve" (fun ctx ->
              Ctx.install_wire ctx
                ~fault:(crash ~party ~after:k)
                ();
              Outcome.capture ctx (fun () -> body ctx))
        in
        check Alcotest.int (what ^ ": trace depth") depth0 (Trace.depth ());
        check Alcotest.bool (what ^ ": metrics scope") true
          (Metrics.current_scope () == scope0);
        (* Span ids are handed out in start order and spans are
           recorded when they close: a gap is a span left open. *)
        let ids = List.map (fun sp -> sp.Trace.id) (Trace.spans ()) in
        List.iteri
          (fun i id ->
            if id <> List.hd ids + i then
              Alcotest.failf "%s: span %d never closed" what (List.hd ids + i))
          ids;
        match crashed.Ctx.output with
        | Ok (rep, _) ->
            if speaks_from party k then Alcotest.failf "%s: answered" what;
            if rep.Engine.answers <> base.Ctx.output.Engine.answers then
              Alcotest.failf "%s: a run the rule never hit answered wrong" what
        | Error (Outcome.Crashed { after_messages; _ }) ->
            let journal =
              match Journal.load path with
              | Ok j -> j
              | Error e -> Alcotest.failf "%s: journal unreadable: %s" what e
            in
            check Alcotest.int (what ^ ": journaled prefix") after_messages
              (List.length journal.Journal.entries);
            let resumed = Ctx.resume ~seed ~journal body in
            if resumed.Ctx.output.Engine.answers <> base.Ctx.output.Engine.answers
            then Alcotest.failf "%s: resumed answers differ" what;
            check Alcotest.int (what ^ ": replayed = prefix bits")
              (prefix_bits after_messages) resumed.Ctx.replayed_bits;
            check Alcotest.int (what ^ ": fresh + replayed = fault-free")
              base.Ctx.bits
              (resumed.Ctx.bits + resumed.Ctx.replayed_bits)
        | Error e ->
            Alcotest.failf "%s: wrong error: %s" what (Outcome.error_to_string e)
      done)
    [ Transcript.Alice; Transcript.Bob ]

(* A version-2 journal of the benchmark batch — the same messages, with
   every ℓ0 column sketch dense, as version 2 shipped them — is refused.
   Rebuilt from this batch's journal, it is byte for byte the golden
   journal pinned before the sketches shipped in their shorter form, so
   that message's encoding is the only byte the format moved. Under a
   version-3 header the same log would diverge at that message. *)
let test_v2_journal_refused () =
  let module Codec = Matprod_comm.Codec in
  let a, b = bench_pair () in
  let queries = bench_queries () in
  let path = Filename.temp_file "matprod_v2" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  ignore
    (Ctx.run_journaled ~seed:bench_seed ~journal:path ~protocol:"serve"
       (fun ctx -> Engine.run (Engine.create ()) ctx ~a ~b queries));
  let entries =
    match Journal.load path with
    | Ok j -> j.Journal.entries
    | Error e -> Alcotest.failf "journal unreadable: %s" e
  in
  (* the benchmark pair's ℓ0 sketch has 4032 cells *)
  let shorter = Codec.array (Codec.shorter_uint_array ~length:4032) in
  let dense = Codec.array Codec.sparse_uint_array in
  let entries =
    List.map
      (fun (e : Journal.entry) ->
        if e.label <> "l0 sketches of A cols" then e
        else
          { e with payload = Codec.encode dense (Codec.decode shorter e.payload) })
      entries
  in
  let v3 = Journal.to_bytes ~protocol:"serve" ~seed:bench_seed entries in
  let v2 = Bytes.of_string v3 in
  Bytes.set v2 4 '\002';
  let v2 = Bytes.to_string v2 in
  check Alcotest.int "version-2 length" 721_974 (String.length v2);
  check Alcotest.string "version-2 crc32" "0x9cb1ed5d"
    (Printf.sprintf "0x%08x" (Reliable.crc32 v2));
  (match Journal.of_bytes v2 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a version-2 journal was accepted");
  match Journal.of_bytes v3 with
  | Error e -> Alcotest.failf "version-3 header refused: %s" e
  | Ok journal -> (
      match
        Outcome.guard (fun () ->
            Ctx.resume ~seed:bench_seed ~journal (fun ctx ->
                Engine.run (Engine.create ()) ctx ~a ~b queries))
      with
      | Error (Outcome.Protocol_failure m)
        when String.starts_with ~prefix:"journal replay mismatch" m ->
          ()
      | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e)
      | Ok _ -> Alcotest.fail "dense ℓ0 sketches replayed under version 3")

(* Engine.run under Outcome.capture: typed errors on a dead wire, clean
   passthrough otherwise. *)
let test_run_safe () =
  let seed = 19 in
  let a, b = gen_pair ~seed ~n:16 in
  let crashed =
    Ctx.run ~seed (fun ctx ->
        Ctx.install_wire ctx
          ~fault:(crash ~party:Transcript.Bob ~after:0)
          ~reliable:(Reliable.config ~max_attempts:3 ())
          ();
        Outcome.capture ctx (fun () ->
            Engine.run (Engine.create ()) ctx ~a ~b lp_batch))
  in
  (match crashed.Ctx.output with
  | Error (Outcome.Crashed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e)
  | Ok _ -> Alcotest.fail "batch over a dead wire cannot succeed");
  let clean =
    Ctx.run ~seed (fun ctx ->
        Outcome.capture ctx (fun () ->
            Engine.run (Engine.create ()) ctx ~a ~b lp_batch))
  in
  match clean.Ctx.output with
  | Ok (rep, diag) ->
      check Alcotest.int "diagnostics bill the batch" rep.Engine.total_bits
        diag.Outcome.bits;
      let base = (run_batch ~seed ~a ~b lp_batch).Ctx.output in
      if rep.Engine.answers <> base.Engine.answers then
        Alcotest.fail "captured answers differ from run"
  | Error e -> Alcotest.failf "clean captured run failed: %s" (Outcome.error_to_string e)

(* Degenerate batches. *)
let test_edge_cases () =
  let a, b = gen_pair ~seed:23 ~n:12 in
  (match run_batch ~seed:23 ~a ~b [] with
  | _ -> Alcotest.fail "empty batch must be rejected"
  | exception Invalid_argument _ -> ());
  let rep =
    (run_batch ~seed:23 ~a ~b [ Engine.L0_sample { eps = 0.5; count = 0 } ])
      .Ctx.output
  in
  (match rep.Engine.answers.(0) with
  | Engine.L0_samples [||] -> ()
  | _ -> Alcotest.fail "count 0 should answer an empty slice");
  check Alcotest.int "count 0 costs nothing" 0 rep.Engine.total_bits;
  (* Duplicate queries: answered once, identical answers. *)
  let q = Engine.Norm_pow { p = 0.0; eps = 0.25 } in
  let dup = (run_batch ~seed:23 ~a ~b [ q; q ]).Ctx.output in
  check Alcotest.int "duplicates share a group" 1 (List.length dup.Engine.groups);
  if dup.Engine.answers.(0) <> dup.Engine.answers.(1) then
    Alcotest.fail "duplicate queries must get the same answer"

(* Query-spec grammar: canonical strings round-trip, junk is typed. *)
let test_query_specs () =
  List.iter
    (fun q ->
      match Engine.query_of_string (Engine.query_to_string q) with
      | Ok q' when q' = q -> ()
      | Ok _ ->
          Alcotest.failf "%s did not round-trip" (Engine.query_to_string q)
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e)
    (mixed_batch @ [ Engine.Linf { kappa = 4.0 } ]);
  List.iter
    (fun spec ->
      match Engine.query_of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" spec)
    [ "norms"; "norm:q=1"; "top:k=three"; "l0:eps"; "exact:p=1";
      "l0:count=-4"; "l1:count=-1"; "top:k=-3" ];
  match Engine.query_of_string "top:k=7" with
  | Ok (Engine.Top_rows { k = 7; _ }) -> ()
  | _ -> Alcotest.fail "defaults should fill unset keys"

(* A batch asking for more than [max_batch_samples] samples in total is a
   typed precondition before any message is sent; at the bound it runs. *)
let test_sample_budget () =
  let a, b = gen_pair ~seed:3 ~n:12 in
  let run queries = Outcome.guard (fun () -> run_batch ~seed:3 ~a ~b queries) in
  let m = Engine.max_batch_samples in
  (match
     run
       [ Engine.L0_sample { eps = 0.5; count = m }; Engine.L1_sample { count = 1 } ]
   with
  | Error (Outcome.Precondition _) -> ()
  | Ok _ -> Alcotest.fail "an oversized batch was run"
  | Error e -> Alcotest.failf "wrong error: %s" (Outcome.error_to_string e));
  (match run [ Engine.L1_sample { count = -1 } ] with
  | Error (Outcome.Precondition _) -> ()
  | _ -> Alcotest.fail "a negative count was not a precondition");
  match run [ Engine.L0_sample { eps = 0.5; count = 1 } ] with
  | Ok r ->
      check Alcotest.int "one answer" 1 (Array.length r.Ctx.output.Engine.answers)
  | Error e -> Alcotest.failf "in-budget batch: %s" (Outcome.error_to_string e)

(* A tiny accuracy would size a sketch past memory: such a query is a
   typed precondition before anything is allocated or sent, while a zero
   count (nothing to sketch) and the default accuracies still run. *)
let test_sketch_budget () =
  let a, b = gen_pair ~seed:3 ~n:32 in
  let spec s = Result.get_ok (Engine.query_of_string s) in
  let run s = Outcome.guard (fun () -> run_batch ~seed:3 ~a ~b [ spec s ]) in
  List.iter
    (fun s ->
      match run s with
      | Error (Outcome.Precondition _) -> ()
      | Ok _ -> Alcotest.failf "%s ran past the sketch budget" s
      | Error e -> Alcotest.failf "%s: wrong error %s" s (Outcome.error_to_string e))
    [ "top:beta=0.0001,k=2"; "rows:beta=0.0001"; "l0:eps=0.0001";
      "frob:eps=0.0001"; "norm:eps=0.00001" ];
  List.iter
    (fun s ->
      match run s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" s (Outcome.error_to_string e))
    [ "l0:eps=0.0001,count=0"; "top:k=3"; "rows:beta=0.5"; "l0:count=1";
      "frob:eps=0.5"; "norm:eps=0.25" ]

(* Each query kind's answer contract, pinned: the fleet verifies and
   merges batch answers by these alone. *)
let test_contracts () =
  let pinned =
    [
      ( Engine.Norm_pow { p = 0.0; eps = 0.25 },
        Estimator.Approx
          { stat = Estimator.Norm0 { times = 1.0 }; slack = 3.0; ratio = 1.0 } );
      ( Engine.Frob_norm { eps = 0.5 },
        Estimator.Approx { stat = Estimator.Frob; slack = 8.0; ratio = 1.0 } );
      ( Engine.Row_norms { p = 2.0; beta = 0.5 },
        Estimator.Per_row { stat = Estimator.Frob; slack = 4.0 } );
      ( Engine.Top_rows { p = 1.0; beta = 0.5; k = 3 },
        Estimator.Top_k { stat = Estimator.Norm1; slack = 4.0; k = 3 } );
      (Engine.L0_sample { eps = 0.5; count = 2 }, Estimator.L0_draw);
      (Engine.L1_sample { count = 1 }, Estimator.L1_draw);
      ( Engine.Heavy_hitters { phi = 0.2; eps = 0.1 },
        Estimator.Heavy_hitters { phi = 0.2; eps = 0.1 } );
      ( Engine.Linf { kappa = 4.0 },
        Estimator.Approx
          { stat = Estimator.Norm_inf { kappa = 4.0 }; slack = 2.0; ratio = 1.0 } );
      (Engine.Exact_product, Estimator.Product_shares);
    ]
  in
  List.iter
    (fun (q, c) ->
      check Alcotest.bool (Engine.query_to_string q) true (Engine.contract q = c))
    pinned;
  (* the middle and upper p bands of a norm query *)
  check Alcotest.bool "norm p=1" true
    (Engine.contract (Engine.Norm_pow { p = 1.0; eps = 0.5 })
    = Estimator.Approx { stat = Estimator.Norm1; slack = 4.0; ratio = 1.0 });
  check Alcotest.bool "norm p=2" true
    (Engine.contract (Engine.Norm_pow { p = 2.0; eps = 0.5 })
    = Estimator.Approx { stat = Estimator.Frob; slack = 8.0; ratio = 1.0 })

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "batched = sequential" `Quick
            test_batched_equals_sequential;
          Alcotest.test_case "merged samples concatenate" `Quick
            test_sample_concatenation;
          Alcotest.test_case "sample slicing" `Quick test_sample_slicing;
        ] );
      ( "savings",
        [ Alcotest.test_case "batch strictly cheaper" `Quick test_bit_savings ]
      );
      ( "plan cache",
        [
          Alcotest.test_case "hit/miss counters" `Quick test_plan_cache_counters;
          Alcotest.test_case "hits are invisible" `Quick
            test_plan_cache_soundness;
          Alcotest.test_case "one seed held" `Quick test_one_seed_held;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "journal resume mid-batch" `Quick
            test_journal_resume_mid_batch;
          Alcotest.test_case "run_safe trichotomy" `Quick test_run_safe;
        ] );
      ( "edges",
        [
          Alcotest.test_case "degenerate batches" `Quick test_edge_cases;
          Alcotest.test_case "query specs" `Quick test_query_specs;
          Alcotest.test_case "sample budget" `Quick test_sample_budget;
          Alcotest.test_case "sketch budget" `Quick test_sketch_budget;
          Alcotest.test_case "answer contracts" `Quick test_contracts;
        ] );
      ( "fused rounds",
        [
          QCheck_alcotest.to_alcotest qcheck_fused_oracle;
          Alcotest.test_case "declared = measured turns" `Quick
            test_declared_turns;
          Alcotest.test_case "benchmark batch 6 -> 3 rounds" `Quick
            test_bench_batch_rounds;
          Alcotest.test_case "per-group observability" `Quick
            test_fused_observability;
          Alcotest.test_case "crash and resume at every message" `Quick
            test_fused_crash_resume;
        ] );
      ( "wire",
        [
          Alcotest.test_case "golden journal bytes" `Quick
            test_golden_journal_bytes;
          Alcotest.test_case "version-2 journal refused" `Quick
            test_v2_journal_refused;
        ] );
    ]
