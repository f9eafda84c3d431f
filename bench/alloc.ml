(* The allocation of perfbench's fleet-verify batch (96x96 boolean,
   density 0.05, its six queries, 4 workers, verify on) at one domain, as
   exact counts: Gc counters around 20 batches after a warm-up one, on one
   engine, as perfbench runs them. Gc counts the calling domain only, so
   the pool stays at one domain. It also prints the words still reachable
   from the engine after those batches, which is what a long-lived engine
   keeps between batches. The counts are the same on every run; CI runs
   it under MATPROD_OBS_FAKE_CLOCK, which freezes every timing, and fails
   when minor + major words per batch or the retained words pass their
   ceilings:

     MATPROD_OBS_FAKE_CLOCK=1 dune exec bench/alloc.exe *)

module Prng = Matprod_util.Prng
module Engine = Matprod_engine.Engine
module Fleet = Matprod_topology.Fleet
module Workload = Matprod_workload.Workload

let n = 96
let batches = 20

let () =
  let queries =
    List.map
      (fun s -> match Engine.query_of_string s with Ok q -> q | Error e -> failwith e)
      [ "norm:eps=0.25"; "norm:p=1,eps=0.25"; "top:k=3"; "rows:beta=0.5";
        "l0:count=1"; "hh:phi=0.05" ]
  in
  let root = Prng.create 1 in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  let a = Workload.uniform_bool rng_a ~rows:n ~cols:n ~density:0.05 in
  let b = Workload.uniform_bool rng_b ~rows:n ~cols:n ~density:0.05 in
  let engine = Engine.create () in
  let batch i =
    let seed = Prng.fresh_seed (Prng.derive 1 i 0xf1ee7) in
    match
      Fleet.run_batch (Fleet.config ~verify:true ~replicas:1 ~workers:4 ~seed ()) engine
        queries ~a ~b
    with
    | Ok _ -> ()
    | Error e -> failwith (Matprod_core.Outcome.error_to_string e)
  in
  batch 0;
  let minor0, promoted0, major0 = Gc.counters () in
  for i = 1 to batches do
    batch i
  done;
  let minor1, promoted1, major1 = Gc.counters () in
  Printf.printf
    "fleet-verify batch at 1 domain, words per batch over %d batches:\n\
    \  minor %.0f\n\
    \  major %.0f (promoted %.0f, allocated there directly %.0f)\n\
     words reachable from the engine after them: %d\n"
    batches
    ((minor1 -. minor0) /. float_of_int batches)
    ((major1 -. major0) /. float_of_int batches)
    ((promoted1 -. promoted0) /. float_of_int batches)
    ((major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int batches)
    (Obj.reachable_words (Obj.repr engine))
