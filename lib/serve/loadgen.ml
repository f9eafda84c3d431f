module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Clock = Matprod_obs.Clock
module Reliable = Matprod_comm.Reliable

type report = {
  connections : int;
  batches_per_connection : int;
  queries_per_batch : int;
  queries : int;
  answered : int;
  errors : int;
  in_flight : int;
  elapsed_ns : int;
  qps : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  bits : int;
  replayed_bits : int;
  digest : int;
}

(* Reusable rendezvous: all [parties] threads must arrive before any
   proceeds. Threads that fail mid-phase still call [wait] (see the
   worker loop), so a lost connection can't wedge the whole run. *)
module Barrier = struct
  type t = {
    m : Mutex.t;
    cv : Condition.t;
    parties : int;
    mutable count : int;
    mutable phase : int;
  }

  let create parties =
    { m = Mutex.create (); cv = Condition.create (); parties; count = 0;
      phase = 0 }

  let wait b =
    Mutex.lock b.m;
    let ph = b.phase in
    b.count <- b.count + 1;
    if b.count = b.parties then begin
      b.count <- 0;
      b.phase <- ph + 1;
      Condition.broadcast b.cv
    end
    else while b.phase = ph do Condition.wait b.cv b.m done;
    Mutex.unlock b.m
end

(* One connection's tally, merged after join. *)
type worker = {
  mutable ok : bool;  (* connected, pair ready *)
  mutable sent : int;  (* batches actually written *)
  mutable w_answered : int;
  mutable w_errors : int;
  mutable w_bits : int;
  mutable w_replayed : int;
  mutable w_digest : int;
  mutable t_first : int;  (* first send *)
  mutable t_last : int;  (* last answer *)
  mutable latencies : int list;  (* one entry per answered query *)
}

let digest_mask = (1 lsl 30) - 1

let run ?(host = "127.0.0.1") ~port ~connections ~batches ~queries ~n ~density
    ~seed ~specs () =
  if connections < 1 || batches < 1 || queries < 1 then
    invalid_arg "Loadgen.run: counts must be positive";
  if specs = [] then invalid_arg "Loadgen.run: no query specs";
  let base = Array.of_list specs in
  let batch_specs =
    Array.to_list
      (Array.init queries (fun i -> base.(i mod Array.length base)))
  in
  let pair = "w" in
  let submitted = Atomic.make 0 in
  let peak = Atomic.make 0 in
  (* Rendezvous points: [ready] (everyone connected, pair generated),
     [sent] (every batch of every connection is on the wire, nothing read
     yet — the peak-in-flight measurement window), [measured] (reads may
     begin). *)
  let ready = Barrier.create connections in
  let sent = Barrier.create connections in
  let measured = Barrier.create connections in
  let workers =
    Array.init connections (fun _ ->
        {
          ok = false;
          sent = 0;
          w_answered = 0;
          w_errors = 0;
          w_bits = 0;
          w_replayed = 0;
          w_digest = 0;
          t_first = 0;
          t_last = 0;
          latencies = [];
        })
  in
  let body ci =
    let w = workers.(ci) in
    let session_seed = Prng.fresh_seed (Prng.derive seed ci 0x10ad) in
    let client =
      try
        let c = Client.connect ~host ~port ~session_seed () in
        match Client.gen c ~name:pair ~n ~density ~seed ~zipf:false with
        | Ok _ ->
            w.ok <- true;
            Some c
        | Error _ ->
            Client.close c;
            None
      with _ -> None
    in
    Barrier.wait ready;
    let send_ns = Array.make batches 0 in
    (match client with
    | Some c -> (
        try
          for bi = 0 to batches - 1 do
            send_ns.(bi) <- Clock.now_ns ();
            if bi = 0 then w.t_first <- send_ns.(bi);
            Client.send c
              (Proto.Batch { id = bi; pair; specs = batch_specs });
            w.sent <- bi + 1;
            ignore (Atomic.fetch_and_add submitted queries : int)
          done
        with _ -> ())
    | None -> ());
    Barrier.wait sent;
    (* Every connection has finished writing and none has read: the
       backlog visible right now is the true concurrent in-flight load. *)
    let rec bump () =
      let cur = Atomic.get peak in
      let cand = Atomic.get submitted in
      if cand > cur && not (Atomic.compare_and_set peak cur cand) then bump ()
    in
    bump ();
    Barrier.wait measured;
    (match client with
    | Some c ->
        (try
           for bi = 0 to w.sent - 1 do
             let raw = Client.response_raw c in
             let now = Clock.now_ns () in
             w.t_last <- now;
             let lat =
               max 0 (now - send_ns.(bi))
             in
             w.w_digest <- (w.w_digest + Reliable.crc32 raw) land digest_mask;
             match Proto.decode_response raw with
             | Proto.Answers { bits; replayed_bits; answers; _ } ->
                 let k = List.length answers in
                 w.w_answered <- w.w_answered + k;
                 w.w_bits <- w.w_bits + bits;
                 w.w_replayed <- w.w_replayed + replayed_bits;
                 for _ = 1 to k do w.latencies <- lat :: w.latencies done
             | Proto.Err _ | Proto.Welcome _ | Proto.Ready _ ->
                 w.w_errors <- w.w_errors + queries
           done
         with _ -> ());
        Client.quit c
    | None -> ())
  in
  let threads =
    Array.init connections (fun ci -> Thread.create body ci)
  in
  Array.iter Thread.join threads;
  let answered = Array.fold_left (fun a w -> a + w.w_answered) 0 workers in
  (* Everything submitted-or-owed that never came back as an answer is an
     error: Err batches, batches lost to a dead connection, batches a
     failed worker never sent. *)
  let errors = (connections * batches * queries) - answered in
  let bits = Array.fold_left (fun a w -> a + w.w_bits) 0 workers in
  let replayed_bits =
    Array.fold_left (fun a w -> a + w.w_replayed) 0 workers
  in
  let digest =
    Array.fold_left (fun a w -> (a + w.w_digest) land digest_mask) 0 workers
  in
  let lats =
    Array.of_list
      (List.concat_map
         (fun w -> List.map float_of_int w.latencies)
         (Array.to_list workers))
  in
  let percentile q =
    if lats = [||] then 0 else int_of_float (Stats.quantile lats q)
  in
  let t_first =
    Array.fold_left
      (fun a w -> if w.ok && w.t_first <> 0 && (a = 0 || w.t_first < a)
                  then w.t_first else a)
      0 workers
  in
  let t_last =
    Array.fold_left
      (fun a w -> if w.t_last > a then w.t_last else a)
      0 workers
  in
  let elapsed_ns = max 0 (t_last - t_first) in
  let qps =
    if elapsed_ns > 0 then
      float_of_int answered /. (float_of_int elapsed_ns /. 1e9)
    else 0.0
  in
  {
    connections;
    batches_per_connection = batches;
    queries_per_batch = queries;
    queries = connections * batches * queries;
    answered;
    errors;
    in_flight = Atomic.get peak;
    elapsed_ns;
    qps;
    p50_ns = percentile 0.50;
    p90_ns = percentile 0.90;
    p99_ns = percentile 0.99;
    bits;
    replayed_bits;
    digest;
  }
