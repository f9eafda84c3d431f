(* A lazily-spawned pool of worker domains for embarrassingly parallel
   row fan-out (docs/PERFORMANCE.md).

   Design constraints, in order:
   - determinism: results are written into their index slot, so the output
     of [init]/[parallel_for] is independent of the schedule. Callers must
     pass closures that are pure with respect to shared state (the planned
     sketch kernels are: plans are read-only tables).
   - zero cost at size 1: the default pool size is 1 and every entry point
     short-circuits to the plain sequential loop, so single-domain runs
     execute exactly the code they always did.
   - lazy spawning: worker domains are spawned on the first parallel call,
     never at module load, and persist for the process lifetime. *)

let requested = ref 1

let set_size n =
  if n < 1 then invalid_arg "Pool.set_size: need >= 1";
  requested := n

let size () = !requested

(* One job at a time: the pool is driven from the main domain only. Chunks
   of the index space are handed out through an atomic cursor, so load
   balancing is dynamic but the output layout is fixed. *)
type job = {
  f : int -> unit;
  n : int;
  chunk : int;
  next : int Atomic.t;
  mutable pending : int; (* workers that have not finished this job *)
  mutable err : exn option; (* first exception raised by any domain *)
}

let m = Mutex.create ()
let cv = Condition.create ()
let current : job option ref = ref None
let generation = ref 0
let spawned = ref 0
let stopping = ref false
let handles : unit Domain.t list ref = ref []

let record_error job e =
  Mutex.lock m;
  if job.err = None then job.err <- Some e;
  Mutex.unlock m;
  (* Drain the cursor so every domain stops grabbing work promptly. *)
  Atomic.set job.next job.n

let run_chunks job =
  let rec go () =
    let lo = Atomic.fetch_and_add job.next job.chunk in
    if lo < job.n then begin
      let hi = min job.n (lo + job.chunk) in
      (try
         for i = lo to hi - 1 do
           job.f i
         done
       with e -> record_error job e);
      go ()
    end
  in
  go ()

let worker_loop g0 =
  (* [g0] is the generation at spawn time: a worker born while earlier
     jobs have already run must wait for the NEXT published job, not wake
     on the stale generation gap and find [current = None]. *)
  let seen = ref g0 in
  let rec loop () =
    Mutex.lock m;
    while !generation = !seen && not !stopping do
      Condition.wait cv m
    done;
    if !stopping then Mutex.unlock m (* drain: fall off the loop *)
    else begin
      seen := !generation;
      let job = Option.get !current in
      Mutex.unlock m;
      (try run_chunks job with e -> record_error job e);
      Mutex.lock m;
      job.pending <- job.pending - 1;
      if job.pending = 0 then Condition.broadcast cv;
      Mutex.unlock m;
      loop ()
    end
  in
  loop ()

(* Workers park until a job is published or {!shutdown} drains them. Spawn
   only the deficit, so growing the size later tops the pool up. The
   generation is read under the lock so every new worker joins at a
   well-defined point strictly before the next job is published. *)
let ensure_workers want =
  if !spawned < want then begin
    Mutex.lock m;
    let g0 = !generation in
    Mutex.unlock m;
    while !spawned < want do
      handles := Domain.spawn (fun () -> worker_loop g0) :: !handles;
      incr spawned
    done
  end

(* Drain and join every worker. Driven from the main domain like every
   other entry point, so it cannot race a running [parallel_for]; a later
   parallel call simply respawns a fresh pool. *)
let shutdown () =
  if !spawned > 0 then begin
    Mutex.lock m;
    stopping := true;
    Condition.broadcast cv;
    Mutex.unlock m;
    List.iter Domain.join !handles;
    handles := [];
    spawned := 0;
    Mutex.lock m;
    stopping := false;
    Mutex.unlock m
  end

let parallel_for n f =
  if n < 0 then invalid_arg "Pool.parallel_for: negative count";
  let d = size () in
  if d <= 1 || n <= 1 then
    for i = 0 to n - 1 do
      f i
    done
  else begin
    ensure_workers (d - 1);
    (* ~8 chunks per worker keeps load balancing dynamic, but a floor of
       32 stops short jobs from degenerating into per-item handouts: at
       protocol fan-out sizes (hundreds of rows, a few µs each) tiny
       chunks spend more time on the atomic cursor and wake-ups than on
       rows (bench P1, pool fan-out). *)
    let chunk = max 32 (n / ((!spawned + 1) * 8)) in
    let job = { f; n; chunk; next = Atomic.make 0; pending = 0; err = None } in
    Mutex.lock m;
    current := Some job;
    job.pending <- !spawned;
    incr generation;
    Condition.broadcast cv;
    Mutex.unlock m;
    run_chunks job;
    Mutex.lock m;
    while job.pending > 0 do
      Condition.wait cv m
    done;
    current := None;
    Mutex.unlock m;
    match job.err with Some e -> raise e | None -> ()
  end

let init n f =
  if n < 0 then invalid_arg "Pool.init: negative count"
  else if n = 0 then [||]
  else if size () <= 1 || n = 1 then Array.init n f
  else begin
    (* Slot 0 is computed up front to seed the result array; the remaining
       slots are filled in parallel, each at its own index, so the array
       is elementwise identical to [Array.init n f]. *)
    let out = Array.make n (f 0) in
    parallel_for (n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let map_sum n f =
  let parts = init n f in
  Array.fold_left ( +. ) 0.0 parts
