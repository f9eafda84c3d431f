module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Ctx = Matprod_comm.Ctx
module Transcript = Matprod_comm.Transcript
module Lp = Matprod_sketch.Lp
module Srht = Matprod_sketch.Srht
module Obs = Matprod_obs
module Common = Matprod_core.Common
module Lp_protocol = Matprod_core.Lp_protocol
module Frobenius = Matprod_core.Frobenius
module L0_sampling = Matprod_core.L0_sampling
module L1_sampling = Matprod_core.L1_sampling
module Hh_general = Matprod_core.Hh_general
module Linf_general = Matprod_core.Linf_general
module Matprod_protocol = Matprod_core.Matprod_protocol
module Entry_map = Matprod_core.Common.Entry_map
module Estimator = Matprod_core.Estimator

type query =
  | Norm_pow of { p : float; eps : float }
  | Frob_norm of { eps : float }
  | Row_norms of { p : float; beta : float }
  | Top_rows of { p : float; beta : float; k : int }
  | L0_sample of { eps : float; count : int }
  | L1_sample of { count : int }
  | Heavy_hitters of { phi : float; eps : float }
  | Linf of { kappa : float }
  | Exact_product

type answer = Estimator.answer =
  | Scalar of float
  | Vector of float array
  | Ranked of (int * float) list
  | Entry_set of (int * int) list
  | L0_samples of L0_sampling.sample option array
  | L1_samples of L1_sampling.sample option array
  | Shares of (int * int * int) list * (int * int * int) list
  | Leveled of float * int

(* Batch replicas at the fleet seed agree exactly, hence ratio 1. *)
let contract : query -> Estimator.contract = function
  | Norm_pow { p; eps } ->
      let slack = 2.0 +. (4.0 *. eps) in
      if p < 0.5 then Approx { stat = Norm0 { times = 1.0 }; slack; ratio = 1.0 }
      else if p < 1.5 then Approx { stat = Norm1; slack; ratio = 1.0 }
      else Approx { stat = Frob; slack = slack *. 2.0; ratio = 1.0 }
  | Frob_norm { eps } ->
      Approx { stat = Frob; slack = (2.0 +. (4.0 *. eps)) *. 2.0; ratio = 1.0 }
  | Linf { kappa } -> Approx { stat = Norm_inf { kappa }; slack = 2.0; ratio = 1.0 }
  | Row_norms { p; _ } ->
      Per_row { stat = (if p < 1.5 then Norm1 else Frob); slack = 4.0 }
  | Top_rows { p; k; _ } ->
      Top_k { stat = (if p < 1.5 then Norm1 else Frob); slack = 4.0; k }
  | L0_sample _ -> L0_draw
  | L1_sample _ -> L1_draw
  | Heavy_hitters { phi; eps } -> Heavy_hitters { phi; eps }
  | Exact_product -> Product_shares

type plan_status = Plan_hit | Plan_miss | Not_planned

type group_report = {
  family : string;
  members : int list;
  bits : int;
  rounds : int;
  elapsed_ns : int;
  plan : plan_status;
}

type report = {
  answers : answer array;
  groups : group_report list;
  total_bits : int;
  total_rounds : int;
  plan_hits : int;
  plan_misses : int;
}

(* ------------------------------------------------------------------ *)
(* Held exchanges. An lp or frob group builds its sketch family (with the
   family's tabulated plan) from a Prng derived from (seed, tag) alone, and
   Bob's message is the encoded sketch of each row of B under that family:
   both are fixed by (tag, dim, seed), the message also by B. The engine
   holds them for the last ctx seed it ran at, keyed by (tag, dim), with
   the message of the last B it saw (by physical equality): the links of a
   fleet batch, which all run at one seed over one B, build the family and
   encode the message once. A run at any other seed drops everything
   first, so the engine keeps one seed's exchanges at most. *)

type 'f held = {
  family : 'f; (* the sketch family and its plan *)
  mutable b : Imat.t; (* the B [message] was encoded from *)
  mutable message : string;
}

type t = {
  mutable seed : int; (* the ctx seed of everything held *)
  lp : (string * int, (Lp.t * Lp.plan) held) Hashtbl.t;
  frob : (string * int, (Srht.t * Srht.plan) held) Hashtbl.t;
}

let create () = { seed = 0; lp = Hashtbl.create 4; frob = Hashtbl.create 4 }

let hit_counter = lazy (Obs.Metrics.counter "engine_plan_hits")
let miss_counter = lazy (Obs.Metrics.counter "engine_plan_misses")

(* The group's family and Bob's message over [b], from [held] or built. *)
let exchange held key ~b ~build ~encode =
  match Hashtbl.find_opt held key with
  | Some h ->
      Obs.Metrics.incr (Lazy.force hit_counter);
      if h.b != b then begin
        h.message <- encode h.family ~b;
        h.b <- b
      end;
      (h.family, h.message, Plan_hit)
  | None ->
      Obs.Metrics.incr (Lazy.force miss_counter);
      let family = build () in
      let message = encode family ~b in
      Hashtbl.replace held key { family; b; message };
      (family, message, Plan_miss)

(* ------------------------------------------------------------------ *)
(* Compilation: queries sharing a sketch family and shape collapse into
   one exchange group. *)

type gkey =
  | KLp of float (* p; the group runs at the finest beta any member needs *)
  | KFrob of float (* eps; SRHT family, one-round *)
  | KL0 of float (* eps *)
  | KL1
  | KHh of float * float (* phi, eps *)
  | KLinf of float (* kappa *)
  | KExact

let key_of = function
  | Norm_pow { p; _ } | Row_norms { p; _ } | Top_rows { p; _ } -> KLp p
  | Frob_norm { eps } -> KFrob eps
  | L0_sample { eps; _ } -> KL0 eps
  | L1_sample _ -> KL1
  | Heavy_hitters { phi; eps } -> KHh (phi, eps)
  | Linf { kappa } -> KLinf kappa
  | Exact_product -> KExact

let beta_of = function
  | Norm_pow { eps; _ } -> Float.min 1.0 (sqrt eps)
  | Row_norms { beta; _ } | Top_rows { beta; _ } -> beta
  | _ -> invalid_arg "Engine: beta_of"

(* Groups in first-occurrence order, members ascending. *)
let compile queries =
  let groups = ref [] in
  Array.iteri
    (fun i q ->
      let key = key_of q in
      match List.assoc_opt key !groups with
      | Some members -> members := i :: !members
      | None -> groups := !groups @ [ (key, ref [ i ]) ])
    queries;
  List.map (fun (key, members) -> (key, List.rev !members)) !groups

(* The speaking-turn effect: a group's context performs it before each
   send, so the group's fiber suspends there until the scheduler hands
   that party the turn. *)
type _ Effect.t += Turn : Transcript.party -> unit Effect.t

(* Every exchange group draws from streams derived purely from the context
   seed and the group's identity — never from the shared ctx streams — so
   messages are independent of batch composition and execution order. *)
let group_ctx ctx ~tag =
  let h = Hashtbl.hash tag in
  {
    ctx with
    Ctx.public = Prng.derive ctx.Ctx.seed h 1;
    alice = Prng.derive ctx.Ctx.seed h 2;
    bob = Prng.derive ctx.Ctx.seed h 3;
    turn = (fun party -> Effect.perform (Turn party));
  }

(* Who opens a query's group, and the speaking phases the group spends
   on its own. A group declares its family's opener and the largest of
   its members' phases: lp pays the sampling round only for a [Norm_pow]
   member, and a sample group with nothing to draw sends nothing. *)
let own_turns = function
  | Norm_pow _ -> (Transcript.Bob, 2)
  | Row_norms _ | Top_rows _ | Frob_norm _ -> (Bob, 1)
  | L0_sample { count; _ } -> (Alice, if count > 0 then 1 else 0)
  | L1_sample { count } -> (Alice, if count > 0 then 3 else 0)
  | Linf _ -> (Alice, 1)
  | Heavy_hitters _ | Exact_product -> (Alice, 3)

let family_label = function
  | KLp _ -> "lp"
  | KFrob _ -> "frobenius"
  | KL0 _ -> "l0-sample"
  | KL1 -> "l1-sample"
  | KHh _ -> "heavy-hitters"
  | KLinf _ -> "linf"
  | KExact -> "exact-product"

let lp_groups = 5 (* median-boosting groups, as Session/Lp_protocol *)
let rho_const = 200.0 (* round-2 sampling budget, as Lp_protocol defaults *)

(* Slice one merged multi-sample run back into per-member arrays. *)
let slice_counts samples counts =
  let off = ref 0 in
  List.map
    (fun count ->
      let part = Array.sub samples !off count in
      off := !off + count;
      part)
    counts

let exec_lp t ctx ~a ~b ~p ~members ~queries set =
  let beta =
    List.fold_left (fun acc i -> Float.min acc (beta_of queries.(i))) 1.0 members
  in
  if not (beta > 0.0) then invalid_arg "Engine: beta/eps must be positive";
  let tag = Printf.sprintf "lp(p=%g,beta=%g)" p beta in
  let gctx = group_ctx ctx ~tag in
  let dim = max 1 (Imat.cols b) in
  let (lp, _), message, status =
    exchange t.lp (tag, dim) ~b
      ~build:(fun () ->
        let rng = Prng.derive ctx.Ctx.seed (Hashtbl.hash tag) 4 in
        let lp = Lp.create rng ~p ~eps:beta ~groups:lp_groups ~dim in
        (lp, Lp.plan lp ~dim))
      ~encode:(fun (lp, plan) -> Lp_protocol.row_sketch_message lp plan)
  in
  let est =
    Lp_protocol.exchange_row_sketches gctx lp
      ~label:(Printf.sprintf "engine: lp sketches of B rows %s" tag)
      ~message ~a
    |> Array.map (Float.max 0.0)
  in
  (* One sampling round upgrades every norm query in the group to (1+beta²)
     ≤ (1+eps_i); row/top queries answer from the cached estimates free. *)
  let refined =
    if List.exists (fun i -> match queries.(i) with Norm_pow _ -> true | _ -> false) members
    then Some (Lp_protocol.round2 gctx ~p ~beta ~rho_const ~est ~a ~b)
    else None
  in
  List.iter
    (fun i ->
      set i
        (match queries.(i) with
        | Norm_pow _ -> Scalar (Option.get refined)
        | Row_norms _ -> Vector (Array.copy est)
        | Top_rows { k; _ } -> Ranked (Common.top_rows est ~k)
        | _ -> assert false))
    members;
  (tag, status)

let exec_frob t ctx ~a ~b ~eps ~members set =
  if not (eps > 0.0) then invalid_arg "Engine: eps must be positive";
  let tag = Printf.sprintf "frob(eps=%g)" eps in
  let gctx = group_ctx ctx ~tag in
  let dim = max 1 (Imat.cols b) in
  let (sk, _), message, status =
    exchange t.frob (tag, dim) ~b
      ~build:(fun () ->
        let rng = Prng.derive ctx.Ctx.seed (Hashtbl.hash tag) 4 in
        let sk = Srht.create rng ~eps ~groups:lp_groups ~dim in
        (sk, Srht.plan sk ~dim))
      ~encode:(fun (sk, plan) -> Frobenius.row_sketch_message sk plan)
  in
  let est = Frobenius.exchange_row_sketches gctx ~sk ~message ~a in
  List.iter (fun i -> set i (Scalar est)) members;
  (tag, status)

let exec_group t ctx ~a ~b ~key ~members ~queries set =
  match key with
  | KLp p -> exec_lp t ctx ~a ~b ~p ~members ~queries set
  | KFrob eps -> exec_frob t ctx ~a ~b ~eps ~members set
  | KL0 eps ->
      let tag = Printf.sprintf "l0-sample(eps=%g)" eps in
      let counts =
        List.map
          (fun i ->
            match queries.(i) with
            | L0_sample { count; _ } -> max 0 count
            | _ -> assert false)
          members
      in
      let total = List.fold_left ( + ) 0 counts in
      let samples =
        if total = 0 then [||]
        else
          L0_sampling.run_many (group_ctx ctx ~tag)
            (L0_sampling.default_params ~eps)
            ~count:total ~a ~b
      in
      List.iter2
        (fun i part -> set i (L0_samples part))
        members (slice_counts samples counts);
      (tag, Not_planned)
  | KL1 ->
      let tag = "l1-sample" in
      let counts =
        List.map
          (fun i ->
            match queries.(i) with
            | L1_sample { count } -> max 0 count
            | _ -> assert false)
          members
      in
      let total = List.fold_left ( + ) 0 counts in
      let samples =
        if total = 0 then [||]
        else L1_sampling.run_many (group_ctx ctx ~tag) ~count:total ~a ~b
      in
      List.iter2
        (fun i part -> set i (L1_samples part))
        members (slice_counts samples counts);
      (tag, Not_planned)
  | KHh (phi, eps) ->
      let tag = Printf.sprintf "heavy-hitters(phi=%g,eps=%g)" phi eps in
      let coords =
        Hh_general.run (group_ctx ctx ~tag)
          (Hh_general.default_params ~phi ~eps ())
          ~a ~b
      in
      List.iter (fun i -> set i (Entry_set coords)) members;
      (tag, Not_planned)
  | KLinf kappa ->
      let tag = Printf.sprintf "linf(kappa=%g)" kappa in
      let estimate =
        Linf_general.run (group_ctx ctx ~tag) { Linf_general.kappa } ~a ~b
      in
      List.iter (fun i -> set i (Scalar estimate)) members;
      (tag, Not_planned)
  | KExact ->
      let tag = "exact-product" in
      let shares = Matprod_protocol.run (group_ctx ctx ~tag) ~a ~b in
      let answer =
        Shares
          ( Entry_map.entries shares.Matprod_protocol.alice,
            Entry_map.entries shares.Matprod_protocol.bob )
      in
      List.iter (fun i -> set i answer) members;
      (tag, Not_planned)

(* ------------------------------------------------------------------ *)
(* The fused schedule. Each group runs as a fiber that suspends at every
   send ([Turn]). The opening speaker X minimises the fused round count
   R = max_i (k_i + [opener_i <> X]) over the groups' declared own turns
   (opener_i, k_i), ties to the first group's opener. The parties then
   take alternate turns 1..R; in a turn, every fiber due to that speaker
   runs, in group order, until it waits for the other party or finishes.
   A fiber is due once it waits for the speaker. Before it starts, it is
   due in its opener's turns from the latest one that still lets it end
   by turn R: a group starts as late as it can, so it holds its state
   for the fewest turns and builds each message right before sending it.
   The schedule decides only the interleaving: each group's own
   messages, and hence every answer and bit, are those of its singleton
   run. *)

type 'r step =
  | Ready of (unit -> 'r)
  | Wants of Transcript.party * (unit, 'r step) Effect.Deep.continuation
  | Finished of 'r
  | Raised of exn * Printexc.raw_backtrace

type 'r fiber = {
  opener : Transcript.party;
  declared : int; (* k_i *)
  mutable step : 'r step;
  (* What the fiber has open while it is suspended. *)
  mutable scope : Obs.Metrics.scope;
  mutable frames : Obs.Trace.frames;
  (* Its own share: running time, fresh bits, and the transcript index
     ranges [lo, hi) of the messages it sent, latest first. *)
  mutable run_ns : int;
  mutable bits : int;
  mutable sent : (int * int) list;
}

exception Cancelled

let handler =
  {
    Effect.Deep.retc = (fun r -> Finished r);
    exnc = (fun e -> Raised (e, Printexc.get_raw_backtrace ()));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Turn party ->
            Some (fun (k : (a, _) Effect.Deep.continuation) -> Wants (party, k))
        | _ -> None);
  }

(* Run [f] up to its next send (or its end) with its metrics scope and
   open spans in place, charging it the slice's time, bits and messages. *)
let advance tr ~base f resume =
  let outer = Obs.Metrics.current_scope () in
  Obs.Metrics.set_scope f.scope;
  Obs.Trace.attach f.frames;
  let m0 = Transcript.message_count tr and b0 = Transcript.total_bits tr in
  let t0 = Obs.Clock.now_ns () in
  let step = resume () in
  f.run_ns <- f.run_ns + Obs.Clock.elapsed_ns t0;
  f.bits <- f.bits + Transcript.total_bits tr - b0;
  let m1 = Transcript.message_count tr in
  if m1 > m0 then f.sent <- (m0, m1) :: f.sent;
  f.frames <- Obs.Trace.detach ~base;
  f.scope <- Obs.Metrics.current_scope ();
  Obs.Metrics.set_scope outer;
  f.step <- step

(* X and R; a batch that declares no message opens with Alice. *)
let opening fibers =
  match List.filter (fun f -> f.declared > 0) fibers with
  | [] -> (Transcript.Alice, 0)
  | first :: _ as speaking ->
      let rounds x =
        List.fold_left
          (fun acc f ->
            max acc (if f.opener = x then f.declared else f.declared + 1))
          0 speaking
      in
      let other = Transcript.other first.opener in
      if rounds other < rounds first.opener then (other, rounds other)
      else (first.opener, rounds first.opener)

(* Runs [((opener_i, k_i), body_i)] in group order to completion and
   returns the finished fibers. The first exception in schedule order
   wins: every other suspended fiber is discontinued in group order, so
   its finalisers run, and the exception is re-raised. *)
let schedule tr groups =
  let base = Obs.Trace.depth () in
  let scope = Obs.Metrics.current_scope () in
  let fibers =
    List.map
      (fun ((opener, declared), body) ->
        {
          opener;
          declared;
          step = Ready body;
          scope;
          frames = Obs.Trace.no_frames;
          run_ns = 0;
          bits = 0;
          sent = [];
        })
      groups
  in
  let rec cancel f =
    match f.step with
    | Wants (_, k) ->
        advance tr ~base f (fun () -> Effect.Deep.discontinue k Cancelled);
        cancel f
    | _ -> ()
  in
  let resume f =
    (match f.step with
    | Ready body ->
        advance tr ~base f (fun () -> Effect.Deep.match_with body () handler)
    | Wants (_, k) -> advance tr ~base f (fun () -> Effect.Deep.continue k ())
    | Finished _ | Raised _ -> ());
    match f.step with
    | Raised (e, bt) ->
        List.iter cancel fibers;
        Printexc.raise_with_backtrace e bt
    | _ -> ()
  in
  let x, rounds = opening fibers in
  let speaker t = if t mod 2 = 1 then x else Transcript.other x in
  let start f =
    let t = rounds - f.declared + 1 in
    if speaker t = f.opener then t else t - 1
  in
  let due t f =
    match f.step with
    | Ready _ -> speaker t = f.opener && t >= start f
    | Wants (p, _) -> speaker t = p
    | Finished _ | Raised _ -> false
  in
  let live f = match f.step with Ready _ | Wants _ -> true | _ -> false in
  let rec turn t =
    if List.exists live fibers then begin
      List.iter (fun f -> while due t f do resume f done) fibers;
      turn (t + 1)
    end
  in
  turn 1;
  fibers

(* Speaking phases of a fiber's own message subsequence. *)
let own_phases messages f =
  let phases = ref 0 and last = ref None in
  List.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        let s = Some (Lazy.force messages).(i).Transcript.sender in
        if s <> !last then begin
          incr phases;
          last := s
        end
      done)
    (List.rev f.sent);
  !phases

let query_to_string = function
  | Norm_pow { p; eps } -> Printf.sprintf "norm:p=%g,eps=%g" p eps
  | Frob_norm { eps } -> Printf.sprintf "frob:eps=%g" eps
  | Row_norms { p; beta } -> Printf.sprintf "rows:p=%g,beta=%g" p beta
  | Top_rows { p; beta; k } -> Printf.sprintf "top:p=%g,beta=%g,k=%d" p beta k
  | L0_sample { eps; count } -> Printf.sprintf "l0:eps=%g,count=%d" eps count
  | L1_sample { count } -> Printf.sprintf "l1:count=%d" count
  | Heavy_hitters { phi; eps } -> Printf.sprintf "hh:phi=%g,eps=%g" phi eps
  | Linf { kappa } -> Printf.sprintf "linf:kappa=%g" kappa
  | Exact_product -> "exact"

let max_batch_samples = 256

let max_sketch_cells = 1 lsl 22

(* Sketch counters a query's group asks for: one sketch per inner index,
   12/acc² counters per repetition group (the families' bucket rule; AMS
   and SRHT take 6, the l0 families that many per level). A tiny
   accuracy would exhaust memory before the first message. *)
let sketch_cells ~inner q =
  let cells ~groups acc = 12.0 /. (acc *. acc) *. float_of_int (groups * inner) in
  match q with
  | Norm_pow { eps; _ } -> cells ~groups:lp_groups (Float.min 1.0 (sqrt eps))
  | Row_norms { beta; _ } | Top_rows { beta; _ } -> cells ~groups:lp_groups beta
  | Frob_norm { eps } -> cells ~groups:lp_groups eps
  | L0_sample { eps; count } when count > 0 ->
      cells ~groups:(L0_sampling.default_params ~eps).sketch_groups eps
  | L0_sample _ | L1_sample _ | Heavy_hitters _ | Linf _ | Exact_product -> 0.0

let count_plans status groups =
  List.length (List.filter (fun g -> g.plan = status) groups)

let run t ctx ~a ~b queries =
  if queries = [] then invalid_arg "Engine.run: empty batch";
  if Imat.cols a <> Imat.rows b then invalid_arg "Engine.run: dims";
  List.iter
    (fun q ->
      if sketch_cells ~inner:(Imat.cols a) q > float_of_int max_sketch_cells then
        invalid_arg
          (Printf.sprintf "Engine.run: %s needs more than %d sketch cells"
             (query_to_string q) max_sketch_cells))
    queries;
  let samples =
    List.fold_left
      (fun total q ->
        match q with
        | L0_sample { count; _ } | L1_sample { count } ->
            if count < 0 then invalid_arg "Engine.run: negative sample count";
            total + count
        | _ -> total)
      0 queries
  in
  if samples > max_batch_samples then
    invalid_arg
      (Printf.sprintf "Engine.run: %d samples in one batch, at most %d" samples
         max_batch_samples);
  let queries = Array.of_list queries in
  let answers = Array.make (Array.length queries) None in
  let set i ans = answers.(i) <- Some ans in
  if ctx.Ctx.seed <> t.seed then begin
    Hashtbl.reset t.lp;
    Hashtbl.reset t.frob;
    t.seed <- ctx.Ctx.seed
  end;
  let tr = Ctx.transcript ctx in
  let bits0 = Transcript.total_bits tr and rounds0 = Transcript.rounds tr in
  Obs.Metrics.incr (Obs.Metrics.counter "engine_batches");
  let compiled = compile queries in
  let groups =
    Obs.Trace.with_span ~name:"engine.batch"
      ~attrs:[ ("queries", Obs.Json.Int (Array.length queries)) ]
      (fun () ->
        let fibers =
          schedule tr
            (List.map
               (fun (key, members) ->
                 let fam = family_label key in
                 let opener = fst (own_turns queries.(List.hd members)) in
                 let declared =
                   List.fold_left
                     (fun k i -> max k (snd (own_turns queries.(i))))
                     0 members
                 in
                 ( (opener, declared),
                   fun () ->
                     (* Each query group records into its own metrics
                        scope, so a batch's sketch/channel counters
                        attribute per family. *)
                     Obs.Metrics.in_scope ("group-" ^ fam) @@ fun () ->
                     Obs.Trace.with_span ~name:"engine.group"
                       ~attrs:[ ("family", Obs.Json.String fam) ]
                       (fun () ->
                         exec_group t ctx ~a ~b ~key ~members ~queries set) ))
               compiled)
        in
        let messages = lazy (Array.of_list (Transcript.messages tr)) in
        List.map2
          (fun (key, members) f ->
            let tag, plan =
              match f.step with Finished r -> r | _ -> assert false
            in
            let fam = family_label key in
            Obs.Metrics.in_scope ("group-" ^ fam) (fun () ->
                Obs.Metrics.incr_by
                  (Obs.Metrics.counter ~label:fam "engine_bits")
                  f.bits;
                Obs.Metrics.incr_by
                  (Obs.Metrics.counter ~label:fam "engine_queries")
                  (List.length members);
                Obs.Metrics.observe_ns
                  (Obs.Metrics.histogram ~label:fam "engine_group_ns")
                  f.run_ns);
            {
              family = tag;
              members;
              bits = f.bits;
              rounds = own_phases messages f;
              elapsed_ns = f.run_ns;
              plan;
            })
          compiled fibers)
  in
  {
    answers =
      Array.map
        (function Some a -> a | None -> assert false (* every member set *))
        answers;
    groups;
    total_bits = Transcript.total_bits tr - bits0;
    total_rounds = Transcript.rounds tr - rounds0;
    plan_hits = count_plans Plan_hit groups;
    plan_misses = count_plans Plan_miss groups;
  }

(* ------------------------------------------------------------------ *)
(* Query specs: "name:key=val,key=val". *)

let query_of_string spec =
  let ( let* ) = Result.bind in
  let name, kvs =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
        ( String.sub spec 0 i,
          String.sub spec (i + 1) (String.length spec - i - 1) )
  in
  let parse_kvs () =
    if kvs = "" then Ok []
    else
      List.fold_left
        (fun acc part ->
          let* acc = acc in
          match String.index_opt part '=' with
          | None -> Error (Printf.sprintf "bad key=value %S in %S" part spec)
          | Some i ->
              let k = String.sub part 0 i in
              let v = String.sub part (i + 1) (String.length part - i - 1) in
              Ok ((String.trim k, String.trim v) :: acc))
        (Ok [])
        (String.split_on_char ',' kvs)
  in
  let* kvs = parse_kvs () in
  let known allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
    | Some (k, _) -> Error (Printf.sprintf "unknown key %S in %S" k spec)
    | None -> Ok ()
  in
  let fget key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad float %S for %s in %S" v key spec))
  in
  let iget key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "bad int %S for %s in %S" v key spec))
  in
  let non_negative key i =
    if i < 0 then Error (Printf.sprintf "negative %s %d in %S" key i spec)
    else Ok ()
  in
  match String.trim (String.lowercase_ascii name) with
  | "norm" ->
      let* () = known [ "p"; "eps" ] in
      let* p = fget "p" 0.0 in
      let* eps = fget "eps" 0.25 in
      Ok (Norm_pow { p; eps })
  | "frob" ->
      let* () = known [ "eps" ] in
      let* eps = fget "eps" 0.5 in
      Ok (Frob_norm { eps })
  | "rows" ->
      let* () = known [ "p"; "beta" ] in
      let* p = fget "p" 0.0 in
      let* beta = fget "beta" 0.5 in
      Ok (Row_norms { p; beta })
  | "top" ->
      let* () = known [ "p"; "beta"; "k" ] in
      let* p = fget "p" 0.0 in
      let* beta = fget "beta" 0.5 in
      let* k = iget "k" 5 in
      let* () = non_negative "k" k in
      Ok (Top_rows { p; beta; k })
  | "l0" ->
      let* () = known [ "eps"; "count" ] in
      let* eps = fget "eps" 0.25 in
      let* count = iget "count" 1 in
      let* () = non_negative "count" count in
      Ok (L0_sample { eps; count })
  | "l1" ->
      let* () = known [ "count" ] in
      let* count = iget "count" 1 in
      let* () = non_negative "count" count in
      Ok (L1_sample { count })
  | "hh" ->
      let* () = known [ "phi"; "eps" ] in
      let* phi = fget "phi" 0.05 in
      let* eps = fget "eps" 0.02 in
      Ok (Heavy_hitters { phi; eps })
  | "linf" ->
      let* () = known [ "kappa" ] in
      let* kappa = fget "kappa" 4.0 in
      Ok (Linf { kappa })
  | "exact" ->
      let* () = known [] in
      Ok Exact_product
  | other ->
      Error
        (Printf.sprintf
           "unknown query %S (norm|frob|rows|top|l0|l1|hh|linf|exact)" other)
