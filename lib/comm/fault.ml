module Prng = Matprod_util.Prng
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

type rates = {
  drop : float;
  corrupt : float;
  truncate : float;
  duplicate : float;
  delay : float;
  delay_s : float;
}

let zero_rates =
  { drop = 0.0; corrupt = 0.0; truncate = 0.0; duplicate = 0.0; delay = 0.0;
    delay_s = 0.0 }

let validate_rates r =
  let p name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Fault: %s must be a probability" name)
  in
  p "drop" r.drop;
  p "corrupt" r.corrupt;
  p "truncate" r.truncate;
  p "duplicate" r.duplicate;
  p "delay" r.delay;
  if r.delay_s < 0.0 then invalid_arg "Fault: delay_s must be >= 0"

type rule = {
  from : Transcript.party option;
  label_prefix : string;
  rates : rates;
}

let rule ?from ?(label_prefix = "") rates =
  validate_rates rates;
  { from; label_prefix; rates }

type crash_site = After_messages of int | At_label of string
type crash = { victim : Transcript.party; site : crash_site }

exception Party_crash of { party : Transcript.party; after_messages : int }

(* A crash rule plus its one-shot state. *)
type crash_state = { spec : crash; mutable fired : bool }

type straggle = {
  s_from : Transcript.party option;
  s_label_prefix : string;
  s_after : int;
  s_delay_s : float;
  s_burst : int;
}

let straggle ?from ?(label_prefix = "") ?(after = 0) ?(burst = 1) ~delay_s () =
  if delay_s <= 0.0 then invalid_arg "Fault: straggle delay_s must be > 0";
  if after < 0 then invalid_arg "Fault: straggle after must be >= 0";
  if burst < 1 then invalid_arg "Fault: straggle burst must be >= 1";
  { s_from = from; s_label_prefix = label_prefix; s_after = after;
    s_delay_s = delay_s; s_burst = burst }

(* A straggle rule plus its remaining burst charge. *)
type straggle_state = { sspec : straggle; mutable remaining : int }

type byzantine_mode = Scale | Sign_flip | Swap | Garbage

let all_byzantine_modes = [ Scale; Sign_flip; Swap; Garbage ]

let byzantine_mode_to_string = function
  | Scale -> "scale"
  | Sign_flip -> "sign-flip"
  | Swap -> "swap"
  | Garbage -> "garbage"

let byzantine_mode_of_string = function
  | "scale" -> Some Scale
  | "sign-flip" | "sign_flip" -> Some Sign_flip
  | "swap" -> Some Swap
  | "garbage" -> Some Garbage
  | _ -> None

type byzantine = { b_mode : byzantine_mode }

let byzantine ~mode () = { b_mode = mode }

(* A byzantine rule plus its one-shot state. The corrupting PRNG is the
   rule's own (derived at [create]) so firing never perturbs the byte-rule
   stream: adding a byzantine rule leaves every wire fault draw intact. *)
type byzantine_state = {
  bspec : byzantine;
  bprng : Prng.t;
  mutable bfired : bool;
}

type stats = {
  dropped : int;
  corrupted : int;
  truncated : int;
  duplicated : int;
  delayed : int;
  crashed : int;
  straggled : int;
  byzantined : int;
  injected_delay : float;
}

let zero_stats =
  { dropped = 0; corrupted = 0; truncated = 0; duplicated = 0; delayed = 0;
    crashed = 0; straggled = 0; byzantined = 0; injected_delay = 0.0 }

type t = {
  prng : Prng.t;
  rules : rule list;
  crashes : crash_state list;
  straggles : straggle_state list;
  byzantines : byzantine_state list;
  mutable messages_seen : int;  (* logical messages that entered the wire *)
  mutable stats : stats;
}

let validate_crash c =
  match c.site with
  | After_messages k when k < 0 ->
      invalid_arg "Fault: After_messages must be >= 0"
  | After_messages _ | At_label _ -> ()

let create ?(crashes = []) ?(straggles = []) ?(byzantines = []) ~seed rules =
  List.iter validate_crash crashes;
  let byz_stream = Prng.create (seed lxor 0x62797a (* "byz" *)) in
  {
    prng = Prng.create seed;
    rules;
    crashes = List.map (fun spec -> { spec; fired = false }) crashes;
    straggles =
      List.map (fun sspec -> { sspec; remaining = sspec.s_burst }) straggles;
    byzantines =
      List.map
        (fun bspec -> { bspec; bprng = Prng.split byz_stream; bfired = false })
        byzantines;
    messages_seen = 0;
    stats = zero_stats;
  }

let uniform ~seed rates = create ~seed [ rule rates ]

let crash_only ~party ~at =
  create ~crashes:[ { victim = party; site = at } ] ~seed:0 []

let straggle_only ?from ?label_prefix ?after ?burst ~delay_s () =
  create
    ~straggles:[ straggle ?from ?label_prefix ?after ?burst ~delay_s () ]
    ~seed:0 []

let byzantine_only ?(seed = 0) ~mode () =
  create ~byzantines:[ byzantine ~mode () ] ~seed []

let stats t = t.stats

let total_injected s =
  s.dropped + s.corrupted + s.truncated + s.duplicated + s.delayed + s.crashed
  + s.straggled + s.byzantined

let rates_active r =
  r.drop > 0.0 || r.corrupt > 0.0 || r.truncate > 0.0 || r.duplicate > 0.0
  || r.delay > 0.0

let is_active t =
  List.exists (fun r -> rates_active r.rates) t.rules || t.straggles <> []

let starts_with ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

let matching_rule t ~from ~label =
  List.find_opt
    (fun r ->
      (match r.from with None -> true | Some p -> p = from)
      && starts_with ~prefix:r.label_prefix label)
    t.rules

type delivery = { bytes : string; delay : float }

let c_dropped = Metrics.counter "faults_dropped"
let c_corrupted = Metrics.counter "faults_corrupted"
let c_truncated = Metrics.counter "faults_truncated"
let c_duplicated = Metrics.counter "faults_duplicated"
let c_delayed = Metrics.counter "faults_delayed"
let c_crashed = Metrics.counter "faults_crashed"
let c_straggled = Metrics.counter "faults_straggled"
let c_byzantined = Metrics.counter "faults_byzantine"

let count c kind label =
  Metrics.incr c;
  if Trace.enabled () then
    Trace.event ~name:("fault." ^ kind)
      ~attrs:[ ("label", Matprod_obs.Json.String label) ]
      ()

let check_crash t ~from ~label =
  List.iter
    (fun cs ->
      if (not cs.fired) && cs.spec.victim = from then
        let triggers =
          match cs.spec.site with
          | After_messages k -> t.messages_seen >= k
          | At_label prefix -> starts_with ~prefix label
        in
        if triggers then begin
          cs.fired <- true;
          t.stats <- { t.stats with crashed = t.stats.crashed + 1 };
          count c_crashed "crash" label;
          raise
            (Party_crash { party = from; after_messages = t.messages_seen })
        end)
    t.crashes;
  t.messages_seen <- t.messages_seen + 1

(* Byzantine rules fire at the answer boundary, not on a frame: the
   topology layer calls this once per decoded shard answer. One-shot like
   crash rules — a fired rule stays fired across journal resumes and
   supervisor reseeds as long as the same model instance is reused. *)
let check_byzantine t =
  List.fold_left
    (fun acc bs ->
      match acc with
      | Some _ -> acc
      | None ->
          if bs.bfired then None
          else begin
            bs.bfired <- true;
            t.stats <- { t.stats with byzantined = t.stats.byzantined + 1 };
            count c_byzantined "byzantine"
              (byzantine_mode_to_string bs.bspec.b_mode);
            Some (bs.bspec.b_mode, bs.bprng)
          end)
    None t.byzantines

(* Flip one uniformly random bit of [bytes]. *)
let flip_bit prng bytes =
  let n = String.length bytes in
  if n = 0 then bytes
  else begin
    let bit = Prng.int prng (n * 8) in
    let b = Bytes.of_string bytes in
    let i = bit / 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
    Bytes.to_string b
  end

let truncate_at prng bytes =
  let n = String.length bytes in
  if n = 0 then bytes else String.sub bytes 0 (Prng.int prng n)

(* One-shot delay spike: once [s_after] logical messages have completed,
   the next [s_burst] physical frames (retransmissions included) matching
   the rule's direction/label scope each pay a fixed extra [s_delay_s].
   The spike is deterministic — no jitter — so a spike chosen to exceed
   the reliability timeout reliably forces retransmissions, which is what
   makes an injected straggler detectable from [waited]. *)
let straggle_extra t ~from ~label =
  List.fold_left
    (fun acc ss ->
      if
        ss.remaining > 0
        && t.messages_seen - 1 >= ss.sspec.s_after
        && (match ss.sspec.s_from with None -> true | Some p -> p = from)
        && starts_with ~prefix:ss.sspec.s_label_prefix label
      then begin
        ss.remaining <- ss.remaining - 1;
        t.stats <-
          {
            t.stats with
            straggled = t.stats.straggled + 1;
            injected_delay = t.stats.injected_delay +. ss.sspec.s_delay_s;
          };
        count c_straggled "straggle" label;
        acc +. ss.sspec.s_delay_s
      end
      else acc)
    0.0 t.straggles

let apply_rules t ~from ~label bytes =
  match matching_rule t ~from ~label with
  | None -> [ { bytes; delay = 0.0 } ]
  | Some { rates = r; _ } when not (rates_active r) -> [ { bytes; delay = 0.0 } ]
  | Some { rates = r; _ } ->
      if Prng.bernoulli t.prng r.drop then begin
        t.stats <- { t.stats with dropped = t.stats.dropped + 1 };
        count c_dropped "drop" label;
        []
      end
      else begin
        let copies =
          if Prng.bernoulli t.prng r.duplicate then begin
            t.stats <- { t.stats with duplicated = t.stats.duplicated + 1 };
            count c_duplicated "duplicate" label;
            2
          end
          else 1
        in
        List.init copies (fun _ ->
            let b = ref bytes in
            if Prng.bernoulli t.prng r.corrupt then begin
              t.stats <- { t.stats with corrupted = t.stats.corrupted + 1 };
              count c_corrupted "corrupt" label;
              b := flip_bit t.prng !b
            end;
            if Prng.bernoulli t.prng r.truncate then begin
              t.stats <- { t.stats with truncated = t.stats.truncated + 1 };
              count c_truncated "truncate" label;
              b := truncate_at t.prng !b
            end;
            let delay =
              if Prng.bernoulli t.prng r.delay then begin
                (* Jittered around delay_s so repeated retries do not all
                   miss (or all clear) a fixed timeout. *)
                let d = r.delay_s *. (0.5 +. Prng.float t.prng) in
                t.stats <-
                  {
                    t.stats with
                    delayed = t.stats.delayed + 1;
                    injected_delay = t.stats.injected_delay +. d;
                  };
                count c_delayed "delay" label;
                d
              end
              else 0.0
            in
            { bytes = !b; delay })
      end

let apply t ~from ~label bytes =
  let extra = straggle_extra t ~from ~label in
  let deliveries = apply_rules t ~from ~label bytes in
  if extra = 0.0 then deliveries
  else List.map (fun d -> { d with delay = d.delay +. extra }) deliveries
