module Prng = Matprod_util.Prng
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace

type kind =
  | Drop
  | Corrupt
  | Truncate
  | Duplicate
  | Delay
  | Crash
  | Straggle
  | Byzantine

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

type clause = {
  kind : kind;
  rate : float option;
  party : Transcript.party option;
  worker : int option;
  label : string option;
  after : int option;
  burst : int option;
  delay_s : float option;
  mode : byzantine_mode option;
  permanent : bool;
}

type spec = clause list

(* Grammar *)

let kind_to_string = function
  | Drop -> "drop"
  | Corrupt -> "corrupt"
  | Truncate -> "truncate"
  | Duplicate -> "duplicate"
  | Delay -> "delay"
  | Crash -> "crash"
  | Straggle -> "straggle"
  | Byzantine -> "byzantine"

let kind_of_string = function
  | "drop" -> Some Drop
  | "corrupt" -> Some Corrupt
  | "truncate" -> Some Truncate
  | "duplicate" -> Some Duplicate
  | "delay" -> Some Delay
  | "crash" -> Some Crash
  | "straggle" -> Some Straggle
  | "byzantine" -> Some Byzantine
  | _ -> None

let party_of_string = function
  | "a" | "alice" | "0" -> Some Transcript.Alice
  | "b" | "bob" | "1" -> Some Transcript.Bob
  | _ -> None

let party_to_string = function Transcript.Alice -> "a" | Transcript.Bob -> "b"

let is_byte_kind = function
  | Drop | Corrupt | Truncate | Duplicate | Delay -> true
  | Crash | Straggle | Byzantine -> false

(* %g prints 0.1 as "0.1" and survives a float_of_string round-trip for
   every rate a human would write. *)
let float_to_string f = Printf.sprintf "%g" f

let empty kind =
  {
    kind;
    rate = None;
    party = None;
    worker = None;
    label = None;
    after = None;
    burst = None;
    delay_s = None;
    mode = None;
    permanent = false;
  }

let ( let* ) = Result.bind

let err clause_no fmt =
  Printf.ksprintf (fun s -> Error (Printf.sprintf "clause %d: %s" clause_no s))
    fmt

let parse_clause no s =
  let pairs =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  match pairs with
  | [] -> err no "empty clause"
  | first :: rest ->
      let* kind =
        match String.index_opt first '=' with
        | Some i when String.sub first 0 i = "kind" -> (
            let v = String.sub first (i + 1) (String.length first - i - 1) in
            match kind_of_string v with
            | Some k -> Ok k
            | None -> err no "unknown kind %S" v)
        | _ -> err no "first key must be kind=<...>, got %S" first
      in
      let* c =
        List.fold_left
          (fun acc pair ->
            let* c = acc in
            let key, value =
              match String.index_opt pair '=' with
              | None -> (pair, "")
              | Some i ->
                  ( String.sub pair 0 i,
                    String.sub pair (i + 1) (String.length pair - i - 1) )
            in
            let int_value () =
              match int_of_string_opt value with
              | Some v when v >= 0 -> Ok v
              | _ -> err no "key %s needs a non-negative integer, got %S" key value
            in
            let float_value () =
              match float_of_string_opt value with
              | Some v -> Ok v
              | None -> err no "key %s needs a number, got %S" key value
            in
            match key with
            | "rate" ->
                let* v = float_value () in
                if v < 0.0 || v > 1.0 then
                  err no "rate %g outside [0, 1]" v
                else Ok { c with rate = Some v }
            | "party" | "from" -> (
                match party_of_string (String.lowercase_ascii value) with
                | Some p -> Ok { c with party = Some p }
                | None -> err no "key %s needs a|alice|b|bob, got %S" key value)
            | "worker" ->
                let* v = int_value () in
                Ok { c with worker = Some v }
            | "label" ->
                if value = "" then err no "label needs a value"
                else Ok { c with label = Some value }
            | "after" ->
                let* v = int_value () in
                Ok { c with after = Some v }
            | "burst" ->
                let* v = int_value () in
                if v < 1 then err no "burst must be >= 1"
                else Ok { c with burst = Some v }
            | "delay" ->
                let* v = float_value () in
                if v <= 0.0 then err no "delay must be > 0"
                else Ok { c with delay_s = Some v }
            | "mode" -> (
                match byzantine_mode_of_string value with
                | Some m -> Ok { c with mode = Some m }
                | None -> err no "unknown byzantine mode %S" value)
            | "permanent" ->
                if value = "" || value = "true" then
                  Ok { c with permanent = true }
                else err no "permanent takes no value"
            | _ -> err no "unknown key %S" key)
          (Ok (empty kind)) rest
      in
      (* Per-kind validation: fail at parse time, not when the model is
         built deep inside a run. *)
      let reject field cond =
        if cond then err no "%s does not apply to kind=%s" field
            (kind_to_string kind)
        else Ok ()
      in
      if is_byte_kind kind then
        let* () = reject "worker" (c.worker <> None) in
        let* () = reject "after" (c.after <> None) in
        let* () = reject "burst" (c.burst <> None) in
        let* () = reject "mode" (c.mode <> None) in
        let* () = reject "permanent" c.permanent in
        let* () =
          reject "delay" (c.delay_s <> None && kind <> Delay)
        in
        match c.rate with
        | None -> err no "kind=%s needs rate=" (kind_to_string kind)
        | Some _ -> Ok c
      else
        match kind with
        | Crash ->
            let* () = reject "rate" (c.rate <> None) in
            let* () = reject "burst" (c.burst <> None) in
            let* () = reject "delay" (c.delay_s <> None) in
            let* () = reject "mode" (c.mode <> None) in
            if c.party = None && c.worker = None then
              err no "kind=crash needs party= (two-party) or worker= (fleet)"
            else if c.after <> None && c.label <> None then
              err no "kind=crash takes after= or label=, not both"
            else Ok c
        | Straggle ->
            let* () = reject "rate" (c.rate <> None) in
            let* () = reject "mode" (c.mode <> None) in
            let* () = reject "permanent" c.permanent in
            if c.delay_s = None then err no "kind=straggle needs delay="
            else Ok c
        | Byzantine ->
            let* () = reject "rate" (c.rate <> None) in
            let* () = reject "label" (c.label <> None) in
            let* () = reject "after" (c.after <> None) in
            let* () = reject "burst" (c.burst <> None) in
            let* () = reject "delay" (c.delay_s <> None) in
            let* () = reject "permanent" c.permanent in
            Ok c
        | _ -> Ok c

let parse s =
  let clauses =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go no acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest ->
        let* parsed = parse_clause no c in
        go (no + 1) (parsed :: acc) rest
  in
  go 1 [] clauses

let clause_to_string c =
  let b = Buffer.create 48 in
  Buffer.add_string b "kind=";
  Buffer.add_string b (kind_to_string c.kind);
  let add key v =
    Buffer.add_char b ',';
    Buffer.add_string b key;
    Buffer.add_char b '=';
    Buffer.add_string b v
  in
  let party_key = if is_byte_kind c.kind then "from" else "party" in
  Option.iter (fun p -> add party_key (party_to_string p)) c.party;
  Option.iter (fun w -> add "worker" (string_of_int w)) c.worker;
  Option.iter (fun l -> add "label" l) c.label;
  Option.iter (fun r -> add "rate" (float_to_string r)) c.rate;
  Option.iter (fun a -> add "after" (string_of_int a)) c.after;
  Option.iter (fun bu -> add "burst" (string_of_int bu)) c.burst;
  Option.iter (fun d -> add "delay" (float_to_string d)) c.delay_s;
  Option.iter (fun m -> add "mode" (byzantine_mode_to_string m)) c.mode;
  if c.permanent then Buffer.add_string b ",permanent";
  Buffer.contents b

let to_string spec = String.concat ";" (List.map clause_to_string spec)

(* Models *)

exception Party_crash of { party : Transcript.party; after_messages : int }

(* Per-frame byte-fault probabilities: the merge of every byte clause
   matching the frame, which [apply_rules] draws from. *)
type rates = {
  drop : float;
  corrupt : float;
  truncate : float;
  duplicate : float;
  delay : float;
  nominal_delay : float;  (* seconds, jittered in [0.5, 1.5)x per firing *)
}

let zero_rates =
  { drop = 0.0; corrupt = 0.0; truncate = 0.0; duplicate = 0.0; delay = 0.0;
    nominal_delay = 0.0 }

let with_clause r c =
  let p = Option.get c.rate in
  match c.kind with
  | Drop -> { r with drop = p }
  | Corrupt -> { r with corrupt = p }
  | Truncate -> { r with truncate = p }
  | Duplicate -> { r with duplicate = p }
  | Delay ->
      { r with delay = p; nominal_delay = Option.value c.delay_s ~default:0.05 }
  | Crash | Straggle | Byzantine -> r

let rates_active r =
  r.drop > 0.0 || r.corrupt > 0.0 || r.truncate > 0.0 || r.duplicate > 0.0
  || r.delay > 0.0

(* A crash or straggle clause plus its one-shot state: a crash fires
   once, a straggle spends [remaining] frames of its burst. *)
type crash_state = { crash : clause; mutable fired : bool }
type straggle_state = { straggle : clause; mutable remaining : int }

(* A byzantine clause's mode plus its one-shot state. The corrupting PRNG
   is the clause's own (split at build time) so firing never perturbs the
   byte-clause stream: adding a byzantine clause leaves every wire fault
   draw intact. *)
type byzantine_state = {
  bmode : byzantine_mode;
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
  byte : clause list;
  crashes : crash_state list;
  straggles : straggle_state list;
  byzantines : byzantine_state list;
  mutable messages_seen : int;  (* logical messages that entered the wire *)
  mutable stats : stats;
}

let build ~seed ~byte ~crashes ~straggles ~byzantines =
  if byte = [] && crashes = [] && straggles = [] && byzantines = [] then None
  else
    let byz_stream = Prng.create (seed lxor 0x62797a (* "byz" *)) in
    Some
      {
        prng = Prng.create seed;
        byte;
        crashes = List.map (fun crash -> { crash; fired = false }) crashes;
        straggles =
          List.map
            (fun straggle ->
              { straggle; remaining = Option.value straggle.burst ~default:1 })
            straggles;
        byzantines =
          List.map
            (fun c ->
              {
                bmode = Option.value c.mode ~default:Scale;
                bprng = Prng.split byz_stream;
                bfired = false;
              })
            byzantines;
        messages_seen = 0;
        stats = zero_stats;
      }

(* A clause with no [worker] key applies to every rank; with one, only to
   that rank. Outside a fleet (no [scope_worker]) worker-keyed clauses
   are someone else's business. *)
let scoped kind scope_worker spec =
  List.filter
    (fun c ->
      c.kind = kind
      &&
      match (scope_worker, c.worker) with
      | _, None -> true
      | None, Some _ -> false
      | Some r, Some w -> r = w)
    spec

let byte_clauses spec = List.filter (fun c -> is_byte_kind c.kind) spec

let create ?scope_worker ~seed spec =
  build ~seed ~byte:(byte_clauses spec)
    ~crashes:(scoped Crash scope_worker spec)
    ~straggles:(scoped Straggle scope_worker spec)
    ~byzantines:(scoped Byzantine scope_worker spec)

let for_link ~seed spec ~rank ~replica ~attempt =
  let scope_worker = Some rank and first = attempt = 1 in
  let only cond clauses = if cond then clauses else [] in
  let crashes = scoped Crash scope_worker spec in
  let permanent = List.exists (fun c -> c.permanent) crashes in
  (* Only byte clauses and the byzantine junk draw read the seed: byte
     draws are seeded [seed + 77 + rank]; a link without byte clauses
     seeds its byzantine draw [seed + 7919·(rank + 1)]. *)
  let byte = byte_clauses spec in
  let seed =
    if byte = [] then seed + (7919 * (rank + 1)) else seed + 77 + rank
  in
  build ~seed ~byte
    ~crashes:(only (first || permanent) crashes)
    ~straggles:(only first (scoped Straggle scope_worker spec))
    ~byzantines:
      (only (first && replica = 0) (scoped Byzantine scope_worker spec))

let of_string ?(seed = 0) s =
  match parse s with
  | Error e -> invalid_arg ("Fault.of_string: " ^ e)
  | Ok spec -> (
      match create ~seed spec with
      | Some t -> t
      | None -> invalid_arg ("Fault.of_string: nothing in scope in " ^ s))

let stats t = t.stats

let total_injected s =
  s.dropped + s.corrupted + s.truncated + s.duplicated + s.delayed + s.crashed
  + s.straggled + s.byzantined

let is_active t =
  List.exists (fun c -> Option.get c.rate > 0.0) t.byte || t.straggles <> []

let starts_with ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

(* Whether a byte or straggle clause's [from]/[label] scope covers a
   frame. *)
let covers c ~from ~label =
  (match c.party with None -> true | Some p -> p = from)
  && starts_with ~prefix:(Option.value c.label ~default:"") label

(* Every byte clause covering the frame, merged kind by kind. Folding from
   the right applies the first clause last, so per kind the first
   matching clause that names it wins. *)
let frame_rates t ~from ~label =
  List.fold_right
    (fun c r -> if covers c ~from ~label then with_clause r c else r)
    t.byte zero_rates

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
      let c = cs.crash in
      (* Fleet workers speak as Alice on their link. *)
      if (not cs.fired) && Option.value c.party ~default:Transcript.Alice = from
      then
        let triggers =
          match c.label with
          | Some prefix -> starts_with ~prefix label
          | None -> t.messages_seen >= Option.value c.after ~default:0
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

(* Byzantine clauses fire at the answer boundary, not on a frame: the
   topology layer calls this once per decoded shard answer. One-shot like
   crashes — a fired clause stays fired across journal resumes and
   supervisor reseeds as long as the same model instance is reused. *)
let check_byzantine t =
  match List.find_opt (fun bs -> not bs.bfired) t.byzantines with
  | None -> None
  | Some bs ->
      bs.bfired <- true;
      t.stats <- { t.stats with byzantined = t.stats.byzantined + 1 };
      count c_byzantined "byzantine" (byzantine_mode_to_string bs.bmode);
      Some (bs.bmode, bs.bprng)

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

(* One-shot delay spike: once [after] logical messages have completed,
   the next [burst] physical frames (retransmissions included) the
   straggle clause covers each pay a fixed extra [delay]. The spike is
   deterministic — no jitter — so a spike chosen to exceed the
   reliability timeout reliably forces retransmissions, which is what
   makes an injected straggler detectable from [waited]. *)
let straggle_extra t ~from ~label =
  List.fold_left
    (fun acc ss ->
      let c = ss.straggle in
      if
        ss.remaining > 0
        && t.messages_seen - 1 >= Option.value c.after ~default:0
        && covers c ~from ~label
      then begin
        let d = Option.get c.delay_s in
        ss.remaining <- ss.remaining - 1;
        t.stats <-
          {
            t.stats with
            straggled = t.stats.straggled + 1;
            injected_delay = t.stats.injected_delay +. d;
          };
        count c_straggled "straggle" label;
        acc +. d
      end
      else acc)
    0.0 t.straggles

let apply_rules t ~from ~label bytes =
  let r = frame_rates t ~from ~label in
  if not (rates_active r) then [ { bytes; delay = 0.0 } ]
  else if Prng.bernoulli t.prng r.drop then begin
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
            (* Jittered around the nominal delay so repeated retries do
               not all miss (or all clear) a fixed timeout. *)
            let d = r.nominal_delay *. (0.5 +. Prng.float t.prng) in
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
