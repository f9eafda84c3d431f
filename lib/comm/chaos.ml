type kind =
  | Drop
  | Corrupt
  | Truncate
  | Duplicate
  | Delay
  | Crash
  | Straggle
  | Byzantine

type clause = {
  kind : kind;
  rate : float option;
  party : Transcript.party option;
  worker : int option;
  label : string option;
  after : int option;
  burst : int option;
  delay_s : float option;
  mode : Fault.byzantine_mode option;
  permanent : bool;
}

type t = clause list

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
                match Fault.byzantine_mode_of_string value with
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
  Option.iter (fun m -> add "mode" (Fault.byzantine_mode_to_string m)) c.mode;
  if c.permanent then Buffer.add_string b ",permanent";
  Buffer.contents b

let to_string spec = String.concat ";" (List.map clause_to_string spec)

(* Lowering *)

let rates_of c =
  let z = Fault.zero_rates in
  let r = Option.get c.rate in
  match c.kind with
  | Drop -> { z with Fault.drop = r }
  | Corrupt -> { z with Fault.corrupt = r }
  | Truncate -> { z with Fault.truncate = r }
  | Duplicate -> { z with Fault.duplicate = r }
  | Delay ->
      {
        z with
        Fault.delay = r;
        delay_s = Option.value c.delay_s ~default:0.05;
      }
  | _ -> assert false

let byte_rules spec =
  List.filter_map
    (fun c ->
      if is_byte_kind c.kind then
        Some (Fault.rule ?from:c.party ?label_prefix:c.label (rates_of c))
      else None)
    spec

(* A clause with no [worker] key applies to every rank; with one, only to
   that rank. Outside a fleet (no [?scope_worker]) worker-keyed clauses
   are someone else's business. *)
let in_scope scope_worker c =
  match (scope_worker, c.worker) with
  | None, None -> true
  | None, Some _ -> false
  | Some _, None -> true
  | Some r, Some w -> r = w

let crashes ?scope_worker spec =
  List.filter_map
    (fun c ->
      if c.kind = Crash && in_scope scope_worker c then
        let victim =
          (* Fleet workers speak as Alice on their link. *)
          match c.party with
          | Some p -> p
          | None -> Transcript.Alice
        in
        let site =
          match (c.label, c.after) with
          | Some l, _ -> Fault.At_label l
          | None, after -> Fault.After_messages (Option.value after ~default:0)
        in
        Some { Fault.victim; site }
      else None)
    spec

let straggles ?scope_worker spec =
  List.filter_map
    (fun c ->
      if c.kind = Straggle && in_scope scope_worker c then
        Some
          (Fault.straggle ?from:c.party ?label_prefix:c.label ?after:c.after
             ?burst:c.burst
             ~delay_s:(Option.get c.delay_s)
             ())
      else None)
    spec

let byzantines ?scope_worker spec =
  List.filter_map
    (fun c ->
      if c.kind = Byzantine && in_scope scope_worker c then
        Some
          (Fault.byzantine
             ~mode:(Option.value c.mode ~default:Fault.Scale)
             ())
      else None)
    spec

let model ~seed ~crashes ~straggles ~byzantines rules =
  if rules = [] && crashes = [] && straggles = [] && byzantines = [] then None
  else Some (Fault.create ~crashes ~straggles ~byzantines ~seed rules)

let to_fault ?scope_worker ~seed spec =
  model ~seed (byte_rules spec)
    ~crashes:(crashes ?scope_worker spec)
    ~straggles:(straggles ?scope_worker spec)
    ~byzantines:(byzantines ?scope_worker spec)

let link_fault ~seed spec ~rank ~replica ~attempt =
  let scope_worker = rank and first = attempt = 1 in
  let only cond events = if cond then events else [] in
  let permanent =
    List.exists
      (fun c -> c.kind = Crash && c.permanent && in_scope (Some rank) c)
      spec
  in
  (* Only byte rules and the byzantine junk draw read the seed: the byte
     rules' draws are seeded [seed + 77 + rank]; a link without byte rules
     seeds its byzantine draw [seed + 7919·(rank + 1)]. *)
  let rules = byte_rules spec in
  let seed =
    if rules = [] then seed + (7919 * (rank + 1)) else seed + 77 + rank
  in
  model ~seed rules
    ~crashes:(only (first || permanent) (crashes ~scope_worker spec))
    ~straggles:(only first (straggles ~scope_worker spec))
    ~byzantines:(only (first && replica = 0) (byzantines ~scope_worker spec))
