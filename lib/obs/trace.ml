type context = { trace_id : int64; span_id : int64 }

type span = {
  id : int;
  sid : int64;
  trace_id : int64;
  parent : int option;
  depth : int;
  name : string;
  instant : bool;
  attrs : (string * Json.t) list;
  start_ns : int;
  dur_ns : int;
  alloc_minor_w : int;
  alloc_major_w : int;
}

let on = ref false
let enabled () = !on
let enable () = on := true
let disable () = on := false

(* --- stable ids ------------------------------------------------------ *)

(* splitmix64: the standard finalizer, so trace/span ids derived from a
   ctx seed are stable across runs, platforms, and processes. *)
let splitmix64 z =
  let open Int64 in
  let z = add z 0x9e3779b97f4a7c15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let cur_trace = ref 0L
let trace_id_of_seed seed = splitmix64 (Int64.of_int seed)
let trace_id () = !cur_trace
let hex_id id = Printf.sprintf "%016Lx" id

(* Span ids mix the active trace id with the span's start ordinal, so two
   runs at the same seed produce identical ids span for span. *)
let stable_id tid n = splitmix64 (Int64.logxor tid (Int64.of_int n))

let with_trace ~seed f =
  if not !on then f ()
  else begin
    let old = !cur_trace in
    cur_trace := trace_id_of_seed seed;
    Fun.protect ~finally:(fun () -> cur_trace := old) f
  end

let next_id = ref 0

(* An open span. The paused fields add up the time and allocation spent
   while the span was detached (its fiber suspended), which its recorded
   duration and allocation deltas exclude. *)
type frame = {
  fid : int;
  fsid : int64;
  fdepth : int;
  mutable paused_ns : int;
  mutable paused_minor : float;
  mutable paused_major : float;
}

let stack : frame list ref = ref []

let completed : span list ref = ref []

let fresh_id () =
  incr next_id;
  !next_id

let current_parent () =
  match !stack with [] -> (None, 0) | f :: _ -> (Some f.fid, f.fdepth + 1)

let current_context () =
  match !stack with
  | [] -> { trace_id = !cur_trace; span_id = 0L }
  | f :: _ -> { trace_id = !cur_trace; span_id = f.fsid }

(* --- out-of-band context frames -------------------------------------- *)

let context_frame_length = 18

let context_frame () =
  if not !on then ""
  else begin
    let c = current_context () in
    let buf = Buffer.create context_frame_length in
    Buffer.add_string buf "TC";
    Buffer.add_int64_le buf c.trace_id;
    Buffer.add_int64_le buf c.span_id;
    Buffer.contents buf
  end

let parse_context_frame s =
  if String.length s <> context_frame_length || String.sub s 0 2 <> "TC" then
    None
  else
    Some
      {
        trace_id = String.get_int64_le s 2;
        span_id = String.get_int64_le s 10;
      }

(* --- recording ------------------------------------------------------- *)

let record sp = completed := sp :: !completed

(* Profiling hooks are allocation-counter deltas: cheap (no heap walk)
   but real allocation words. Gc.counters is used rather than
   Gc.quick_stat because in native code the latter's word counts update
   only at GC slices, reading as 0 across short spans. Under the fake
   clock deltas are forced to zero so golden traces stay
   byte-deterministic. *)
let profile () = not (Clock.faked ())

let with_span ?(attrs = []) ~name f =
  if not !on then f ()
  else begin
    let id = fresh_id () in
    let tid = !cur_trace in
    let sid = stable_id tid id in
    let parent, depth = current_parent () in
    let start_ns = Clock.now_ns () in
    let prof = profile () in
    let minor0, major0 =
      if prof then
        let minor, _, major = Gc.counters () in
        (minor, major)
      else (0.0, 0.0)
    in
    let frame =
      {
        fid = id;
        fsid = sid;
        fdepth = depth;
        paused_ns = 0;
        paused_minor = 0.0;
        paused_major = 0.0;
      }
    in
    stack := frame :: !stack;
    Fun.protect
      ~finally:(fun () ->
        (match !stack with
        | f :: rest when f == frame -> stack := rest
        | _ -> ());
        let alloc_minor_w, alloc_major_w =
          if prof then
            let minor, _, major = Gc.counters () in
            ( int_of_float (minor -. minor0 -. frame.paused_minor),
              int_of_float (major -. major0 -. frame.paused_major) )
          else (0, 0)
        in
        record
          {
            id;
            sid;
            trace_id = tid;
            parent;
            depth;
            name;
            instant = false;
            attrs;
            start_ns;
            dur_ns = Clock.elapsed_ns start_ns - frame.paused_ns;
            alloc_minor_w;
            alloc_major_w;
          })
      f
  end

(* --- suspended frames --------------------------------------------- *)

type frames = {
  detached : frame list; (* innermost first *)
  at_ns : int;
  at_minor : float;
  at_major : float;
}

let no_frames = { detached = []; at_ns = 0; at_minor = 0.0; at_major = 0.0 }
let depth () = List.length !stack

let detach ~base =
  let rec split n l =
    match l with
    | f :: rest when n > 0 ->
        let mine, below = split (n - 1) rest in
        (f :: mine, below)
    | _ -> ([], l)
  in
  match split (depth () - base) !stack with
  | [], _ -> no_frames
  | detached, below ->
      stack := below;
      let at_minor, at_major =
        if profile () then
          let minor, _, major = Gc.counters () in
          (minor, major)
        else (0.0, 0.0)
      in
      { detached; at_ns = Clock.now_ns (); at_minor; at_major }

let attach fs =
  if fs.detached <> [] then begin
    let paused = Clock.elapsed_ns fs.at_ns in
    let minor, major =
      if profile () then
        let minor, _, major = Gc.counters () in
        (minor -. fs.at_minor, major -. fs.at_major)
      else (0.0, 0.0)
    in
    List.iter
      (fun f ->
        f.paused_ns <- f.paused_ns + paused;
        f.paused_minor <- f.paused_minor +. minor;
        f.paused_major <- f.paused_major +. major)
      fs.detached;
    stack := fs.detached @ !stack
  end

let event ?(attrs = []) ~name () =
  if !on then begin
    let id = fresh_id () in
    let tid = !cur_trace in
    let parent, depth = current_parent () in
    record
      {
        id;
        sid = stable_id tid id;
        trace_id = tid;
        parent;
        depth;
        name;
        instant = true;
        attrs;
        start_ns = Clock.now_ns ();
        dur_ns = 0;
        alloc_minor_w = 0;
        alloc_major_w = 0;
      }
  end

let spans () =
  (* ids are assigned at span start, so sorting by id restores start
     order even though spans complete innermost-first. *)
  List.sort (fun a b -> compare a.id b.id) !completed

let span_count () = List.length !completed

let reset () =
  completed := [];
  (* Rewind ids so a fresh gallery at the same seed reproduces the same
     stable sids; keep counting while spans are open to keep ids unique. *)
  if !stack = [] then next_id := 0

let alloc_fields sp =
  if sp.alloc_minor_w = 0 && sp.alloc_major_w = 0 then []
  else
    [
      ("alloc_minor_w", Json.Int sp.alloc_minor_w);
      ("alloc_major_w", Json.Int sp.alloc_major_w);
    ]

let to_json sp =
  Json.Obj
    ([
       ("id", Json.Int sp.id);
       ("sid", Json.String (hex_id sp.sid));
       ("trace", Json.String (hex_id sp.trace_id));
       ( "parent",
         match sp.parent with None -> Json.Null | Some p -> Json.Int p );
       ("depth", Json.Int sp.depth);
       ("name", Json.String sp.name);
       ("start_ns", Json.Int sp.start_ns);
       ("dur_ns", Json.Int sp.dur_ns);
     ]
    @ alloc_fields sp
    @ [ ("attrs", Json.Obj sp.attrs) ])

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun sp ->
          output_string oc (Json.to_string (to_json sp));
          output_char oc '\n')
        (spans ()))

(* --- Chrome trace-event export (Perfetto / chrome://tracing) --------- *)

let us_of_ns ns = float_of_int ns /. 1e3

let chrome_event sp =
  let args =
    [ ("sid", Json.String (hex_id sp.sid)) ]
    @ alloc_fields sp @ sp.attrs
  in
  let base =
    [
      ("name", Json.String sp.name);
      ("cat", Json.String "matprod");
      ("pid", Json.Int 1);
      ("tid", Json.Int 1);
      ("ts", Json.Float (us_of_ns sp.start_ns));
      ("id", Json.String (hex_id sp.trace_id));
    ]
  in
  Json.Obj
    (base
    @ (if sp.instant then [ ("ph", Json.String "i"); ("s", Json.String "t") ]
       else
         [
           ("ph", Json.String "X");
           ("dur", Json.Float (float_of_int sp.dur_ns /. 1e3));
         ])
    @ [ ("args", Json.Obj args) ])

let chrome_json () =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map chrome_event (spans ())));
      ("displayTimeUnit", Json.String "ns");
      ( "otherData",
        Json.Obj [ ("schema", Json.String "matprod.trace.chrome.v1") ] );
    ]

let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (chrome_json ()));
      output_char oc '\n')
