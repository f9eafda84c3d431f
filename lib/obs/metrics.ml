let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* --- cells ------------------------------------------------------------ *)

type ccell = { mutable count : int }
type gcell = { mutable gval : float; mutable gset : bool }

let hist_buckets = 63

type hcell = {
  mutable hcount : int;
  mutable hsum : float;
  mutable hmin : float;
  mutable hmax : float;
  buckets : int array; (* buckets.(b) counts samples in [2^b, 2^(b+1)) *)
}

type metric = C of ccell | G of gcell | H of hcell

(* --- the scope tree ---------------------------------------------------- *)

(* Metrics record into the *current* scope: a node in a tree rooted at the
   process-wide root scope. Scopes are opened by in_scope (per party, per
   supervisor attempt, per engine group) so one run's counters are no
   longer conflated into a single blob. Children keep insertion order so
   snapshots list attempt1 before attempt2. *)
type scope = {
  cells : (string, metric) Hashtbl.t;
  mutable children : (string * scope) list;
}

let new_scope () = { cells = Hashtbl.create 16; children = [] }
let root = new_scope ()
let cur = ref root

(* Bumped on reset so memoized handle resolutions die with the old tree. *)
let generation = ref 0

(* Cell creation may race when worker domains first touch a handle inside
   a Pool fan-out; the lock keeps the Hashtbl itself safe (increments stay
   best-effort, as documented). The memoized fast path takes no lock. *)
let resolve_lock = Mutex.create ()

let key ?label name =
  match label with None -> name | Some l -> Printf.sprintf "%s{%s}" name l

let zero_cell = function
  | C c -> c.count <- 0
  | G g ->
      g.gval <- 0.0;
      g.gset <- false
  | H h ->
      h.hcount <- 0;
      h.hsum <- 0.0;
      h.hmin <- Float.infinity;
      h.hmax <- Float.neg_infinity;
      Array.fill h.buckets 0 hist_buckets 0

let fresh_hcell () =
  {
    hcount = 0;
    hsum = 0.0;
    hmin = Float.infinity;
    hmax = Float.neg_infinity;
    buckets = Array.make hist_buckets 0;
  }

let cell_in scope k make describe =
  Mutex.lock resolve_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock resolve_lock)
    (fun () ->
      match Hashtbl.find_opt scope.cells k with
      | Some m -> (
          match describe m with
          | Some cell -> cell
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics.%s: %s registered as another type"
                   (fst make) k))
      | None ->
          let m = (snd make) () in
          Hashtbl.replace scope.cells k m;
          match describe m with Some cell -> cell | None -> assert false)

(* --- handles ----------------------------------------------------------- *)

(* A handle is the metric's key plus a memoized (generation, scope, cell)
   resolution: the hot path is one generation test and one physical
   equality, and re-entering a scope re-resolves to that scope's cell. *)

type counter = {
  ckey : string;
  mutable cgen : int;
  mutable chome : scope;
  mutable ccell : ccell;
}

type gauge = {
  gkey : string;
  mutable ggen : int;
  mutable ghome : scope;
  mutable gcell : gcell;
}

type histogram = {
  hkey : string;
  mutable hgen : int;
  mutable hhome : scope;
  mutable hcell : hcell;
}

let counter ?label name =
  { ckey = key ?label name; cgen = -1; chome = root; ccell = { count = 0 } }

let c_resolve h =
  if h.cgen = !generation && h.chome == !cur then h.ccell
  else begin
    let scope = !cur in
    let cell =
      cell_in scope h.ckey
        ("counter", fun () -> C { count = 0 })
        (function C c -> Some c | _ -> None)
    in
    h.cgen <- !generation;
    h.chome <- scope;
    h.ccell <- cell;
    cell
  end

let incr h =
  if !on then begin
    let c = c_resolve h in
    c.count <- c.count + 1
  end

let incr_by h n =
  if !on then begin
    let c = c_resolve h in
    c.count <- c.count + n
  end

let value h = (c_resolve h).count

let total ?label name =
  let k = key ?label name in
  let rec go acc s =
    let acc =
      match Hashtbl.find_opt s.cells k with
      | Some (C c) -> acc + c.count
      | _ -> acc
    in
    List.fold_left (fun a (_, child) -> go a child) acc s.children
  in
  go 0 root

let gauge ?label name =
  {
    gkey = key ?label name;
    ggen = -1;
    ghome = root;
    gcell = { gval = 0.0; gset = false };
  }

let g_resolve h =
  if h.ggen = !generation && h.ghome == !cur then h.gcell
  else begin
    let scope = !cur in
    let cell =
      cell_in scope h.gkey
        ("gauge", fun () -> G { gval = 0.0; gset = false })
        (function G g -> Some g | _ -> None)
    in
    h.ggen <- !generation;
    h.ghome <- scope;
    h.gcell <- cell;
    cell
  end

let set_gauge h v =
  if !on then begin
    let g = g_resolve h in
    g.gval <- v;
    g.gset <- true
  end

let gauge_value h =
  let g = g_resolve h in
  if g.gset then Some g.gval else None

let histogram ?label name =
  { hkey = key ?label name; hgen = -1; hhome = root; hcell = fresh_hcell () }

let h_resolve h =
  if h.hgen = !generation && h.hhome == !cur then h.hcell
  else begin
    let scope = !cur in
    let cell =
      cell_in scope h.hkey
        ("histogram", fun () -> H (fresh_hcell ()))
        (function H c -> Some c | _ -> None)
    in
    h.hgen <- !generation;
    h.hhome <- scope;
    h.hcell <- cell;
    cell
  end

let bucket_of v =
  if v < 1.0 then 0
  else min (hist_buckets - 1) (int_of_float (Float.log2 v))

let observe h v =
  if !on then begin
    let c = h_resolve h in
    c.hcount <- c.hcount + 1;
    c.hsum <- c.hsum +. v;
    if v < c.hmin then c.hmin <- v;
    if v > c.hmax then c.hmax <- v;
    let b = bucket_of v in
    c.buckets.(b) <- c.buckets.(b) + 1
  end

let observe_ns h ns = observe h (float_of_int ns)

let timed h f =
  if !on then begin
    let t0 = Clock.now_ns () in
    let r = f () in
    observe_ns h (Clock.elapsed_ns t0);
    r
  end
  else f ()

let hist_count h = (h_resolve h).hcount
let hist_sum h = (h_resolve h).hsum

(* --- scope entry -------------------------------------------------------- *)

let in_scope name f =
  if not !on then f ()
  else begin
    let parent = !cur in
    let scope =
      match List.assoc_opt name parent.children with
      | Some s -> s
      | None ->
          let s = new_scope () in
          parent.children <- parent.children @ [ (name, s) ];
          s
    in
    cur := scope;
    Fun.protect ~finally:(fun () -> cur := parent) f
  end

let current_scope () = !cur
let set_scope s = cur := s

let reset () =
  generation := !generation + 1;
  root.children <- [];
  cur := root;
  Hashtbl.iter (fun _ m -> zero_cell m) root.cells

(* --- percentile estimation on log2 histograms -------------------------- *)

let bucket_lo b = if b = 0 then 0.0 else Float.ldexp 1.0 b
let bucket_hi b = Float.ldexp 1.0 (b + 1)

(* Estimate the q-quantile from log2 bucket counts by linear interpolation
   inside the bucket holding the ceil(q*count)-th sample, clamping the
   bucket's range to the observed [min, max]. The estimate is monotone in
   q, always within [min, max], and exact when all samples are equal. *)
let percentile_of ~count ~min:hmin ~max:hmax ~buckets q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.percentile: q outside [0,1]";
  if count <= 0 then 0.0
  else begin
    let target = Float.max 1.0 (q *. float_of_int count) in
    let rec find below = function
      | [] -> (0, 0, below) (* unreachable when buckets sum to count *)
      | (b, n) :: rest ->
          let upto = below +. float_of_int n in
          if target <= upto || rest = [] then (b, n, below)
          else find upto rest
    in
    let b, n, below = find 0.0 buckets in
    if n = 0 then hmin
    else begin
      let lo = Float.max (bucket_lo b) hmin in
      let hi = Float.min (bucket_hi b) hmax in
      let lo = Float.min lo hi in
      let frac =
        Float.max 0.0 (Float.min 1.0 ((target -. below) /. float_of_int n))
      in
      lo +. (frac *. (hi -. lo))
    end
  end

let live_buckets c =
  let acc = ref [] in
  for b = hist_buckets - 1 downto 0 do
    if c.buckets.(b) > 0 then acc := (b, c.buckets.(b)) :: !acc
  done;
  !acc

let percentile h q =
  let c = h_resolve h in
  percentile_of ~count:c.hcount ~min:c.hmin ~max:c.hmax
    ~buckets:(live_buckets c) q

(* --- snapshot ----------------------------------------------------------- *)

let hist_json c =
  let pct q =
    percentile_of ~count:c.hcount ~min:c.hmin ~max:c.hmax
      ~buckets:(live_buckets c) q
  in
  let buckets =
    List.map (fun (b, n) -> Json.List [ Json.Int b; Json.Int n ]) (live_buckets c)
  in
  Json.Obj
    [
      ("count", Json.Int c.hcount);
      ("sum", Json.Float c.hsum);
      ("min", Json.Float c.hmin);
      ("max", Json.Float c.hmax);
      ("p50", Json.Float (pct 0.50));
      ("p90", Json.Float (pct 0.90));
      ("p99", Json.Float (pct 0.99));
      ("log2_buckets", Json.List buckets);
    ]

let rec scope_snapshot s =
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  Hashtbl.iter
    (fun k m ->
      match m with
      | C c -> if c.count <> 0 then counters := (k, Json.Int c.count) :: !counters
      | G g -> if g.gset then gauges := (k, Json.Float g.gval) :: !gauges
      | H h -> if h.hcount > 0 then hists := (k, hist_json h) :: !hists)
    s.cells;
  let sorted l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  Json.Obj
    ([
       ("counters", Json.Obj (sorted !counters));
       ("gauges", Json.Obj (sorted !gauges));
       ("histograms", Json.Obj (sorted !hists));
     ]
    @
    match s.children with
    | [] -> []
    | children ->
        [
          ( "scopes",
            Json.Obj
              (List.map (fun (name, child) -> (name, scope_snapshot child))
                 children) );
        ])

let snapshot () = scope_snapshot root
