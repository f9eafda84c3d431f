module Bmat = Matprod_matrix.Bmat
module Estimator = Matprod_core.Estimator
module L0_sampling = Matprod_core.L0_sampling
module L1_sampling = Matprod_core.L1_sampling
module Fault = Matprod_comm.Fault
module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Metrics = Matprod_obs.Metrics
module Trace = Matprod_obs.Trace
module Json = Matprod_obs.Json

type verdict = Pass | Fail of { invariant : string; detail : string }

let fail invariant fmt = Printf.ksprintf (fun detail -> Fail { invariant; detail }) fmt

type summary = {
  out_rows : int;
  out_cols : int;
  inner : int;
  l1 : float;
  cap : float;
  a : Bmat.t;
  b : Bmat.t;
  bt : Bmat.t Lazy.t;
}

let summarize ~a ~b =
  if Bmat.cols a <> Bmat.rows b then
    invalid_arg "Verify.summarize: inner dimensions disagree";
  let inner = Bmat.cols a in
  (* Remark 2's identity: ||AB||_1 = sum_k colweight(A,k) * rowweight(B,k).
     Exact, O(nnz), and it never touches the product. *)
  let colw_a = Bmat.col_weights a in
  let l1 = ref 0.0 in
  for k = 0 to inner - 1 do
    l1 := !l1 +. (float_of_int colw_a.(k) *. float_of_int (Bmat.row_weight b k))
  done;
  let amax = ref 0 in
  for i = 0 to Bmat.rows a - 1 do
    amax := max !amax (Bmat.row_weight a i)
  done;
  let bmax = Array.fold_left max 0 (Bmat.col_weights b) in
  {
    out_rows = Bmat.rows a;
    out_cols = Bmat.cols b;
    inner;
    l1 = !l1;
    cap = float_of_int (min !amax bmax);
    a;
    b;
    bt = lazy (Bmat.transpose b);
  }

(* Size of the intersection of two sorted index arrays — the exact entry
   C_rc = |A_r ∩ B^c|, one merge walk. *)
let inter_count xs ys =
  let n = Array.length xs and m = Array.length ys in
  let i = ref 0 and j = ref 0 and c = ref 0 in
  while !i < n && !j < m do
    let x = xs.(!i) and y = ys.(!j) in
    if x = y then begin incr c; incr i; incr j end
    else if x < y then incr i
    else incr j
  done;
  !c

let entry_value s r c = inter_count (Bmat.row s.a r) (Bmat.row (Lazy.force s.bt) c)

(* --- derived ranges ----------------------------------------------------- *)

let pairs s = float_of_int s.out_rows *. float_of_int s.out_cols

(* True l0 = ||AB||_0 lies in [l1/cap, min(l1, pairs)]; every range here
   is a bound on the TRUE statistic, with estimator error absorbed by a
   per-family slack at check time. *)
let l0_lo s = if s.l1 <= 0.0 || s.cap <= 0.0 then 0.0 else max 1.0 (s.l1 /. s.cap)
let l0_hi s = min s.l1 (pairs s)
let linf_lo s = if s.l1 <= 0.0 then 0.0 else max 1.0 (s.l1 /. pairs s)
let l2_lo s = if s.l1 <= 0.0 then 0.0 else max s.l1 (s.l1 *. s.l1 /. pairs s)
let l2_hi s = s.l1 *. s.cap

(* The interval of the TRUE statistic, from the shard facts alone. *)
let bounds s : Estimator.stat -> float * float = function
  | Norm0 { times } -> (times *. l0_lo s, times *. l0_hi s)
  | Norm1 -> (s.l1, s.l1)
  | Frob -> (l2_lo s, l2_hi s)
  | Norm_inf { kappa } -> (linf_lo s /. kappa, s.cap)
  | Pairs_upto -> (0.0, pairs s)
  | Disjoint_pairs { spread } ->
      (Float.max 0.0 (pairs s -. (spread *. l0_hi s)), pairs s)
  | Pairs_from_l0 { spread } -> (0.0, spread *. l0_hi s)

(* The one statistic the coordinator knows exactly: Remark 2's ‖C‖₁. *)
let known s : Estimator.stat -> float option = function
  | Norm1 -> Some s.l1
  | Norm0 _ | Frob | Norm_inf _ | Pairs_upto | Disjoint_pairs _
  | Pairs_from_l0 _ ->
      None

(* A scalar against the statistic's range [(lo, hi)] widened by [slack]
   (estimator error); an exact counting statistic must also be a whole
   number, and equal [exact] when the coordinator knows it. *)
let check_number ?exact ~integral ~slack (lo, hi) x =
  let fuzz = 1e-6 *. (1.0 +. Float.abs hi) in
  if not (Float.is_finite x) then fail "finite" "value %h is not finite" x
  else if x < -.fuzz then fail "non_negative" "value %g is negative" x
  else if integral && Float.abs (x -. Float.round x) > 1e-6 then
    fail "integral" "exact counting statistic %g is not a whole number" x
  else
    match exact with
    | Some v when Float.abs (x -. v) > fuzz ->
        fail "exact_value" "got %g, the identity gives exactly %g" x v
    | _ ->
        if x < (lo /. slack) -. fuzz then
          fail "range_low" "%g below slacked lower bound %g" x (lo /. slack)
        else if x > (hi *. slack) +. fuzz then
          fail "range_high" "%g above slacked upper bound %g" x (hi *. slack)
        else Pass

(* Leveled estimates: kappa-approximation range on the estimate, sanity
   on the subsampling level. *)
let check_leveled s ~kappa est level =
  if level < 0 || level > 64 then
    fail "level_range" "subsampling level %d outside [0, 64]" level
  else if not (Float.is_finite est) then fail "finite" "estimate %h not finite" est
  else if est < -1e-9 then fail "non_negative" "estimate %g is negative" est
  else
    let lo = linf_lo s /. kappa /. 2.0 and hi = s.cap *. 2.0 in
    let fuzz = 1e-6 *. (1.0 +. hi) in
    if est < lo -. fuzz then
      fail "range_low" "estimate %g below %g (kappa %.1f)" est lo kappa
    else if est > hi +. fuzz then
      fail "range_high" "estimate %g above %g" est hi
    else Pass

let in_bounds s r c = r >= 0 && r < s.out_rows && c >= 0 && c < s.out_cols

(* Heavy-hitter reports: every coordinate must really be (phi - eps)-heavy
   — adjudicated exactly, one intersection per reported coordinate. *)
let check_coords ~phi ~eps s cs =
  let thresh = ((phi -. eps) *. s.l1) -. 1e-9 in
  let seen = Hashtbl.create 16 in
  let rec go = function
    | [] -> Pass
    | (r, c) :: rest ->
        if not (in_bounds s r c) then
          fail "index_bounds" "coordinate (%d, %d) outside %dx%d" r c s.out_rows
            s.out_cols
        else if Hashtbl.mem seen (r, c) then
          fail "duplicate_coord" "coordinate (%d, %d) reported twice" r c
        else begin
          Hashtbl.add seen (r, c) ();
          let v = float_of_int (entry_value s r c) in
          if v < thresh then
            fail "heaviness" "C(%d,%d) = %g below (phi-eps) threshold %g" r c v
              thresh
          else go rest
        end
  in
  go cs

(* Drawn entries are individually provable: the l0 sample carries the
   exact entry value, the l1 sample carries a witness index. *)
let check_l0_sample s (smp : L0_sampling.sample) =
  let { L0_sampling.row = r; col = c; value = v } = smp in
  if not (in_bounds s r c) then
    fail "index_bounds" "sample (%d, %d) outside %dx%d" r c s.out_rows s.out_cols
  else
    let truth = entry_value s r c in
    if v <> truth then
      fail "sample_value" "sample claims C(%d,%d) = %d, truth is %d" r c v truth
    else if truth = 0 then fail "sample_support" "sample (%d, %d) is a zero entry" r c
    else Pass

let check_l1_sample s (smp : L1_sampling.sample) =
  let { L1_sampling.row = r; col = c; witness = w } = smp in
  if not (in_bounds s r c) then
    fail "index_bounds" "sample (%d, %d) outside %dx%d" r c s.out_rows s.out_cols
  else if w < 0 || w >= s.inner then
    fail "index_bounds" "witness %d outside inner dimension %d" w s.inner
  else if not (Bmat.get s.a r w && Bmat.get s.b w c) then
    fail "sample_witness" "witness %d is not a common index of A_%d and B^%d" w r c
  else Pass

(* The first failing draw's verdict; empty slots pass. *)
let check_draws check s draws =
  Array.fold_left
    (fun acc d ->
      match (acc, d) with Pass, Some smp -> check s smp | _ -> acc)
    Pass draws

(* Row estimates [(row, value)], called [what]: each row in bounds, each
   value finite, non-negative and at most [hi]. *)
let check_rows s ~what ~hi rows =
  let rec go = function
    | [] -> Pass
    | (i, v) :: rest ->
        if i < 0 || i >= s.out_rows then
          fail "index_bounds" "ranked row %d outside %d rows" i s.out_rows
        else if not (Float.is_finite v) then
          fail "finite" "row %d %s %h not finite" i what v
        else if v < -1e-9 then fail "non_negative" "row %d %s %g" i what v
        else if v > hi +. 1e-6 then
          fail "range_high" "row %d %s %g above %g" i what v hi
        else go rest
  in
  go rows

(* Additive product shares: total mass must equal the exact l1 (scale,
   sign and garbage all move it), and Freivalds' identity C.x = A.(B.x)
   over seeded 0/1 vectors catches anything that preserves mass. *)
let freivalds_rounds = 6

let check_shares s ~seed (ea, eb) =
  let bad =
    List.find_opt
      (fun (r, c, _) -> not (in_bounds s r c))
      (List.rev_append ea eb)
  in
  match bad with
  | Some (r, c, _) ->
      fail "index_bounds" "share entry (%d, %d) outside %dx%d" r c s.out_rows
        s.out_cols
  | None ->
      let mass =
        List.fold_left (fun acc (_, _, v) -> acc + v) 0 (List.rev_append ea eb)
      in
      if Float.abs (float_of_int mass -. s.l1) > 1e-6 then
        fail "share_mass" "shares sum to %d, the identity gives %g" mass s.l1
      else begin
        let g = Prng.derive seed 0x46726576 (* "Frev" *) 1 in
        let violation = ref None in
        let round = ref 0 in
        while !violation = None && !round < freivalds_rounds do
          incr round;
          let x = Array.init s.out_cols (fun _ -> if Prng.bool g then 1 else 0) in
          (* y_claim = C'.x from the claimed entries *)
          let y_claim = Array.make s.out_rows 0 in
          List.iter
            (fun (r, c, v) -> if x.(c) = 1 then y_claim.(r) <- y_claim.(r) + v)
            (List.rev_append ea eb);
          (* y_true = A.(B.x), never materialising C *)
          let u = Array.make s.inner 0 in
          for k = 0 to s.inner - 1 do
            u.(k) <-
              Array.fold_left (fun acc j -> acc + x.(j)) 0 (Bmat.row s.b k)
          done;
          let i = ref 0 in
          while !violation = None && !i < s.out_rows do
            let yt =
              Array.fold_left (fun acc k -> acc + u.(k)) 0 (Bmat.row s.a !i)
            in
            if yt <> y_claim.(!i) then violation := Some (!round, !i, y_claim.(!i), yt);
            incr i
          done
        done;
        match !violation with
        | None -> Pass
        | Some (r, i, got, want) ->
            fail "freivalds" "round %d row %d: C.x = %d but A.(B.x) = %d" r i got
              want
      end

(* --- the dispatcher, with cost accounting ------------------------------- *)

let c_checks = Metrics.counter "verify_checks"
let c_failures = Metrics.counter "verify_failures"
let h_verify = Metrics.histogram "verify_ns"

let shape_name : Estimator.answer -> string = function
  | Scalar _ -> "scalar"
  | Vector _ -> "vector"
  | Ranked _ -> "ranked"
  | Entry_set _ -> "entry_set"
  | L0_samples _ -> "l0_samples"
  | L1_samples _ -> "l1_samples"
  | Shares _ -> "shares"
  | Leveled _ -> "leveled"

let accounted ~estimator ~shape f =
  Metrics.incr c_checks;
  let v =
    Trace.with_span ~name:"verify.check"
      ~attrs:[ ("estimator", Json.String estimator); ("shape", Json.String shape) ]
      (fun () -> Metrics.timed h_verify f)
  in
  (match v with
  | Pass -> ()
  | Fail { invariant; detail } ->
      Metrics.incr c_failures;
      if Trace.enabled () then
        Trace.event ~name:"verify.violation"
          ~attrs:
            [
              ("estimator", Json.String estimator);
              ("invariant", Json.String invariant);
              ("detail", Json.String detail);
            ]
          ());
  v

let check ~name (contract : Estimator.contract) s ~seed
    (answer : Estimator.answer) =
  let shape = shape_name answer in
  accounted ~estimator:name ~shape @@ fun () ->
  match (contract, answer) with
  | Exact_count stat, Scalar x ->
      check_number ?exact:(known s stat) ~integral:true ~slack:1.0
        (bounds s stat) x
  | Approx { stat; slack; _ }, Scalar x ->
      check_number ~integral:false ~slack (bounds s stat) x
  | Level_approx { kappa; _ }, Leveled (est, level) ->
      check_leveled s ~kappa est level
  | Heavy_hitters { phi; eps }, Entry_set cs -> check_coords ~phi ~eps s cs
  | L0_draw, L0_samples ds -> check_draws check_l0_sample s ds
  | L1_draw, L1_samples ds -> check_draws check_l1_sample s ds
  | Product_shares, Shares (ea, eb) -> check_shares s ~seed (ea, eb)
  | Per_row { stat; slack }, Vector v ->
      (* a [nan] row is one no shard covered (a degraded merge) *)
      List.mapi (fun i x -> (i, x)) (Array.to_list v)
      |> List.filter (fun (_, x) -> not (Float.is_nan x))
      |> check_rows s ~what:"norm" ~hi:(snd (bounds s stat) *. slack)
  | Top_k { stat; slack; _ }, Ranked rs ->
      check_rows s ~what:"score" ~hi:(snd (bounds s stat) *. slack) rs
  | ( ( Exact_count _ | Approx _ | Level_approx _ | Heavy_hitters _ | L0_draw
      | L1_draw | Product_shares | Per_row _ | Top_k _ ),
      _ ) ->
      fail "answer_shape" "a %s answer breaks %s's contract" shape name

(* --- corruption: the attack half ---------------------------------------- *)

let scale_factor = 16.0

let corrupt_num mode g x =
  match (mode : Fault.byzantine_mode) with
  | Fault.Scale -> x *. scale_factor
  | Fault.Sign_flip -> -.x
  | Fault.Swap -> if Float.abs x < 1e-12 then 1e6 else 1.0 /. x
  | Fault.Garbage -> 1e12 *. (1.0 +. Prng.float g)

let corrupt_entry mode g (r, c, v) =
  match (mode : Fault.byzantine_mode) with
  | Fault.Scale -> (r, c, v * 16)
  | Fault.Sign_flip -> (r, c, -v)
  | Fault.Swap -> (c, r, v)
  | Fault.Garbage ->
      let big = 1_000_000 + Prng.int g 1_000_000 in
      (big, big, 1 + Prng.int g 1_000_000)

let corrupt_coord mode g (r, c) =
  match (mode : Fault.byzantine_mode) with
  | Fault.Scale -> (r + 1, c)
  | Fault.Sign_flip -> (-r - 1, c)
  | Fault.Swap -> (c, r)
  | Fault.Garbage -> (1_000_000 + Prng.int g 1_000_000, Prng.int g 1_000_000)

let corrupt mode g (answer : Estimator.answer) : Estimator.answer =
  match answer with
  | Scalar x -> Scalar (corrupt_num mode g x)
  | Vector v -> Vector (Array.map (corrupt_num mode g) v)
  | Ranked rs -> Ranked (List.map (fun (i, v) -> (i, corrupt_num mode g v)) rs)
  | Leveled (est, level) -> (
      match mode with
      | Fault.Swap ->
          (* swap the estimate and the level — fields trade places *)
          Leveled (float_of_int level, int_of_float (Float.min est 64.0))
      | _ -> Leveled (corrupt_num mode g est, level))
  | Entry_set cs -> Entry_set (List.map (corrupt_coord mode g) cs)
  | L0_samples ds ->
      L0_samples
        (Array.map
           (Option.map (fun { L0_sampling.row; col; value } ->
                let row, col, value = corrupt_entry mode g (row, col, value) in
                { L0_sampling.row; col; value }))
           ds)
  | L1_samples ds ->
      L1_samples
        (Array.map
           (Option.map (fun { L1_sampling.row; col; witness } ->
                let row, col, witness = corrupt_entry mode g (row, col, witness) in
                { L1_sampling.row; col; witness }))
           ds)
  | Shares ([], eb) -> Shares ([], List.map (corrupt_entry mode g) eb)
  | Shares (ea, eb) -> Shares (List.map (corrupt_entry mode g) ea, eb)

(* --- replica voting ------------------------------------------------------ *)

(* Additive tolerance for statistics whose honest spread is absolute, not
   multiplicative (disjointness counts cluster near n*m; threshold-join
   counts near 0): the spread of the ||C||_0 estimate they rest on. *)
let numeric_atol s : Estimator.stat -> float = function
  | Disjoint_pairs { spread } | Pairs_from_l0 { spread } ->
      (spread *. l0_hi s) +. 1.0
  | Norm0 _ | Norm1 | Frob | Norm_inf _ | Pairs_upto -> 0.0

(* Shares at different seeds split differently but reconstruct the same
   product: canonicalise to the merged entry list before equality. *)
let reconstruct_shares (ea, eb) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r, c, v) ->
      let k = (r, c) in
      Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    (List.rev_append ea eb);
  Hashtbl.fold (fun (r, c) v acc -> if v = 0 then acc else (r, c, v) :: acc) tbl []
  |> List.sort compare

let ratio_consistent ~ratio ~atol v1 v2 =
  Float.is_finite v1 && Float.is_finite v2 && v1 >= -1e-9 && v2 >= -1e-9
  && (Float.abs (v1 -. v2) <= atol +. (1e-9 *. (1.0 +. Float.abs v1 +. Float.abs v2))
     || (v1 > 0.0 && v2 > 0.0 && Float.max v1 v2 /. Float.min v1 v2 <= ratio))

let consistent (contract : Estimator.contract) s (c1 : Estimator.answer)
    (c2 : Estimator.answer) =
  match (contract, c1, c2) with
  | (Exact_count _ | Per_row _ | Top_k _), _, _ -> c1 = c2
  | Product_shares, Shares (a1, b1), Shares (a2, b2) ->
      reconstruct_shares (a1, b1) = reconstruct_shares (a2, b2)
  | Approx { stat; ratio; _ }, Scalar v1, Scalar v2 ->
      ratio_consistent ~ratio ~atol:(numeric_atol s stat) v1 v2
  | Level_approx { ratio; _ }, Leveled (e1, _), Leveled (e2, _) ->
      ratio_consistent ~ratio ~atol:0.0 e1 e2
  | Heavy_hitters _, Entry_set _, Entry_set _
  | L0_draw, L0_samples _, L0_samples _
  | L1_draw, L1_samples _, L1_samples _ ->
      true (* individually adjudicated by [check]; replicas never clash *)
  | ( ( Product_shares | Approx _ | Level_approx _ | Heavy_hitters _ | L0_draw
      | L1_draw ),
      _,
      _ ) ->
      false (* mismatched shapes are never consistent *)

type vote_result = {
  chosen : int;
  chosen_answer : Estimator.answer;
  agreed : int list;
  outvoted : (int * string) list;
}

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let vote (contract : Estimator.contract) s (replicas : (int * Estimator.answer) list) =
  let arr = Array.of_list replicas in
  let n = Array.length arr in
  if n = 0 then None
  else if n > 16 then invalid_arg "Verify.vote: more than 16 replicas"
  else begin
    let ok = Array.make_matrix n n true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let c = consistent contract s (snd arr.(i)) (snd arr.(j)) in
        ok.(i).(j) <- c;
        ok.(j).(i) <- c
      done
    done;
    (* Largest pairwise-consistent subset with a strict majority; the
       smallest qualifying mask prefers low replica indices on ties. *)
    let best = ref 0 in
    for mask = 1 to (1 lsl n) - 1 do
      if popcount mask > popcount !best then begin
        let pairwise = ref true in
        for i = 0 to n - 1 do
          if mask land (1 lsl i) <> 0 then
            for j = i + 1 to n - 1 do
              if mask land (1 lsl j) <> 0 && not ok.(i).(j) then pairwise := false
            done
        done;
        if !pairwise && 2 * popcount mask > n then best := mask
      end
    done;
    if !best = 0 then None
    else begin
      let winners = ref [] and losers = ref [] in
      for i = n - 1 downto 0 do
        if !best land (1 lsl i) <> 0 then winners := i :: !winners
        else losers := i :: !losers
      done;
      let rep_slot =
        match (contract, !winners) with
        | Approx _, (_ :: _ :: _ as ws) -> (
            (* The Boosting tie-break: the winner nearest the median of
               the winning values keeps a real replica's answer as the
               representative. *)
            let vals =
              List.filter_map
                (fun i ->
                  match snd arr.(i) with
                  | Estimator.Scalar v -> Some (i, v)
                  | _ -> None)
                ws
            in
            match vals with
            | [] -> List.hd ws
            | _ ->
                let med =
                  Stats.median (Array.of_list (List.map snd vals))
                in
                fst
                  (List.fold_left
                     (fun (bi, bd) (i, v) ->
                       let d = Float.abs (v -. med) in
                       if d < bd then (i, d) else (bi, bd))
                     (fst (List.hd vals), infinity)
                     vals))
        | ( ( Exact_count _ | Approx _ | Level_approx _ | Heavy_hitters _
            | L0_draw | L1_draw | Product_shares | Per_row _ | Top_k _ ),
            ws ) ->
            List.hd ws
      in
      let replica_of i = fst arr.(i) in
      Some
        {
          chosen = replica_of rep_slot;
          chosen_answer = snd arr.(rep_slot);
          agreed = List.map replica_of !winners;
          outvoted =
            List.map
              (fun i ->
                ( replica_of i,
                  Printf.sprintf
                    "replica disagrees with the %d-of-%d majority clique"
                    (List.length !winners) n ))
              !losers;
        }
    end
  end
