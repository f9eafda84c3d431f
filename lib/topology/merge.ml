module Prng = Matprod_util.Prng
module Estimator = Matprod_core.Estimator
module L0_sampling = Matprod_core.L0_sampling
module L1_sampling = Matprod_core.L1_sampling
module Engine = Matprod_engine.Engine

type 'a part = {
  rank : int;
  range : Shard.range;
  value : 'a;
}

let shape_error () = invalid_arg "Merge: mixed answer shapes"

let by_rank parts =
  if parts = [] then invalid_arg "Merge: no parts";
  List.sort (fun a b -> compare a.rank b.rank) parts

(* The stream every seeded sample draw consumes, fresh per merged answer. *)
let merge_rng seed = Prng.create (seed lxor 0x6d657267 (* "merg" *))

let fold_numbers f init number parts =
  List.fold_left (fun acc p -> f acc (number p.value)) init parts

let max_leveled parts =
  let leveled p =
    match p.value with Estimator.Leveled (e, l) -> (e, l) | _ -> shape_error ()
  in
  let e, l =
    List.fold_left
      (fun (e', l') p ->
        let e, l = leveled p in
        if e > e' then (e, l) else (e', l'))
      (leveled (List.hd parts))
      (List.tl parts)
  in
  Estimator.Leveled (e, l)

let union_coords coords parts =
  List.sort_uniq compare
    (List.concat_map
       (fun p ->
         List.map (fun (r, c) -> (r + p.range.Shard.offset, c)) (coords p.value))
       parts)

(* Slot j of the merged array is a weighted reservoir over the shards
   that filled slot j: shard i keeps it with probability row_i / (rows
   seen so far). One PRNG draw per present sample, so the choice is a
   deterministic function of (seed, surviving parts) — a quorum merge
   consumes exactly the same stream as the full merge restricted to the
   same survivors. *)
let pick_slots rng ~shift samples parts =
  let parts = List.map (fun p -> (p.range, samples p.value)) parts in
  let slots = List.fold_left (fun acc (_, ss) -> max acc (Array.length ss)) 0 parts in
  Array.init slots (fun j ->
      let chosen = ref None and total = ref 0 in
      List.iter
        (fun ({ Shard.offset; length }, ss) ->
          match if j < Array.length ss then ss.(j) else None with
          | None -> ()
          | Some s ->
              total := !total + length;
              if Prng.float rng *. float_of_int !total < float_of_int length then
                chosen := Some (shift offset s))
        parts;
      !chosen)

(* The coordinator holds B and is the client the fleet answers to, so for
   share answers it reconstructs each shard's exact product C⟨i⟩ =
   C_A + C_B and returns the merged entries of C. Zero shards cancel to
   nothing, so the merge is a pure function of the product. *)
let product_entries shares parts =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let alice, bob = shares p.value in
      List.iter
        (fun (r, c, v) ->
          let key = (r + p.range.Shard.offset, c) in
          let cur = try Hashtbl.find tbl key with Not_found -> 0 in
          Hashtbl.replace tbl key (cur + v))
        (alice @ bob))
    parts;
  List.sort compare
    (Hashtbl.fold
       (fun (r, c) v acc -> if v = 0 then acc else (r, c, v) :: acc)
       tbl [])

(* Over disjoint row blocks ||C||_inf is the largest block's; every other
   statistic (norm powers, counts, join sizes) is the blocks' sum. *)
let merge_stat parts : Estimator.stat -> Estimator.answer =
  let number = function Estimator.Scalar x -> x | _ -> shape_error () in
  function
  | Norm_inf _ -> Scalar (fold_numbers Float.max neg_infinity number parts)
  | Norm0 _ | Norm1 | Frob | Pairs_upto | Disjoint_pairs _ | Pairs_from_l0 _ ->
      Scalar (fold_numbers ( +. ) 0.0 number parts)

(* Each shard's row estimates land at its own rows; rows no part covers
   stay [nan]. *)
let place_rows ~rows parts =
  let out = Array.make rows Float.nan in
  List.iter
    (fun p ->
      let { Shard.offset; length } = p.range in
      match p.value with
      | Estimator.Vector v when Array.length v = length ->
          Array.blit v 0 out offset length
      | _ -> shape_error ())
    parts;
  out

(* The translated union re-ranked: largest estimate first, ties to the
   lower row. *)
let rerank ~k parts =
  List.concat_map
    (fun p ->
      match p.value with
      | Estimator.Ranked rs ->
          List.map (fun (i, est) -> (i + p.range.Shard.offset, est)) rs
      | _ -> shape_error ())
    parts
  |> List.sort (fun (i, x) (j, y) ->
         match compare y x with 0 -> compare i j | c -> c)
  |> List.filteri (fun i _ -> i < k)

let merge ~seed ~rows (contract : Estimator.contract) parts :
    Estimator.answer =
  let parts = by_rank parts in
  match contract with
  | Exact_count stat | Approx { stat; _ } -> merge_stat parts stat
  | Level_approx _ -> max_leveled parts
  | Heavy_hitters _ ->
      Entry_set
        (union_coords
           (function Estimator.Entry_set cs -> cs | _ -> shape_error ())
           parts)
  | L0_draw ->
      L0_samples
        (pick_slots (merge_rng seed)
           ~shift:(fun offset (s : L0_sampling.sample) ->
             { s with L0_sampling.row = s.L0_sampling.row + offset })
           (function Estimator.L0_samples ss -> ss | _ -> shape_error ())
           parts)
  | L1_draw ->
      (* [witness] indexes the inner dimension, shared by all shards — only
         the row translates. *)
      L1_samples
        (pick_slots (merge_rng seed)
           ~shift:(fun offset (s : L1_sampling.sample) ->
             { s with L1_sampling.row = s.L1_sampling.row + offset })
           (function Estimator.L1_samples ss -> ss | _ -> shape_error ())
           parts)
  | Product_shares ->
      Shares
        ( product_entries
            (function Estimator.Shares (a, b) -> (a, b) | _ -> shape_error ())
            parts,
          [] )
  | Per_row _ -> Vector (place_rows ~rows parts)
  | Top_k { k; _ } -> Ranked (rerank ~k parts)

let merge_batch ~seed ~rows queries parts =
  let parts = by_rank parts in
  let nq = List.length queries in
  if List.exists (fun p -> Array.length p.value <> nq) parts then
    invalid_arg "Merge: ragged batch answers";
  Array.of_list
    (List.mapi
       (fun qi q ->
         merge ~seed ~rows (Engine.contract q)
           (List.map (fun p -> { p with value = p.value.(qi) }) parts))
       queries)
