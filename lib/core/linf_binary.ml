module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Entry_map = Common.Entry_map

type params = { eps : float; gamma_const : float }

let default_params ~eps = { eps; gamma_const = 8.0 }

type result = { estimate : float; level : int; p_level : float }

let index_lists_codec = Codec.list (Codec.pair Codec.uint Codec.sorted_int_array)

let run_with ctx ~base ~threshold ~a ~b =
  if Bmat.cols a <> Bmat.rows b then invalid_arg "Linf_binary: dims";
  if not (base > 1.0) then invalid_arg "Linf_binary: base > 1";
  let inner = Bmat.cols a in
  let nnz_a = Bmat.nnz a in
  (* Number of levels: enough to drive ||A^L||_1 to ~0. *)
  let nlevels =
    2 + int_of_float (Float.ceil (log (float_of_int (max 2 (2 * nnz_a))) /. log base))
  in
  (* Alice: one geometric level per 1-entry => nested subsamples. *)
  let rate = 1.0 /. base in
  let entry_levels =
    Array.init (Bmat.rows a) (fun i ->
        Array.map
          (fun _k -> min (nlevels - 1) (Prng.geometric_level ctx.Ctx.alice rate))
          (Bmat.row a i))
  in
  (* Column sums of every level. *)
  let colsums = Array.init nlevels (fun _ -> Array.make inner 0) in
  Array.iteri
    (fun i lv ->
      Array.iteri
        (fun idx lmax ->
          let k = (Bmat.row a i).(idx) in
          for l = 0 to lmax do
            colsums.(l).(k) <- colsums.(l).(k) + 1
          done)
        lv)
    entry_levels;
  (* Round 1 (Alice -> Bob): all levels' column sums, sparsely encoded so
     the cost tracks the surviving support (essential after Algorithm 3's
     universe sampling). *)
  let to_sparse arr =
    let out = ref [] in
    for k = Array.length arr - 1 downto 0 do
      if arr.(k) <> 0 then out := (k, arr.(k)) :: !out
    done;
    Array.of_list !out
  in
  let of_sparse pairs =
    let arr = Array.make inner 0 in
    Array.iter (fun (k, v) -> arr.(k) <- v) pairs;
    arr
  in
  let colsums' =
    Array.map of_sparse
      (Ctx.a2b ctx ~label:"level column sums of A"
         (Codec.array Codec.sparse_int_vec)
         (Array.map to_sparse colsums))
  in
  (* Bob: ||C^l||_1 = sum_k colsum_l(k) * rowweight_B(k); pick l*. *)
  let rowweights = Array.init inner (fun k -> Bmat.row_weight b k) in
  let l1_of_level l =
    let acc = ref 0 in
    Array.iteri (fun k u -> acc := !acc + (u * rowweights.(k))) colsums'.(l);
    !acc
  in
  let rec find_level l =
    if l >= nlevels - 1 then nlevels - 1
    else if float_of_int (l1_of_level l) <= threshold then l
    else find_level (l + 1)
  in
  let lstar = find_level 0 in
  (* Round 2 (Bob -> Alice): l*, his per-index weights, and his index sets
     where his side is strictly smaller. *)
  let bob_lists =
    List.filter_map
      (fun k ->
        let uk = colsums'.(lstar).(k) and vk = rowweights.(k) in
        if vk < uk && vk > 0 then Some (k, Bmat.row b k) else None)
      (List.init inner (fun k -> k))
  in
  let lstar', rowweights', bob_lists' =
    Ctx.b2a ctx ~label:"l*, B weights, B index sets"
      (Codec.triple Codec.uint Codec.uint_array index_lists_codec)
      (lstar, rowweights, bob_lists)
  in
  (* Alice knows her own level column sums, indexed by the received l*. *)
  let u_star k = colsums.(lstar').(k) in
  (* Alice: the surviving entries of column k at level l*. *)
  let level_col k =
    let out = ref [] in
    for i = Bmat.rows a - 1 downto 0 do
      let row = Bmat.row a i in
      let lv = entry_levels.(i) in
      (* binary search for k in row *)
      let rec find lo hi =
        if lo >= hi then ()
        else
          let mid = (lo + hi) / 2 in
          if row.(mid) = k then (if lv.(mid) >= lstar' then out := i :: !out)
          else if row.(mid) < k then find (mid + 1) hi
          else find lo mid
      in
      find 0 (Array.length row)
    done;
    Array.of_list !out
  in
  (* Alice's share: indices Bob shipped. *)
  let ca = Entry_map.create () in
  List.iter
    (fun (k, bob_set) ->
      let acol = level_col k in
      Array.iter
        (fun i -> Array.iter (fun j -> Entry_map.add ca i j 1) bob_set)
        acol)
    bob_lists';
  let ca_max = Entry_map.linf ca in
  (* Round 3 (Alice -> Bob): her index sets where her side is not larger,
     plus ||C_A||_inf. *)
  let alice_lists =
    List.filter_map
      (fun k ->
        let uk = u_star k and vk = rowweights'.(k) in
        if uk <= vk && uk > 0 && vk > 0 then Some (k, level_col k) else None)
      (List.init inner (fun k -> k))
  in
  let alice_lists', ca_max' =
    Ctx.a2b ctx ~label:"A index sets, |C_A|inf"
      (Codec.pair index_lists_codec Codec.uint)
      (alice_lists, ca_max)
  in
  (* Bob's share. *)
  let cb = Entry_map.create () in
  List.iter
    (fun (k, acol) ->
      let brow = Bmat.row b k in
      Array.iter
        (fun i -> Array.iter (fun j -> Entry_map.add cb i j 1) brow)
        acol)
    alice_lists';
  let p_level = rate ** float_of_int lstar' in
  {
    estimate = float_of_int (max ca_max' (Entry_map.linf cb)) /. p_level;
    level = lstar';
    p_level;
  }

let run ctx prm ~a ~b =
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "Linf_binary: eps range";
  let n = max (Bmat.rows a) (Bmat.cols b) in
  let gamma = prm.gamma_const *. Common.log_factor n /. (prm.eps *. prm.eps) in
  let threshold =
    gamma *. float_of_int (Bmat.rows a) *. float_of_int (Bmat.cols b)
  in
  run_with ctx ~base:(1.0 +. prm.eps) ~threshold ~a ~b
