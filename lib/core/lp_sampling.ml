module Prng = Matprod_util.Prng
module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

type params = { p : float; eps : float; sketch_groups : int }

let default_params ?(p = 2.0) ~eps () = { p; eps; sketch_groups = 5 }

type sample = { row : int; col : int; value : int }

let pick_weighted rng weights total =
  let target = Prng.float rng *. total in
  let acc = ref 0.0 and chosen = ref (Array.length weights - 1) in
  (try
     Array.iteri
       (fun i w ->
         acc := !acc +. w;
         if !acc >= target then begin
           chosen := i;
           raise Exit
         end)
       weights
   with Exit -> ());
  !chosen

let run ctx prm ~a ~b =
  if not (prm.p >= 0.0 && prm.p <= 2.0) then invalid_arg "Lp_sampling: p range";
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then invalid_arg "Lp_sampling: eps";
  if Imat.cols a <> Imat.rows b then invalid_arg "Lp_sampling: dims";
  (* Round 1 (Bob -> Alice): lp sketches of B's rows at full accuracy. *)
  let dim = max 1 (Imat.cols b) in
  let lp =
    Lp.create ctx.Ctx.public ~p:prm.p ~eps:prm.eps ~groups:prm.sketch_groups ~dim
  in
  let est =
    Lp_protocol.exchange_row_sketches ctx lp (Lp.plan lp ~dim)
      ~label:"lp-sketches for row sampling" ~a ~b
    |> Array.map (Float.max 0.0)
  in
  let total = Array.fold_left ( +. ) 0.0 est in
  if total <= 0.0 then None
  else begin
    (* Alice samples a row ∝ its estimated mass and ships it. *)
    let i = pick_weighted ctx.Ctx.alice est total in
    let i', a_row =
      Ctx.a2b ctx ~label:"sampled row of A"
        (Codec.pair Codec.uint Codec.sparse_int_vec)
        (i, Imat.row a i)
    in
    (* Bob: exact row of C, entry sampled ∝ |C_ij|^p. *)
    let c_row = Common.row_times_matrix a_row b in
    let weights =
      Array.map
        (fun v ->
          if v = 0 then 0.0
          else if prm.p = 0.0 then 1.0
          else Float.abs (float_of_int v) ** prm.p)
        c_row
    in
    let row_total = Array.fold_left ( +. ) 0.0 weights in
    if row_total <= 0.0 then None
    else begin
      let j = pick_weighted ctx.Ctx.bob weights row_total in
      Some { row = i'; col = j; value = c_row.(j) }
    end
  end
