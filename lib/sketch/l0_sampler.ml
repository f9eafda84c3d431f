module Prng = Matprod_util.Prng
module Hashing = Matprod_util.Hashing
module Stats = Matprod_util.Stats
module Codec = Matprod_comm.Codec
module Metrics = Matprod_obs.Metrics

let h_build = Metrics.histogram ~label:"l0_sampler" "sketch_build_ns"

type t = {
  dim : int;
  levels : int;
  s : int;
  level_hash : Hashing.t;
  recover : S_sparse.t array; (* one per level *)
  l0 : L0_sketch.t;
}

type state = { rec_states : S_sparse.state array; l0_state : L0_sketch.state }

let levels_for dim =
  let rec go l acc = if acc >= dim then l else go (l + 1) (acc * 2) in
  max 1 (go 1 2)

let create rng ~dim ?(s = 12) ?(reps = 3) () =
  if dim <= 0 then invalid_arg "L0_sampler.create: dim";
  let levels = levels_for dim in
  {
    dim;
    levels;
    s;
    level_hash = Hashing.create rng ~k:2;
    recover = Array.init levels (fun _ -> S_sparse.create rng ~s ~reps);
    l0 = L0_sketch.create rng ~eps:0.25 ~groups:3 ~dim;
  }

let dim t = t.dim

let fresh t =
  {
    rec_states = Array.map S_sparse.fresh t.recover;
    l0_state = L0_sketch.empty t.l0;
  }

(* Coordinate i survives at levels 0 .. min(levels-1, floor(-log2 u_i)). *)
let coord_depth t i =
  let u = Hashing.float01 t.level_hash i in
  let u = if u <= 0.0 then 1e-12 else u in
  min (t.levels - 1) (int_of_float (Float.floor (-.Stats.log2 u)))

(* Level l's recovery sketch sees the coordinates that survive to l. The
   parts are built untimed, so the sampler's build is counted once. *)
let sketch t vec =
  Metrics.timed h_build (fun () ->
      let live =
        List.filter_map
          (fun (i, v) ->
            if i < 0 || i >= t.dim then invalid_arg "L0_sampler.sketch: index range";
            if v <> 0 then Some (coord_depth t i, (i, v)) else None)
          (Array.to_list vec)
      in
      let at_level l =
        Array.of_list (List.filter_map (fun (d, e) -> if d >= l then Some e else None) live)
      in
      {
        rec_states = Array.init t.levels (fun l -> S_sparse.build t.recover.(l) (at_level l));
        l0_state = L0_sketch.build t.l0 vec;
      })

let add_scaled t acc ~coeff src =
  if coeff = 0 then acc
  else
    {
      rec_states =
        Array.init t.levels (fun l ->
            S_sparse.add_scaled t.recover.(l) acc.rec_states.(l) ~coeff
              src.rec_states.(l));
      l0_state = L0_sketch.add_scaled t.l0 acc.l0_state ~coeff src.l0_state;
    }

let estimate_l0 t st = L0_sketch.estimate t.l0 st.l0_state

let sample t st =
  let r = estimate_l0 t st in
  if r <= 0.0 then None
  else
    let target =
      (* level where about s/2 coordinates survive *)
      let l = int_of_float (Float.ceil (Stats.log2 (2.0 *. r /. float_of_int t.s))) in
      max 0 (min (t.levels - 1) l)
    in
    (* Try the target level first, then neighbours. *)
    let candidates =
      List.filter
        (fun l -> l >= 0 && l < t.levels)
        [ target; target + 1; target - 1; target + 2 ]
    in
    let decode_at l =
      match S_sparse.decode t.recover.(l) st.rec_states.(l) with
      | S_sparse.Ok ((_ :: _ as pairs)) -> Some pairs
      | S_sparse.Ok [] | S_sparse.Fail -> None
    in
    match List.find_map decode_at candidates with
    | None -> None
    | Some pairs ->
        (* Survivor with the minimum subsampling hash = global minimum over
           the support (it survives deepest), hence uniform over supp(x). *)
        let best =
          List.fold_left
            (fun acc (i, v) ->
              let u = Hashing.float01 t.level_hash i in
              match acc with
              | Some (_, _, ubest) when ubest <= u -> acc
              | _ -> Some (i, v, u))
            None pairs
        in
        Option.map (fun (i, v, _) -> (i, v)) best

(* Every level has level 0's s and reps. Counts and sizes are bounded before
   allocating, so a decode never allocates more than the receiver's state. *)
let wire t =
  let l0_size = L0_sketch.size t.l0 in
  Codec.map
    (fun st -> (st.rec_states, st.l0_state))
    (fun (rec_states, l0_state) ->
      if Array.length rec_states <> t.levels || l0_state.Codec.length <> l0_size
      then raise (Codec.Decode_error "L0_sampler.wire: shape mismatch");
      { rec_states; l0_state })
    (Codec.pair
       (Codec.array ~max_length:t.levels (S_sparse.wire t.recover.(0)))
       (Codec.bounded_counter_array ~max_length:l0_size))
