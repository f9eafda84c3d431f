module Prng = Matprod_util.Prng

type t = { dim : int; block : int; blocks : int; ams : Ams.t array }

let create rng ~dim ~kappa =
  if dim <= 0 then invalid_arg "Blocked_ams.create: dim";
  if kappa < 1.0 then invalid_arg "Blocked_ams.create: kappa >= 1";
  let block = max 1 (min dim (int_of_float (Float.ceil (kappa *. kappa)))) in
  let blocks = (dim + block - 1) / block in
  (* Constant accuracy per block: eps = 1/2, a few groups for the union
     bound over blocks. *)
  let ams =
    Array.init blocks (fun _ -> Ams.create_rows rng ~rows_per_group:24 ~groups:5)
  in
  { dim; block; blocks; ams }

let blocks t = t.blocks

let block_size t = Ams.size t.ams.(0)
let size t = t.blocks * block_size t
let empty t = Array.make (size t) 0.0

let sketch t vec =
  let out = empty t in
  let bs = block_size t in
  Array.iter
    (fun (i, v) ->
      if i < 0 || i >= t.dim then invalid_arg "Blocked_ams.sketch: index";
      if v <> 0 then begin
        let b = i / t.block in
        let local = i mod t.block in
        let y = Ams.sketch t.ams.(b) [| (local, v) |] in
        for r = 0 to bs - 1 do
          out.((b * bs) + r) <- out.((b * bs) + r) +. y.(r)
        done
      end)
    vec;
  out

let add_scaled t ~dst ~coeff src =
  if Array.length dst <> size t || Array.length src <> size t then
    invalid_arg "Blocked_ams.add_scaled: size mismatch";
  if coeff <> 0 then
    let c = float_of_int coeff in
    for i = 0 to size t - 1 do
      dst.(i) <- dst.(i) +. (c *. src.(i))
    done

let estimate_linf t arr =
  if Array.length arr <> size t then invalid_arg "Blocked_ams.estimate_linf";
  let bs = block_size t in
  let best = ref 0.0 in
  for b = 0 to t.blocks - 1 do
    let y = Array.sub arr (b * bs) bs in
    let est = sqrt (Ams.estimate_sq t.ams.(b) y) in
    if est > !best then best := est
  done;
  !best
