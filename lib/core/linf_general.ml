module Imat = Matprod_matrix.Imat
module Pool = Matprod_util.Pool
module Blocked_ams = Matprod_sketch.Blocked_ams
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

type params = { kappa : float }

let run ctx prm ~a ~b =
  if Imat.cols a <> Imat.rows b then invalid_arg "Linf_general: dims";
  if prm.kappa < 1.0 then invalid_arg "Linf_general: kappa >= 1";
  let sk =
    Blocked_ams.create ctx.Ctx.public ~dim:(max 1 (Imat.rows a))
      ~kappa:prm.kappa
  in
  let at = Imat.transpose a in
  let alice_msg =
    Pool.init (Imat.cols a) (fun k -> Blocked_ams.sketch sk (Imat.row at k))
  in
  let sketches =
    Ctx.a2b ctx ~label:"blocked-AMS sketches of A cols"
      (Codec.array Codec.float32_array) alice_msg
  in
  let bt = Imat.transpose b in
  (* Per-column estimates fan out; the max folds sequentially in column
     order, matching the single-domain loop comparison for comparison. *)
  let ests =
    Pool.init (Imat.cols b) (fun j ->
        let acc = Blocked_ams.empty sk in
        Array.iter
          (fun (k, v) -> Blocked_ams.add_scaled sk ~dst:acc ~coeff:v sketches.(k))
          (Imat.row bt j);
        Blocked_ams.estimate_linf sk acc)
  in
  Array.fold_left (fun best est -> if est > best then est else best) 0.0 ests
