module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Ctx = Matprod_comm.Ctx

type params = { kappa : float; alpha_const : float }

let default_params ~kappa = { kappa; alpha_const = 8.0 }

type result = { estimate : float; level : int; q : float }

let run ctx prm ~a ~b =
  if Bmat.cols a <> Bmat.rows b then invalid_arg "Linf_kappa: dims";
  if prm.kappa < 1.0 then invalid_arg "Linf_kappa: kappa >= 1";
  let inner = Bmat.cols a in
  let n = max (Bmat.rows a) (Bmat.cols b) in
  let alpha = prm.alpha_const *. Common.log_factor n in
  let q = Float.min 1.0 (alpha /. prm.kappa) in
  (* Universe sampling with shared coins: both parties know the surviving
     columns of A, so no communication is charged for it. *)
  let survives = Array.init inner (fun _ -> Prng.bernoulli ctx.Ctx.public q) in
  let a' = Bmat.filter_entries a (fun _ k -> survives.(k)) in
  (* ||D||_1 and ||C||_1 via the Remark 2 identity (exchange column sums of
     A and A'); fold both into the Algorithm 2 engine's round 1 by checking
     emptiness first with one cheap exact exchange. *)
  let d_l1 = L1_exact.run_bool ctx ~a:a' ~b in
  if d_l1 = 0 then begin
    let c_l1 = L1_exact.run_bool ctx ~a ~b in
    { estimate = (if c_l1 = 0 then 0.0 else 1.0); level = 0; q }
  end
  else begin
    let threshold =
      alpha /. prm.kappa *. float_of_int (Bmat.rows a) *. float_of_int (Bmat.cols b)
    in
    let r = Linf_binary.run_with ctx ~base:2.0 ~threshold ~a:a' ~b in
    { estimate = r.Linf_binary.estimate /. q; level = r.Linf_binary.level; q }
  end
