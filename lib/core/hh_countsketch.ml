module Imat = Matprod_matrix.Imat
module Pool = Matprod_util.Pool
module Cm = Matprod_sketch.Compressed_matmul
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec

type params = { p : float; phi : float; eps : float; buckets : int; reps : int }

let default_params ~phi ~eps ~buckets = { p = 1.0; phi; eps; buckets; reps = 3 }

let run ctx prm ~a ~b =
  if prm.p <> 1.0 then invalid_arg "Hh_countsketch: only p = 1";
  if not (0.0 < prm.eps && prm.eps <= prm.phi && prm.phi <= 1.0) then
    invalid_arg "Hh_countsketch: need 0 < eps <= phi <= 1";
  if Imat.cols a <> Imat.rows b then invalid_arg "Hh_countsketch: dims";
  let inner = Imat.cols a in
  let cm = Cm.create ctx.Ctx.public ~buckets:prm.buckets ~reps:prm.reps in
  (* One speaking phase: ||C||_1 column sums + all half-sketches of A. *)
  let l1 = L1_exact.run ctx ~a ~b in
  if l1 = 0 then []
  else begin
    let at = Imat.transpose a in
    let halves =
      Array.init (Cm.reps cm) (fun rep ->
          Pool.init inner (fun k -> Cm.half_sketch_left cm ~rep (Imat.row at k)))
    in
    let halves' =
      Ctx.a2b ctx ~label:"countsketch halves of A cols"
        (Codec.array (Codec.array Codec.float32_array))
        halves
    in
    (* Bob: convolve with his rows' halves, then scan for heavy entries. *)
    let sketches =
      Array.init (Cm.reps cm) (fun rep ->
          let right =
            Pool.init inner (fun k -> Cm.half_sketch_right cm ~rep (Imat.row b k))
          in
          Cm.combine cm ~rep ~left:halves'.(rep) ~right)
    in
    let threshold = (prm.phi -. (prm.eps /. 2.0)) *. float_of_int l1 in
    let out = ref [] in
    for i = Imat.rows a - 1 downto 0 do
      for j = Imat.cols b - 1 downto 0 do
        if Cm.query cm ~sketches i j >= threshold then out := (i, j) :: !out
      done
    done;
    !out
  end
