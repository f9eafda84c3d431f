module Prng = Matprod_util.Prng
module Pool = Matprod_util.Pool
module Imat = Matprod_matrix.Imat
module Lp = Matprod_sketch.Lp
module Ctx = Matprod_comm.Ctx
module Codec = Matprod_comm.Codec
module Trace = Matprod_obs.Trace

type params = {
  p : float;
  eps : float;
  sketch_groups : int;
  rho_const : float;
}

let default_params ?(p = 0.0) ~eps () =
  { p; eps; sketch_groups = 5; rho_const = 200.0 }

let validate prm ~a ~b =
  if not (prm.p >= 0.0 && prm.p <= 2.0) then
    invalid_arg "Lp_protocol: p must be in [0,2]";
  if not (prm.eps > 0.0 && prm.eps <= 1.0) then
    invalid_arg "Lp_protocol: eps must be in (0,1]";
  if Imat.cols a <> Imat.rows b then invalid_arg "Lp_protocol: dims"

(* Round 1 of every ℓp driver: Bob's message is the sketch of each of
   his rows under the caller's family [lp] and its [plan], encoded; it
   depends on B and the family alone. Alice combines her decoded copy
   into raw estimates of every row norm of C = A·B. *)
let row_sketch_message lp plan ~b =
  Pool.init (Imat.rows b) (fun k -> Lp.sketch_with_plan lp plan (Imat.row b k))
  |> Ctx.encode (Codec.array (Lp.wire lp))

let exchange_row_sketches ctx lp ~label ~message ~a =
  let sketches = Ctx.b2a_encoded ctx ~label (Codec.array (Lp.wire lp)) message in
  let comb = Lp.combiner lp sketches in
  Pool.init (Imat.rows a) (fun i -> Lp.estimate_combination comb (Imat.row a i))

(* Algorithm 1's round 1 at sketch accuracy [beta]. *)
let round1 ctx prm ~beta ~a ~b =
  Trace.with_span ~name:"lp_protocol.round1_sketch_exchange"
    ~attrs:
      [
        ("p", Matprod_obs.Json.Float prm.p);
        ("beta", Matprod_obs.Json.Float beta);
      ]
  @@ fun () ->
  let dim = max 1 (Imat.cols b) in
  let lp =
    Lp.create ctx.Ctx.public ~p:prm.p ~eps:beta ~groups:prm.sketch_groups ~dim
  in
  exchange_row_sketches ctx lp ~label:"lp-sketches(B rows)"
    ~message:(row_sketch_message lp (Lp.plan lp ~dim) ~b)
    ~a

let estimate_row_norms ctx prm ~a ~b =
  validate prm ~a ~b;
  round1 ctx prm ~beta:prm.eps ~a ~b

(* Round 2: Alice partitions rows into (1+beta)-geometric groups by
   estimated norm, samples each group at rate rho/|G| * mass(G)/mass(C),
   and ships the sampled rows; Bob computes those rows of C exactly and
   returns the Horvitz–Thompson sum. *)
let round2 ctx ~p ~beta ~rho_const ~est ~a ~b =
  Trace.with_span ~name:"lp_protocol.round2_sampled_rows"
    ~attrs:[ ("p", Matprod_obs.Json.Float p) ]
  @@ fun () ->
  let nrows = Imat.rows a in
  if Array.length est <> nrows then invalid_arg "Lp_protocol.round2: est size";
  let level = Array.map (fun e -> Common.group_of ~beta e) est in
  let nlevels = Array.fold_left (fun acc i -> max acc (i + 1)) 1 level in
  let count = Array.make nlevels 0 and mass = Array.make nlevels 0.0 in
  for i = 0 to nrows - 1 do
    if est.(i) > 0.0 then begin
      let l = level.(i) in
      count.(l) <- count.(l) + 1;
      mass.(l) <- mass.(l) +. est.(i)
    end
  done;
  let total = Array.fold_left ( +. ) 0.0 mass in
  let rho = rho_const /. (beta *. beta) in
  let pl =
    Array.init nlevels (fun l ->
        if count.(l) = 0 || total <= 0.0 then 0.0
        else Float.min 1.0 (rho /. float_of_int count.(l) *. (mass.(l) /. total)))
  in
  let sampled = ref [] in
  for i = nrows - 1 downto 0 do
    if est.(i) > 0.0 && Prng.float ctx.Ctx.alice < pl.(level.(i)) then
      sampled := (i, level.(i), Imat.row a i) :: !sampled
  done;
  let row_codec = Codec.triple Codec.uint Codec.uint Codec.sparse_int_vec in
  let pl', rows =
    Ctx.a2b ctx ~label:"sampled rows of A"
      (Codec.pair Codec.float_array (Codec.list row_codec))
      (pl, !sampled)
  in
  List.fold_left
    (fun acc (_, l, a_row) ->
      let c_row = Common.row_times_matrix a_row b in
      let w = Common.lp_pow_dense ~p c_row in
      if pl'.(l) > 0.0 then acc +. (w /. pl'.(l)) else acc)
    0.0 rows

let run ctx prm ~a ~b =
  validate prm ~a ~b;
  let beta = sqrt prm.eps in
  let est = round1 ctx prm ~beta ~a ~b in
  round2 ctx ~p:prm.p ~beta ~rho_const:prm.rho_const ~est ~a ~b
