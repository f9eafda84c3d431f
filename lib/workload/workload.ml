module Prng = Matprod_util.Prng
module Bmat = Matprod_matrix.Bmat
module Imat = Matprod_matrix.Imat

let uniform_bool rng ~rows ~cols ~density =
  if not (density >= 0.0 && density <= 1.0) then
    invalid_arg "Workload.uniform_bool: density";
  let sets =
    Array.init rows (fun _ ->
        let out = ref [] in
        for k = cols - 1 downto 0 do
          if Prng.bernoulli rng density then out := k :: !out
        done;
        Array.of_list !out)
  in
  Bmat.create ~rows ~cols sets

(* Zipf sampler over [0, cols): weight of rank r is 1/(r+1)^skew.
   Inverse-CDF over the precomputed cumulative table. *)
let zipf_sampler rng ~cols ~skew =
  let weights =
    Array.init cols (fun r -> 1.0 /. (float_of_int (r + 1) ** skew))
  in
  let cum = Array.make cols 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. w;
      cum.(i) <- !acc)
    weights;
  let total = !acc in
  fun () ->
    let target = Prng.float rng *. total in
    (* binary search for the first cum.(i) >= target *)
    let lo = ref 0 and hi = ref (cols - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) >= target then hi := mid else lo := mid + 1
    done;
    !lo

let zipf_bool rng ~rows ~cols ~row_degree ~skew =
  if row_degree < 0 then invalid_arg "Workload.zipf_bool: row_degree";
  let sample = zipf_sampler rng ~cols ~skew in
  let sets =
    Array.init rows (fun _ ->
        Array.init row_degree (fun _ -> sample ()))
  in
  Bmat.create ~rows ~cols sets

let gen_pair ~zipf ~seed ~n ~density =
  (* Split the seed into two independent streams (as Ctx.create does for
     the parties): drawing both matrices from one sequential stream would
     correlate Alice's and Bob's inputs across seeds in zipf mode. *)
  let root = Prng.create seed in
  let rng_a = Prng.split root in
  let rng_b = Prng.split root in
  if zipf then
    let deg = max 1 (int_of_float (density *. float_of_int n)) in
    ( zipf_bool rng_a ~rows:n ~cols:n ~row_degree:deg ~skew:1.1,
      Bmat.transpose (zipf_bool rng_b ~rows:n ~cols:n ~row_degree:deg ~skew:1.1)
    )
  else
    ( uniform_bool rng_a ~rows:n ~cols:n ~density,
      uniform_bool rng_b ~rows:n ~cols:n ~density )

let uniform_int rng ~rows ~cols ~density ~max_value =
  if max_value < 1 then invalid_arg "Workload.uniform_int: max_value";
  let data =
    Array.init rows (fun _ ->
        let out = ref [] in
        for k = cols - 1 downto 0 do
          if Prng.bernoulli rng density then
            out := (k, 1 + Prng.int rng max_value) :: !out
        done;
        Array.of_list !out)
  in
  Imat.create ~rows ~cols data

let distinct_sample rng ~universe ~count =
  let count = min count universe in
  let seen = Hashtbl.create (2 * count) in
  let out = ref [] in
  while Hashtbl.length seen < count do
    let k = Prng.int rng universe in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.replace seen k ();
      out := k :: !out
    end
  done;
  Array.of_list !out

let plant_overlap rng ~n a_sets bt_sets ~row ~col ~overlap =
  let shared = distinct_sample rng ~universe:n ~count:overlap in
  a_sets.(row) <- Array.append a_sets.(row) shared;
  bt_sets.(col) <- Array.append bt_sets.(col) shared

let planted_pair rng ~n ~density ~overlap =
  if overlap > n then invalid_arg "Workload.planted_pair: overlap > n";
  let rand_sets () =
    Array.init n (fun _ ->
        let out = ref [] in
        for k = n - 1 downto 0 do
          if Prng.bernoulli rng density then out := k :: !out
        done;
        Array.of_list !out)
  in
  let a_sets = rand_sets () and bt_sets = rand_sets () in
  let i = Prng.int rng n and j = Prng.int rng n in
  plant_overlap rng ~n a_sets bt_sets ~row:i ~col:j ~overlap;
  let a = Bmat.create ~rows:n ~cols:n a_sets in
  let bt = Bmat.create ~rows:n ~cols:n bt_sets in
  (a, Bmat.transpose bt, (i, j))

let planted_heavy_hitters rng ~n ~density ~heavy =
  let rand_sets () =
    Array.init n (fun _ ->
        let out = ref [] in
        for k = n - 1 downto 0 do
          if Prng.bernoulli rng density then out := k :: !out
        done;
        Array.of_list !out)
  in
  let a_sets = rand_sets () and bt_sets = rand_sets () in
  List.iter
    (fun (count, overlap) ->
      for _ = 1 to count do
        let i = Prng.int rng n and j = Prng.int rng n in
        plant_overlap rng ~n a_sets bt_sets ~row:i ~col:j ~overlap
      done)
    heavy;
  let a = Bmat.create ~rows:n ~cols:n a_sets in
  let bt = Bmat.create ~rows:n ~cols:n bt_sets in
  (a, Bmat.transpose bt)

let planted_heavy_int rng ~n ~density ~max_value ~heavy =
  let rand_rows () =
    Array.init n (fun _ ->
        let out = ref [] in
        for k = n - 1 downto 0 do
          if Prng.bernoulli rng density then
            out := (k, 1 + Prng.int rng max_value) :: !out
        done;
        !out)
  in
  let a_rows = rand_rows () and bt_rows = rand_rows () in
  let planted = ref [] in
  List.iter
    (fun (count, overlap, value) ->
      for _ = 1 to count do
        let i = Prng.int rng n and j = Prng.int rng n in
        let shared = distinct_sample rng ~universe:n ~count:overlap in
        a_rows.(i) <-
          Array.to_list (Array.map (fun k -> (k, value)) shared) @ a_rows.(i);
        bt_rows.(j) <-
          Array.to_list (Array.map (fun k -> (k, value)) shared) @ bt_rows.(j);
        planted := (i, j) :: !planted
      done)
    heavy;
  let a =
    Imat.create ~rows:n ~cols:n (Array.map Array.of_list a_rows)
  in
  let bt =
    Imat.create ~rows:n ~cols:n (Array.map Array.of_list bt_rows)
  in
  (a, Imat.transpose bt, List.rev !planted)

type job_market = {
  applicants : Bmat.t;
  jobs : Bmat.t;
  star_applicant : int;
  star_job : int;
}

let job_matching rng ~applicants ~jobs ~skills ~avg_skills ~avg_requirements =
  let sample = zipf_sampler rng ~cols:skills ~skew:1.1 in
  let app_sets =
    Array.init applicants (fun _ ->
        Array.init (max 1 (avg_skills / 2 + Prng.int rng (max 1 avg_skills)))
          (fun _ -> sample ()))
  in
  let job_sets =
    Array.init jobs (fun _ ->
        Array.init
          (max 1 (avg_requirements / 2 + Prng.int rng (max 1 avg_requirements)))
          (fun _ -> sample ()))
  in
  (* One star pair sharing an unusually large block of rare skills. *)
  let star_applicant = Prng.int rng applicants
  and star_job = Prng.int rng jobs in
  let rare =
    distinct_sample rng ~universe:skills ~count:(min skills (4 * avg_skills))
  in
  app_sets.(star_applicant) <- Array.append app_sets.(star_applicant) rare;
  job_sets.(star_job) <- Array.append job_sets.(star_job) rare;
  let a = Bmat.create ~rows:applicants ~cols:skills app_sets in
  let j = Bmat.create ~rows:jobs ~cols:skills job_sets in
  { applicants = a; jobs = Bmat.transpose j; star_applicant; star_job }
