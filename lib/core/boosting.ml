module Prng = Matprod_util.Prng
module Stats = Matprod_util.Stats
module Ctx = Matprod_comm.Ctx

type verdict = Full_quorum | Degraded of { survived : int; total : int }

type safe_result = {
  estimate : float;
  runs : float array;
  failures : (int * Outcome.error) list;
  total_bits : int;
  rounds : int;
  verdict : verdict;
}

let run_median_safe ~seed ~repetitions ?(min_survivors = 1) f =
  if repetitions < 1 then
    Error (Outcome.Precondition "Boosting.run_median_safe: repetitions >= 1")
  else if min_survivors < 1 || min_survivors > repetitions then
    Error
      (Outcome.Precondition
         "Boosting.run_median_safe: need 1 <= min_survivors <= repetitions")
  else begin
    let root = Prng.create seed in
    let survivors = ref [] and failures = ref [] in
    let bits = ref 0 and rounds = ref 0 in
    for r = 0 to repetitions - 1 do
      (* The guard sits inside the run, so a failed repetition's
         communication is still charged. *)
      let run =
        Ctx.run ~seed:(Prng.fresh_seed root) (fun ctx ->
            Outcome.guard (fun () -> f ctx))
      in
      (match run.Ctx.output with
      | Ok output ->
          survivors := output :: !survivors;
          rounds := max !rounds run.Ctx.rounds
      | Error e -> failures := (r, e) :: !failures);
      bits := !bits + run.Ctx.bits
    done;
    let failures = List.rev !failures in
    let runs = Array.of_list (List.rev !survivors) in
    let survived = Array.length runs in
    if survived < min_survivors then
      Error
        (Outcome.Protocol_failure
           (Printf.sprintf
              "Boosting: quorum lost — %d of %d repetitions survived \
               (needed %d); first failure: %s"
              survived repetitions min_survivors
              (match failures with
              | (_, e) :: _ -> Outcome.error_to_string e
              | [] -> "none")))
    else
      Ok
        {
          estimate = Stats.median runs;
          runs;
          failures;
          total_bits = !bits;
          rounds = !rounds;
          verdict =
            (if survived = repetitions then Full_quorum
             else Degraded { survived; total = repetitions });
        }
  end

let repetitions_for ~delta =
  if not (delta > 0.0 && delta < 1.0) then invalid_arg "Boosting: delta";
  let r = int_of_float (Float.ceil (12.0 *. log (1.0 /. delta))) in
  let r = max 1 r in
  if r land 1 = 1 then r else r + 1
