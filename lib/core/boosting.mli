(** The standard median trick (end of §3): run a constant-success-probability
    estimation protocol O(log 1/δ) times with independent coins and take the
    median, boosting the success probability to 1 − δ at an O(log 1/δ)
    communication factor — the factor the paper's Õ(·) absorbs. *)

type verdict =
  | Full_quorum  (** every repetition survived *)
  | Degraded of { survived : int; total : int }
      (** some repetitions died on the wire; the median is over survivors *)

type safe_result = {
  estimate : float;  (** median of the {e surviving} outputs *)
  runs : float array;  (** surviving outputs, in repetition order *)
  failures : (int * Outcome.error) list;
      (** (repetition index, typed error) of the casualties *)
  total_bits : int;
      (** communication of all repetitions, failed ones included — bits
          sent before a link died were still sent *)
  rounds : int;  (** max rounds over the surviving repetitions *)
  verdict : verdict;
}

val run_median_safe :
  seed:int ->
  repetitions:int ->
  ?min_survivors:int ->
  (Matprod_comm.Ctx.t -> float) ->
  (safe_result, Outcome.error) result
(** [run_median_safe ~seed ~repetitions f] runs [f] in [repetitions]
    {!Matprod_comm.Ctx.run}s with seeds derived from [seed], each under
    {!Outcome.guard}: a repetition that dies of a wire/decode/precondition
    failure is recorded as a casualty instead of aborting the whole
    estimate, and the median is taken over the survivors with a quorum
    {!verdict}. Returns [Error]
    when [repetitions < 1], when [min_survivors] (default 1) is not met —
    all-runs-failed always lands here — or when [min_survivors] itself is
    out of range. With an even number of survivors the median averages the
    two middle outputs (exactly {!Matprod_util.Stats.median}). *)

val repetitions_for : delta:float -> int
(** ⌈12·ln(1/δ)⌉, forced odd and at least 1 — enough repetitions to push a
    0.9-success protocol to 1 − δ by Chernoff. Raises [Invalid_argument]
    unless 0 < δ < 1 (NaN included). *)
