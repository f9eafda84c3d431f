(** Cohen's exponential-minimum estimator for column support sizes of a
    matrix product ([12]; discussed in §1.3 of the paper).

    Each row index i of A receives an Exp(1) label E_i^(t) for
    t = 1..reps. For a column j of C = A·B the support is
    ∪_{k ∈ supp(B_{*,j})} supp(A_{*,k}), so
    min_{i ∈ supp(C_{*,j})} E_i^(t) = min_{k ∈ supp(B_{*,j})} m_k^(t)
    with m_k^(t) = min_{i ∈ supp(A_{*,k})} E_i^(t), and the support size
    estimator is the standard (reps − 1)/Σ_t min^(t).

    This is the centralised algorithm whose "direct adaptation" to the
    two-party model costs Ω̃(n/ε²) bits and 1 round (Alice ships all the
    m_k^(t) values) — the baseline that Algorithm 1 beats. *)

type t

val create : Matprod_util.Prng.t -> reps:int -> rows:int -> t
(** [rows] = number of rows of A (the universe being labelled);
    [reps = Θ(1/ε²)] for (1±ε) estimates. *)

val label : t -> rep:int -> int -> float
(** E_i^(rep), the exponential label of row i. *)

val column_mins : t -> supp_of_col:(int -> int array) -> cols:int -> float array array
(** [(column_mins t ~supp_of_col ~cols).(k).(rep) = m_k^(rep)], the
    per-inner-index minima computed from the supports of A's columns
    (infinity for empty columns). This array is exactly the message of
    the naive distributed adaptation. *)

val estimate_union : t -> float array array -> int array -> float
(** [estimate_union t mins bcol] estimates |∪_{k ∈ bcol} supp(A_{*,k})| =
    ‖C_{*,j}‖₀ from the minima; 0 for an empty union. *)

(** {1 Plan/apply} — all [rows × reps] exponential labels tabulated once;
    min-folds over the table are bit-identical to {!column_mins}, and the
    per-column loop fans out across {!Matprod_util.Pool} domains
    (docs/PERFORMANCE.md). *)

type plan

val plan : t -> plan

val column_mins_with_plan :
  t -> plan -> supp_of_col:(int -> int array) -> cols:int -> float array array
(** Same result as {!column_mins}. [supp_of_col] must be pure: it is
    called from worker domains. *)
