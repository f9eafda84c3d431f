(** Bit-packed binary matrices.

    A dense {0,1} matrix stored 62 columns per native word, with
    AND+popcount row intersection — the fast path for exact ground truth
    on dense instances (C_{i,j} = |A_i ∩ B^j| is one word-wise sweep), and
    the representation whose size (n·m bits) the trivial protocol's cost
    equals by construction. Complements {!Bmat}'s adjacency form: convert
    with {!of_bmat} / {!to_bmat}. *)

type t

val create : rows:int -> cols:int -> t
(** All-zero matrix. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> bool
val set : t -> int -> int -> bool -> unit

val of_bmat : Bmat.t -> t
val to_bmat : t -> Bmat.t

val nnz : t -> int

val product_entry : a:t -> bt:t -> int -> int -> int
(** (A·B)_{i,j} given A and Bᵀ both packed row-major: the size of the
    intersection of row [i] of [a] and row [j] of [bt]. Requires
    cols a = cols bt. *)

val product_linf : a:t -> bt:t -> int
(** max_{i,j} (A·B)_{i,j} by a full packed sweep — O(rows_a·rows_bt·cols/62)
    word operations, the fast exact ℓ∞ for dense instances. *)

val popcount : int -> int
(** Number of set bits in a native int (SWAR), exposed for tests. *)
