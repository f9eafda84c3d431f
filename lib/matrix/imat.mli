(** Sparse integer matrices (compressed rows of (column, value) pairs).

    The general-matrix protocols of the paper (Algorithm 1 for A,B ∈ Zⁿˣⁿ,
    Theorem 4.8, Algorithm 4) operate on integer matrices with polynomially
    bounded entries. Zero entries are never stored; rows are sorted by
    column. Matrices may be rectangular. *)

type t

val create : rows:int -> cols:int -> (int * int) array array -> t
(** [create ~rows ~cols r] with [r.(i)] the (column, value) pairs of row i.
    Pairs are sorted; duplicate columns are summed; zero values dropped. *)

val of_dense : int array array -> t
val of_bmat : Bmat.t -> t
(** View a binary matrix as a 0/1 integer matrix. *)

val zero : rows:int -> cols:int -> t

val rows : t -> int
val cols : t -> int
val row : t -> int -> (int * int) array
(** Sorted (column, value) pairs of row [i]; owned by the matrix. *)

val get : t -> int -> int -> int
val nnz : t -> int

val transpose : t -> t

val row_l1 : t -> int -> int
(** Σ_k |row i (k)|. *)

val col_l1 : t -> int array
(** Per-column ℓ1 mass — the ‖A_{*,j}‖₁ values Alice sends in Remark 2. *)

val row_lp_pow : t -> p:float -> int -> float
(** Σ_k |v|^p over row i, with 0^0 = 0 (so p = 0 counts nonzeros). *)

val map_values : t -> (int -> int -> int -> int) -> t
(** [map_values t f] applies [f i k v]; zero results are dropped. *)

val max_abs : t -> int
(** Largest |value| in the matrix (0 if empty). *)

val nonneg : t -> bool

val to_dense : t -> int array array
val equal : t -> t -> bool
