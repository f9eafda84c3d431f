(** Binary matrices in adjacency (rows-as-sets) form.

    A {0,1} matrix is stored as one sorted array of column indices per row —
    the "projection sets" A_i = {k | A_{i,k} = 1} of the paper. This is the
    natural representation for the set-intersection-join view and makes all
    protocol messages (index lists, column sums, sampled submatrices) cheap
    to form. Matrices may be rectangular. *)

type t

val create : rows:int -> cols:int -> int array array -> t
(** [create ~rows ~cols sets] where [sets.(i)] lists the columns of the 1s
    in row [i]. Rows are sorted and deduplicated defensively; indices must
    lie in [0, cols). *)

val of_dense : int array array -> t
(** From a dense 0/1 array-of-rows (any nonzero is a 1). *)

val zero : rows:int -> cols:int -> t
val identity : int -> t

val rows : t -> int
val cols : t -> int

val row : t -> int -> int array
(** Sorted column indices of row [i]. The returned array is owned by the
    matrix — do not mutate. *)

val row_weight : t -> int -> int
(** Number of 1s in row [i]. *)

val get : t -> int -> int -> bool
val nnz : t -> int

val transpose : t -> t

val col_weights : t -> int array
(** [col_weights a].(j) = number of 1s in column j (the ‖A_{*,j}‖₁ of
    Remark 2). *)

val map_rows : t -> (int -> int array -> int array) -> t
(** Rebuild the matrix row by row; the callback receives the row index and
    its sorted column indices, and returns the new indices (will be
    re-sorted / deduplicated). Used for subsampling rows or entries. *)

val filter_entries : t -> (int -> int -> bool) -> t
(** Keep entry (i, k) iff the predicate holds. *)

val to_dense : t -> int array array

val equal : t -> t -> bool
