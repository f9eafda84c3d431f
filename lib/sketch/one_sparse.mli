(** 1-sparse recovery cells.

    A cell is a linear summary of a vector that can tell, with high
    probability, whether the vector is zero, exactly 1-sparse (and then
    recover the single (index, value)), or has ≥ 2 nonzeros. It stores the
    count Σ x_i, the index-weighted sum Σ i·x_i, and two independent random
    fingerprints Σ x_i·c(i) over GF(2^31−1); a spurious [One] answer
    requires both fingerprints to collide (probability ≈ 2^{-62}·poly).
    Building block of {!S_sparse} and hence of the ℓ0-sampler
    (Lemma 2.6).

    Cells live in flat [int array] storage owned by the sketch: cell [k]
    is words [4k .. 4k+3], holding Σ x_i, Σ i·x_i and the two
    fingerprints; [n] zero cells are [Array.make (4 * n) 0]. *)

type spec
(** The random fingerprint coefficients, shared by compatible cells. *)

val spec : Matprod_util.Prng.t -> spec

val words : int

val is_zero : int array -> int -> bool

val update : spec -> int array -> int -> int -> int -> unit
(** [update spec cells k i v] adds v·e_i to cell [k]. *)

val add_scaled : int array -> int -> coeff:int -> int array -> int -> unit
(** [add_scaled dst dk ~coeff src sk]: cell [dk] of [dst] ← cell [dk] of
    [dst] + coeff·(cell [sk] of [src]) (fingerprints combine over the
    field). *)

type verdict = Zero | One of int * int | Many

val decode : spec -> int array -> int -> verdict
(** [One (i, v)] means cell [k] summarises x = v·e_i (whp). *)

(** {1 Sparse runs of cells} *)

type cells = { count : int; nonzero : int array; cell_words : int array }
(** [count] cells of which only those at the strictly ascending
    positions [nonzero] are not all zero: cell [nonzero.(j)] holds
    [cell_words.(4j .. 4j+3)], so [cell_words] is flat storage as above. *)

val cells_wire : max_cells:int -> cells Matprod_comm.Codec.t
(** Codec for shipping cells: (count, nonzero cells with their positions).
    Decoding is total up to {!Matprod_comm.Codec.Decode_error}: counts
    above [max_cells] and positions outside the count are rejected; a
    position listed twice keeps its last cell, and zero cells are
    dropped. *)
