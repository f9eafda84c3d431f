(** 1-sparse recovery cell.

    A linear summary of a vector that can tell, with high probability,
    whether the vector is zero, exactly 1-sparse (and then recover the
    single (index, value)), or has ≥ 2 nonzeros. It stores the count
    Σ x_i, the index-weighted sum Σ i·x_i, and two independent random
    fingerprints Σ x_i·c(i) over GF(2^31−1); a spurious [One] answer
    requires both fingerprints to collide (probability ≈ 2^{-62}·poly).
    Building block of {!S_sparse} and hence of the ℓ0-sampler
    (Lemma 2.6). *)

type spec
(** The random fingerprint coefficients, shared by compatible cells. *)

type cell = { mutable sum : int; mutable isum : int; mutable fp1 : int; mutable fp2 : int }

val spec : Matprod_util.Prng.t -> spec

val fresh : unit -> cell
(** A zero cell (allocate one per use; cells are mutable). *)

val is_zero : cell -> bool

val update : spec -> cell -> int -> int -> unit
(** [update spec cell i v] adds v·e_i. *)

val add_scaled : cell -> coeff:int -> cell -> unit
(** dst ← dst + coeff·src (fingerprints combine over the field). *)

type verdict = Zero | One of int * int | Many

val decode : spec -> cell -> verdict
(** [One (i, v)] means the summarised vector is x = v·e_i (whp). *)

val cells_wire : cell array Matprod_comm.Codec.t
(** Codec for shipping an array of cells: (length, nonzero cells with their
    positions). Decoding is total up to {!Matprod_comm.Codec.Decode_error}:
    lengths above {!Matprod_comm.Codec.max_dense_length} and positions
    outside the length are rejected. *)
