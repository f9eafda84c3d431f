(** s-sparse recovery sketch.

    Recovers a vector exactly when it has at most [s] nonzero coordinates.
    Structure: [reps] independent repetitions, each hashing coordinates
    into [2s] buckets of {!One_sparse} cells. Decoding peels: any bucket
    that decodes to a singleton reveals a coordinate, which is subtracted
    from every repetition, exposing further singletons; a vector that is
    ≤ s-sparse peels completely with high probability. Decoding either
    returns the exact support or reports failure — it never silently
    returns a wrong vector (up to fingerprint collisions).

    Linear: sketches add and scale, so they compose through the matrix
    product like every other sketch here. Used at every subsampling level
    of the ℓ0-sampler and as our concrete stand-in for the sparse-recovery
    step of Lemma 2.5 / Algorithm 4. *)

type t
(** Immutable specification (hash functions, dimensions). *)

type state = One_sparse.cells
(** One {!One_sparse} cell per (repetition, bucket), of which only the
    nonzero ones are stored: a build or a combination costs the cells it
    touches, not {!cells}. *)

val create : Matprod_util.Prng.t -> s:int -> reps:int -> t
(** [s ≥ 1] sparsity budget; [reps] repetitions (3–4 typical). *)

val cells : t -> int
(** Total number of 1-sparse cells. *)

val fresh : t -> state
(** The sketch of the zero vector. *)

val sketch : t -> (int * int) array -> state
(** Timed under [sketch_build_ns{s_sparse}]. *)

val build : t -> (int * int) array -> state
(** {!sketch} without its timer, for a caller that times a larger build. *)

val add_scaled : t -> state -> coeff:int -> state -> state
(** [add_scaled t acc ~coeff src] is acc + coeff·src, cell by cell as
    {!One_sparse.add_scaled}. [acc]'s fingerprints must be canonical
    residues — every state this module builds or combines has them.
    Raises [Invalid_argument] unless both have {!cells} cells. *)

type result = Ok of (int * int) list | Fail
(** [Ok pairs]: the exact nonzero (index, value) pairs, sorted by index.
    [Fail]: more than [s] nonzeros (or an unlucky hash draw). *)

val decode : t -> state -> result

val wire : t -> state Matprod_comm.Codec.t
(** Decoding rejects any state but one of exactly {!cells} cells. *)
