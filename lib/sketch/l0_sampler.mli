(** ℓ0-sampler for vectors (Lemma 2.6, after Jowhari–Saglam–Tardos [20]).

    Returns a uniformly random nonzero coordinate of a vector it has only
    seen through a linear sketch. Structure: geometric subsampling levels,
    each summarised by an {!S_sparse} recovery sketch, plus an embedded
    {!L0_sketch} used to choose the decoding level. Sampling decodes the
    level where ≈ s/2 coordinates are expected to survive and outputs the
    survivor with the minimum subsampling hash — which is the global
    minimum over the support, hence (near-)uniform.

    Linear, so Alice can ship sketches of the columns of A and Bob can
    combine them into sketches of the columns of C = A·B (Theorem 3.2). *)

type t
type state

val create : Matprod_util.Prng.t -> dim:int -> ?s:int -> ?reps:int -> unit -> t
(** [s] is the per-level recovery budget (default 12), [reps] the
    repetitions inside each recovery sketch (default 3). *)

val dim : t -> int

val fresh : t -> state
(** The sketch of the zero vector. *)

val sketch : t -> (int * int) array -> state
(** Timed under [sketch_build_ns{l0_sampler}], which covers the recovery
    and ℓ0 parts: neither is timed again under its own label. States keep
    only their nonzero cells, so a build costs the cells it touches. *)

val add_scaled : t -> state -> coeff:int -> state -> state
(** [add_scaled t acc ~coeff src] is acc + coeff·src, paying per nonzero
    cell of the two. *)

val sample : t -> state -> (int * int) option
(** [Some (i, x_i)] for a (near-)uniform nonzero coordinate; [None] if the
    vector is zero or recovery failed at every candidate level. *)

val wire : t -> state Matprod_comm.Codec.t
