(** Deterministic, splittable pseudo-random number generator.

    The generator is a {e splitmix64} stream. Every randomized component of
    the library threads one of these explicitly, so whole protocol runs are
    reproducible from a single integer seed. [split] derives an independent
    child stream, which is how "public coins" shared by Alice and Bob are
    modelled: both parties split the same public seed in the same order. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. Equal seeds
    give equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    independent of the remainder of [t]'s stream. *)

val fresh_seed : t -> int
(** Draw a seed suitable for [create] or [derive]. *)

val derive : int -> int -> int -> t
(** [derive seed a b] is a generator determined purely by the triple — the
    same triple always yields the same stream. Used to materialise entries
    of implicit sketching matrices (entry (r, i) of S) without storing S. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits : t -> int
(** Next 62-bit non-negative integer (fits OCaml's native [int]). *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val float : t -> float
(** Uniform on [0, 1) with 53 bits of precision. *)

val float_pos : t -> float
(** Uniform on (0, 1]: never returns 0, safe as a log argument. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val exponential : t -> float
(** Exponential with rate 1. *)

val binomial : t -> int -> float -> int
(** [binomial t n p] samples Binomial(n, p). Exact: uses the inversion walk
    for small means and Bernoulli summation otherwise; intended for the
    modest per-entry counts in this library. *)

val geometric_level : t -> float -> int
(** [geometric_level t r] with [0 < r < 1] returns the largest level [l >= 0]
    such that a uniform draw [u] satisfies [u <= r^l]; i.e. the number of
    consecutive sampling stages at rate [r] an item survives. Used to build
    nested subsamples (Algorithm 2). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
