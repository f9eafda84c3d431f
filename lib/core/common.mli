(** Helpers shared by the protocol implementations. *)

module Entry_map : sig
  (** A sparse accumulator for (row, col) → value, used for the additively
      shared matrices C_A, C_B that Algorithms 2–4 build. *)

  type t

  val create : unit -> t
  val add : t -> int -> int -> int -> unit
  (** [add m i j v] accumulates v into entry (i, j); exact zeros vanish. *)

  val get : t -> int -> int -> int
  val nnz : t -> int
  val linf : t -> int
  (** max |value| (0 if empty). *)

  val entries : t -> (int * int * int) list
  (** Sorted by (row, col). *)

  val iter : t -> (int -> int -> int -> unit) -> unit

  val add_outer : t -> (int * int) array -> (int * int) array -> unit
  (** [add_outer m col row] accumulates the outer product col·rowᵀ:
      for every ((i, a), (j, b)) pair, entry (i, j) += a·b. *)

  val merge_into : dst:t -> t -> unit

  val wire_entries : (int * int * int) list Matprod_comm.Codec.t
  (** Codec for shipping entry lists. *)
end

val row_times_matrix : (int * int) array -> Matprod_matrix.Imat.t -> int array
(** [row_times_matrix a_row b] = (dense) a_row · B, the exact row of the
    product, computed from B's rows. *)

val lp_pow_dense : p:float -> int array -> float
(** Σ |v|^p with 0^0 = 0. *)

val group_of : beta:float -> float -> int
(** Index ℓ of the (1+β)-geometric group that a positive estimate falls in
    (Algorithm 1's partition); estimates below 1 map to group 0. *)

val top_rows : float array -> k:int -> (int * float) list
(** The [k] largest entries of a per-row estimate vector, as
    (row, estimate) pairs in descending order. *)

val log_factor : int -> float
(** ln(max(n, 2)) — the log n factor in the paper's parameter settings. *)
