(** The query-optimizer facade: one call per §1.1 question.

    Site A holds R(X, Y), site B holds S(Y, Z). Each function wires the
    relations into the right protocol, runs it in a fresh simulated
    two-party context, and returns the answer with its communication bill.
    This is the interface a distributed query planner would link against;
    everything underneath is the paper's machinery. *)

type 'a answer = {
  value : 'a;
  bits : int;  (** transcript length *)
  rounds : int;
}

val composition_size :
  ?eps:float ->
  seed:int ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  float answer
(** |R ∘ S| = ‖AB‖₀ within (1+ε), via Algorithm 1 (2 rounds, Õ(n/ε)).
    [eps] defaults to 0.25. *)

val natural_join_size : seed:int -> r:Relation.t -> s:Relation.t -> int answer
(** |R ⋈ S| exactly, via Remark 2 (1 round, O(n log n)). *)

val max_witness_count :
  ?eps:float -> seed:int -> r:Relation.t -> s:Relation.t -> unit -> float answer
(** The largest number of witnesses any output pair has —
    ‖AB‖∞ within (2+ε), via Algorithm 2. *)

val sample_join_tuple :
  seed:int -> r:Relation.t -> s:Relation.t -> (int * int * int) option answer
(** A uniform tuple (x, y, z) of R ⋈ S, via Remark 3 (1 round). *)

val sample_output_pair :
  ?eps:float ->
  seed:int ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  (int * int) option answer
(** A (near-)uniform pair of R ∘ S, via Theorem 3.2's ℓ0-sampling. *)
