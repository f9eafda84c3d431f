(** Typed merge of per-shard answers into a fleet answer, by the answer
    {!Matprod_core.Estimator.contract}: a registry entry's ({!merge}) or
    each engine query's ({!merge_batch}, through [Engine.contract]).

    Worker [i] answers on (A⟨i⟩, B), where A⟨i⟩ is its compact row shard;
    since the shard products C⟨i⟩ = A⟨i⟩·B stack on disjoint row blocks of
    C, the merge is exact per contract:

    - {b Exact_count}, {b Approx} ([Scalar]): sum — ‖C‖_p^p, join sizes
      and entry counts are sums over row blocks. Exception: ‖C‖_∞ (a
      statistic [Norm_inf]) takes the max instead.
    - {b Level_approx} ([Leveled], the ℓ∞ family): the part with the
      largest estimate wins, keeping its subsampling level.
    - {b Heavy_hitters} ([Entry_set]): union, with shard-local row
      indices translated by the shard offset. Per-shard φ-thresholds are
      relative to the shard's mass ≤ the global mass, so recall is
      preserved; precision degrades gracefully (docs/ROBUSTNESS.md).
    - {b L0_draw}, {b L1_draw} (sample arrays): slot [j] of the merged
      array is chosen by a seeded weighted draw (weight = shard row
      count) over the shards that filled slot [j] — deterministic in
      (seed, surviving parts).
    - {b Product_shares}: the coordinator is the answering client, so it
      reconstructs each shard's exact product C⟨i⟩ = C_A + C_B,
      translates rows, and returns the merged product entries as
      [Shares (entries, [])].
    - {b Per_row} ([Vector]): each shard's estimates land at its rows of
      a [rows]-length vector, [nan] at rows no part covers.
    - {b Top_k} ([Ranked]): the translated union, re-ranked (largest
      first, ties to the lower row) and cut to [k].

    Merging is a pure function of the surviving parts (plus [seed] for
    sample draws, each merged answer drawing from a fresh stream of
    [seed]): a (k−1)-quorum answer equals the full-fleet merge restricted
    to the surviving links — the property the topology tests assert for
    every registered estimator and for engine batches. *)

type 'a part = {
  rank : int;
  range : Shard.range;
  value : 'a;
}

val merge :
  seed:int ->
  rows:int ->
  Matprod_core.Estimator.contract ->
  Matprod_core.Estimator.answer part list ->
  Matprod_core.Estimator.answer
(** Merge by the contract; [rows] is the row count of A (the length of a
    merged [Per_row] vector). Parts may arrive in any order; they are
    merged in rank order. Raises [Invalid_argument] on an empty part list
    or on a part whose shape breaks the contract. *)

val merge_batch :
  seed:int ->
  rows:int ->
  Matprod_engine.Engine.query list ->
  Matprod_engine.Engine.answer array part list ->
  Matprod_engine.Engine.answer array
(** One merged answer per query of the batch, from each part's answer
    array (one answer per query, in batch order), each by {!merge} under
    the query's [Engine.contract]. Raises [Invalid_argument] on an empty
    part list, an answer array of the wrong length, or mismatched
    shapes. *)
