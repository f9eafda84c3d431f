(** Typed merge of per-shard answers into a fleet answer, for estimator
    answers ({!merge}, by the entry's answer contract) and engine batch
    answers ({!merge_batch}, by the query).

    Worker [i] answers on (A⟨i⟩, B), where A⟨i⟩ is its compact row shard;
    since the shard products C⟨i⟩ = A⟨i⟩·B stack on disjoint row blocks of
    C, the merge is exact per answer shape:

    - {b Number}: sum — ‖C‖_p^p, join sizes and entry counts are sums over
      row blocks. Exception: ‖C‖_∞ (a contract whose statistic is
      [Norm_inf]) takes the max instead.
    - {b Leveled} (ℓ∞ family): the part with the largest estimate wins,
      keeping its subsampling level.
    - {b Coords} (heavy hitters): union, with shard-local row indices
      translated by the shard offset. Per-shard φ-thresholds are relative
      to the shard's mass ≤ the global mass, so recall is preserved;
      precision degrades gracefully (docs/ROBUSTNESS.md).
    - {b Sample}: one surviving sample chosen per slot by a
      seeded weighted draw (weight = shard row count) over the shards that
      produced one — deterministic in (seed, surviving parts).
    - {b Shares}: the coordinator is the answering client, so it
      reconstructs each shard's exact product C⟨i⟩ = C_A + C_B, translates
      rows, and returns the merged product entries as
      [Shares (entries, [])].

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
  Matprod_core.Estimator.t ->
  seed:int ->
  Matprod_core.Estimator.comparable part list ->
  Matprod_core.Estimator.comparable
(** Merge by the estimator's {!Matprod_core.Estimator.contract}. Parts may
    arrive in any order; they are merged in rank order. Raises
    [Invalid_argument] on an empty part list or on a part whose shape
    breaks the contract. *)

val merge_batch :
  seed:int ->
  rows:int ->
  Matprod_engine.Engine.query list ->
  Matprod_engine.Engine.answer array part list ->
  Matprod_engine.Engine.answer array
(** One merged answer per query of the batch, from each part's answer
    array (one answer per query, in batch order). The engine shapes follow
    the rules above: [Norm_pow]/[Frob_norm] sum, [Linf] maxes, [Top_rows]
    re-ranks the translated union, [Heavy_hitters] unions, [Exact_product]
    returns [Shares (entries, [])], sample queries re-draw each slot by
    the weighted pick. [Row_norms] returns a full [rows]-length vector
    with [nan] at rows no part covers. Raises [Invalid_argument] on an
    empty part list, an answer array of the wrong length, or mismatched
    shapes. *)
