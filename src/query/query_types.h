#ifndef IMGRN_QUERY_QUERY_TYPES_H_
#define IMGRN_QUERY_QUERY_TYPES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "matrix/gene_matrix.h"

namespace imgrn {

/// Parameters of an IM-GRN query (Definition 4) plus processing knobs.
struct QueryParams {
  /// Ad-hoc inference threshold gamma in [0, 1).
  double gamma = 0.5;

  /// Probabilistic (appearance) threshold alpha in [0, 1).
  double alpha = 0.5;

  /// Monte Carlo permutations for inferring the query GRN from M_Q.
  size_t query_num_samples = 128;

  /// Monte Carlo permutations for exact edge probabilities in refinement.
  size_t refine_num_samples = 128;

  /// Pruning toggles (all on by default; benches ablate them).
  bool use_edge_pruning = true;   // Lemma 3 (Markov closed form).
  bool use_pivot_pruning = true;  // Section 4.2 (PPR).
  bool use_index_pruning = true;  // Lemma 6 (node pairs).
  bool use_graph_pruning = true;  // Lemma 5 (appearance upper bound).

  /// If > 0, return only the top-k matches ranked by appearance
  /// probability Pr{G} (descending, ties by source id). 0 returns all
  /// matches in source order.
  size_t top_k = 0;

  /// When set, the processor attributes the query's work to the
  /// individual sources it touched and reports the breakdown in
  /// QueryStats::source_costs. Off by default: the breakdown costs a small
  /// amount of bookkeeping per candidate source, and only load-balancing
  /// callers (ShardedEngine's measured cost model) consume it.
  bool collect_source_costs = false;

  /// Degradation policy for fan-out engines (ShardedEngine). When set, a
  /// query whose sub-queries fail on SOME shards with an infrastructure
  /// error (kUnavailable after retries are exhausted, kDataLoss, or a
  /// quarantined shard) still succeeds, returning the surviving shards'
  /// matches — bit-exact for every source a surviving shard owns — with
  /// QueryStats::degraded set and the failed shards listed. When unset
  /// (default), any shard failure fails the whole query. Caller-attributed
  /// errors (cancellation, deadline, invalid arguments) always fail the
  /// query, and so does every shard failing at once.
  bool allow_partial = false;

  uint64_t seed = 99;
};

/// One IM-GRN answer: matrix M_i matched the query.
struct QueryMatch {
  SourceId source = 0;

  /// Appearance probability Pr{G} (Eq. 3) of the best matching embedding.
  double probability = 0.0;

  /// The matched embedding: (query gene id, column in M_i) per query vertex.
  std::vector<std::pair<GeneId, uint32_t>> mapping;
};

/// Applies the top_k policy: ranks by probability (descending, ties by
/// source) and truncates when `top_k` > 0. Shared by every query method so
/// their outputs stay comparable.
void FinalizeMatches(size_t top_k, std::vector<QueryMatch>* matches);

/// One source's share of a query's work, reported only when
/// QueryParams::collect_source_costs is set. `work` is a deterministic
/// count, not wall-clock: the source's refinement work (l per query edge
/// whose stage-2 bounds were computed, S x l per edge estimated by Monte
/// Carlo, where l is the source's sample count and S the refinement
/// samples) plus its surviving candidate pairs, the traversal's footprint
/// on the source. It is identical across runs, machines, thread counts
/// and shard layouts, so a cost model fed with it is reproducible.
struct SourceCostSample {
  SourceId source = 0;
  uint64_t work = 0;
  uint64_t candidate_pairs = 0;
};

/// Metrics of one query execution, mirroring the paper's reported series
/// (CPU time, I/O cost as page accesses, number of candidates) plus
/// per-pruning-stage counters used by the ablation bench.
struct QueryStats {
  double inference_seconds = 0.0;
  double traversal_seconds = 0.0;
  double refinement_seconds = 0.0;
  double total_seconds = 0.0;

  /// Wall-clock spent filling the refinement PermutationCache (generating
  /// the per-length permutation samples and their block re-layouts). Each
  /// distinct sample length is filled once per query, however many sources
  /// share it.
  double permutation_fill_seconds = 0.0;

  /// Physical page accesses (buffer-pool misses) during the query.
  uint64_t page_accesses = 0;
  /// Logical page fetches (including buffer-pool hits).
  uint64_t page_fetches = 0;

  size_t query_vertices = 0;
  size_t query_edges = 0;

  /// Ordered child pairs of the expanded node pairs. The traversal tests
  /// each child's one-sided checks once, so a node pair with |A| and |B|
  /// children, of which |A'| and |B'| pass, adds |A|·|B| here and
  /// |A|·|B| - |A'|·|B'| to node_pairs_pruned_signature: the same values
  /// as testing every pair.
  size_t node_pairs_examined = 0;
  size_t node_pairs_pruned_signature = 0;
  size_t node_pairs_pruned_index = 0;  // Lemma 6.
  size_t leaf_pairs_examined = 0;
  size_t leaf_pairs_pruned_pivot = 0;  // Section 4.2.
  size_t leaf_pairs_pruned_edge = 0;   // Lemma 3.

  /// Candidate gene pairs surviving the index traversal + pruning (the
  /// paper's "number of candidates").
  size_t candidate_pairs = 0;
  /// Distinct candidate matrices entering refinement.
  size_t candidate_matrices = 0;
  size_t matrices_pruned_graph = 0;  // Lemma 5 during refinement.
  size_t answers = 0;

  /// Per-source cost attribution (ascending source id), filled only when
  /// QueryParams::collect_source_costs is set and only by processors that
  /// implement the breakdown (ImGrnQueryProcessor does; baseline scans
  /// leave it empty). Sources the traversal pruned entirely do not appear.
  std::vector<SourceCostSample> source_costs;

  /// True when QueryParams::allow_partial let the query succeed without
  /// some shards: the answer is complete for every source owned by a shard
  /// in neither of the lists below, and silent about the rest.
  bool degraded = false;

  /// The shards whose sub-queries failed (ascending), when degraded.
  std::vector<size_t> failed_shards;

  /// Sub-query retry attempts this query spent riding out transient
  /// (kUnavailable) shard failures, across all shards. 0 on the happy
  /// path.
  uint64_t shard_retries = 0;

  /// True when the answer (matches AND the counters above) was served from
  /// the ShardedEngine's result cache instead of a fresh fan-out. By the
  /// engine's determinism a hit is bit-identical to the evaluation it
  /// stands in for, so this flag is the only stats field a cache may
  /// legitimately change — the differential suites mask exactly it.
  bool cache_hit = false;
};

}  // namespace imgrn

#endif  // IMGRN_QUERY_QUERY_TYPES_H_
