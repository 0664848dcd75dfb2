#ifndef IMGRN_QUERY_REFINEMENT_H_
#define IMGRN_QUERY_REFINEMENT_H_

#include "graph/prob_graph.h"
#include "index/imgrn_index.h"
#include "inference/permutation_cache.h"
#include "query/query_types.h"

namespace imgrn {

/// The refinement step shared by the IM-GRN query processor (Fig. 4 lines
/// 28-30) and the LinearScan ablation: decides whether candidate matrix
/// `source` is an IM-GRN answer for `query`.
///
/// Stages, in order:
///  1. label feasibility — every query gene must appear in the matrix;
///  2. cheap upper bounds per query edge — the Lemma-4 Markov closed form
///     and (optionally) the Section-4.2 pivot bound; Lemma-3 kills the
///     matrix when any required edge's bound is <= gamma, Lemma-5 when the
///     bound product is <= alpha;
///  3. exact verification — Monte Carlo edge probabilities, candidate
///     subgraph construction, labeled subgraph isomorphism (VF2), and the
///     Eq.-3 appearance probability against alpha.
///
/// Returns true and fills `match` when the matrix is an answer. `stats` may
/// be null. `cache` supplies permutations for the exact stage.
///
/// When `work` is non-null it receives the deterministic work units the
/// call spent: l per edge whose stage-2 bounds it computed, plus S x l per
/// edge whose probability it estimated by Monte Carlo (S = the cache's
/// samples, l = the matrix's samples).
bool RefineMatrix(const ImGrnIndex& index, SourceId source,
                  const ProbGraph& query, const QueryParams& params,
                  PermutationCache* cache, QueryMatch* match,
                  QueryStats* stats, uint64_t* work = nullptr);

}  // namespace imgrn

#endif  // IMGRN_QUERY_REFINEMENT_H_
