// Completeness oracle for the Fig.-4 index traversal. The node-level
// checks (gene ranges, signatures, Lemma 6) are sound filters, so the
// candidate gene pairs the traversal reports must be exactly the pairs a
// brute-force scan finds: every (anchor column, neighbor column) pair of
// every active source that survives the leaf-level pivot (Section 4.2) and
// Lemma-3 rules. Checked per source on a Uni synthetic database and on the
// high-gene-overlap "Real" combined database, where signatures prune
// little and the traversal has to descend through many shared genes.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "embed/pivot_embedding.h"
#include "index/imgrn_index.h"
#include "matrix/vector_ops.h"
#include "prob/markov_bound.h"
#include "query/imgrn_processor.h"

namespace imgrn {
namespace {

// Candidate pairs per source, by exhaustive scan of the database.
std::map<SourceId, uint64_t> BruteForceCandidates(const ImGrnIndex& index,
                                                  const ProbGraph& query,
                                                  const QueryParams& params) {
  const VertexId anchor = query.MaxDegreeVertex();
  const GeneId anchor_gene = query.label(anchor);
  std::set<GeneId> neighbor_genes;
  for (VertexId neighbor : query.Neighbors(anchor)) {
    neighbor_genes.insert(query.label(neighbor));
  }
  std::map<SourceId, uint64_t> pairs_of;
  const GeneDatabase& database = index.database();
  for (SourceId source = 0; source < database.size(); ++source) {
    if (!index.IsActive(source)) continue;
    const GeneMatrix& matrix = database.matrix(source);
    const int anchor_column = matrix.ColumnOfGene(anchor_gene);
    if (anchor_column < 0) continue;
    const RecordRef ref_a{source, static_cast<uint32_t>(anchor_column)};
    for (uint32_t column = 0; column < matrix.num_genes(); ++column) {
      if (!neighbor_genes.contains(matrix.gene_id(column))) continue;
      const RecordRef ref_b{source, column};
      const EmbeddedPoint& point_a = index.embedded_point(ref_a);
      const EmbeddedPoint& point_b = index.embedded_point(ref_b);
      if (params.use_pivot_pruning &&
          (PivotPruneEdge(point_a, point_b, params.gamma) ||
           PivotPruneEdge(point_b, point_a, params.gamma))) {
        continue;
      }
      if (params.use_edge_pruning &&
          EdgeInferencePrune(EuclideanDistance(matrix.Column(ref_a.column),
                                               matrix.Column(ref_b.column)),
                             matrix.num_samples(), params.gamma)) {
        continue;
      }
      ++pairs_of[source];
    }
  }
  return pairs_of;
}

// Runs every query under each pruning configuration and compares the
// traversal's candidates with the oracle's, source by source.
void ExpectTraversalMatchesOracle(const ImGrnIndex& index,
                                  const std::vector<ProbGraph>& queries,
                                  const std::string& context) {
  ImGrnQueryProcessor processor(&index);
  size_t total_candidates = 0;
  for (const bool pivot : {true, false}) {
    for (const bool edge : {true, false}) {
      QueryParams params;
      params.use_pivot_pruning = pivot;
      params.use_edge_pruning = edge;
      params.collect_source_costs = true;
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string where = context + " query " + std::to_string(q) +
                                  " pivot=" + std::to_string(pivot) +
                                  " edge=" + std::to_string(edge);
        QueryStats stats;
        ASSERT_TRUE(
            processor.QueryWithGraph(queries[q], params, &stats).ok())
            << where;
        const std::map<SourceId, uint64_t> expected =
            BruteForceCandidates(index, queries[q], params);
        std::map<SourceId, uint64_t> actual;
        for (const SourceCostSample& sample : stats.source_costs) {
          actual[sample.source] = sample.candidate_pairs;
        }
        uint64_t expected_pairs = 0;
        for (const auto& [source, pairs] : expected) expected_pairs += pairs;
        EXPECT_EQ(actual, expected) << where;
        EXPECT_EQ(stats.candidate_pairs, expected_pairs) << where;
        EXPECT_EQ(stats.candidate_matrices, expected.size()) << where;
        total_candidates += stats.candidate_pairs;
      }
    }
  }
  // The workload must exercise the comparison, not pass vacuously.
  EXPECT_GT(total_candidates, 0u) << context;
}

bench::BenchDefaults SmallDefaults() {
  bench::BenchDefaults defaults;
  defaults.num_matrices = 45;
  defaults.num_queries = 6;
  defaults.seed = 11;
  return defaults;
}

ImGrnIndexOptions IndexOptions(size_t max_entries) {
  ImGrnIndexOptions options;
  options.embed_samples = 32;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  options.rtree_max_entries = max_entries;
  return options;
}

TEST(TraversalOracleTest, UniDatabaseCandidatesMatchBruteForce) {
  const bench::BenchDefaults defaults = SmallDefaults();
  GeneDatabase database = bench::BuildSyntheticDatabase("Uni", defaults);
  const std::vector<ProbGraph> queries =
      bench::MakeQueryWorkload(database, defaults);
  // The default page-derived fanout and a small one (a deeper tree, more
  // internal node pairs).
  for (const size_t max_entries : {size_t{0}, size_t{8}}) {
    ImGrnIndex index(IndexOptions(max_entries));
    ASSERT_TRUE(index.Build(&database).ok());
    ExpectTraversalMatchesOracle(
        index, queries, "uni max_entries=" + std::to_string(max_entries));
  }
}

TEST(TraversalOracleTest, HighOverlapDatabaseCandidatesMatchBruteForce) {
  const bench::BenchDefaults defaults = SmallDefaults();
  GeneDatabase database =
      bench::BuildRealCombinedDatabase(defaults, /*organism_scale=*/0.03);
  const std::vector<ProbGraph> queries =
      bench::MakeQueryWorkload(database, defaults);
  ImGrnIndex index(IndexOptions(/*max_entries=*/8));
  ASSERT_TRUE(index.Build(&database).ok());
  ExpectTraversalMatchesOracle(index, queries, "real");

  // Removed sources leave the tree; the oracle skips them as inactive.
  for (const SourceId source : {SourceId{0}, SourceId{7}, SourceId{30}}) {
    ASSERT_TRUE(index.RemoveMatrix(source).ok());
  }
  ExpectTraversalMatchesOracle(index, queries, "real after removals");
}

}  // namespace
}  // namespace imgrn
