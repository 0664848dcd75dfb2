// Coverage of the QueryStats counters the benches report: every counter
// must be populated consistently by the Fig.-4 traversal, and the
// generator's planted edges must be statistically recoverable end-to-end.

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "inference/grn_inference.h"
#include "query/imgrn_processor.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

class QueryStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(31);
    for (SourceId i = 0; i < 10; ++i) {
      std::vector<GeneId> singletons = {static_cast<GeneId>(300 + 2 * i),
                                        static_cast<GeneId>(301 + 2 * i)};
      database_.Add(
          MakePlantedMatrix(i, 30, {{1, 2, 3}}, singletons, 0.95, &rng));
    }
    ImGrnIndexOptions options;
    options.num_pivots = 2;
    options.embed_samples = 32;
    options.rtree_max_entries = 6;  // Deep tree -> internal traversal.
    options.pivot_selection.global_iterations = 1;
    options.pivot_selection.swap_iterations = 4;
    index_ = std::make_unique<ImGrnIndex>(options);
    ASSERT_TRUE(index_->Build(&database_).ok());
    processor_ = std::make_unique<ImGrnQueryProcessor>(index_.get());
  }

  GeneDatabase database_;
  std::unique_ptr<ImGrnIndex> index_;
  std::unique_ptr<ImGrnQueryProcessor> processor_;
};

TEST_F(QueryStatsTest, TraversalCountersConsistent) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  ASSERT_TRUE(processor_
                  ->QueryWithGraph(MakePathQuery({1, 2, 3}), params, &stats)
                  .ok());
  EXPECT_GT(stats.node_pairs_examined, 0u);
  EXPECT_LE(stats.node_pairs_pruned_signature + stats.node_pairs_pruned_index,
            stats.node_pairs_examined);
  // The gene-range/signature checks must reject most pairs: the anchor
  // gene lives in a narrow slice of the gene-ID dimension.
  EXPECT_GT(stats.node_pairs_pruned_signature, 0u);
  EXPECT_GT(stats.leaf_pairs_examined, 0u);
  EXPECT_GE(stats.leaf_pairs_examined, stats.candidate_pairs);
  EXPECT_GE(stats.candidate_pairs, stats.candidate_matrices > 0 ? 1u : 0u);
  EXPECT_GE(stats.candidate_matrices, stats.answers);
  EXPECT_GT(stats.page_fetches, 0u);
  EXPECT_GE(stats.page_fetches, stats.page_accesses);
  EXPECT_GE(stats.traversal_seconds, 0.0);
  EXPECT_GE(stats.refinement_seconds, 0.0);
  EXPECT_GE(stats.total_seconds,
            stats.traversal_seconds + stats.refinement_seconds - 1e-9);
}

// The traversal tests each child's one-sided checks once per node pair,
// yet its counters keep their per-pair meaning. These are the values that
// testing every child pair produces for this fixture and query.
TEST_F(QueryStatsTest, TraversalCountersPinned) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  ASSERT_TRUE(processor_
                  ->QueryWithGraph(MakePathQuery({1, 2, 3}), params, &stats)
                  .ok());
  EXPECT_EQ(stats.node_pairs_examined, 58u);
  EXPECT_EQ(stats.node_pairs_pruned_signature, 12u);
  EXPECT_EQ(stats.node_pairs_pruned_index, 0u);
  EXPECT_EQ(stats.leaf_pairs_examined, 20u);
  EXPECT_EQ(stats.candidate_pairs, 20u);
}

TEST_F(QueryStatsTest, ColdVsWarmCacheIoDiffers) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  const ProbGraph query = MakePathQuery({1, 2, 3});
  index_->mutable_rtree().FlushBufferPool();
  QueryStats cold;
  ASSERT_TRUE(processor_->QueryWithGraph(query, params, &cold).ok());
  QueryStats warm;
  ASSERT_TRUE(processor_->QueryWithGraph(query, params, &warm).ok());
  // The second run touches only resident pages.
  EXPECT_LE(warm.page_accesses, cold.page_accesses);
  EXPECT_EQ(warm.page_fetches, cold.page_fetches);
}

TEST_F(QueryStatsTest, UnknownAnchorPrunesEverythingAtNodeLevel) {
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  QueryStats stats;
  Result<std::vector<QueryMatch>> matches = processor_->QueryWithGraph(
      MakePathQuery({5000, 5001}), params, &stats);
  ASSERT_TRUE(matches.ok());
  EXPECT_TRUE(matches->empty());
  EXPECT_EQ(stats.candidate_pairs, 0u);
  EXPECT_EQ(stats.leaf_pairs_examined, 0u);
}

// End-to-end statistical recovery: on Section-6.1 synthetic data, querying
// a planted true edge of a matrix should find that matrix far more often
// than querying a random non-edge pair at the same thresholds.
TEST(SyntheticRecoveryTest, PlantedEdgesBeatNonEdges) {
  SyntheticConfig config;
  config.num_matrices = 15;
  config.genes_min = 12;
  config.genes_max = 12;
  config.samples_min = 50;
  config.samples_max = 50;
  config.gene_universe = 60;
  config.seed = 77;
  std::vector<GoldStandard> truths;
  GeneDatabase database = GenerateSyntheticDatabase(config, &truths);

  ImGrnIndexOptions options;
  options.embed_samples = 32;
  options.pivot_selection.global_iterations = 1;
  options.pivot_selection.swap_iterations = 4;
  ImGrnIndex index(options);
  ASSERT_TRUE(index.Build(&database).ok());
  ImGrnQueryProcessor processor(&index);

  QueryParams params;
  params.gamma = 0.6;
  params.alpha = 0.5;
  Rng rng(78);
  int edge_hits = 0, edge_total = 0;
  int non_edge_hits = 0, non_edge_total = 0;
  for (SourceId i = 0; i < database.size(); ++i) {
    const GeneMatrix& matrix = database.matrix(i);
    // One true edge (if any) as a 2-gene query.
    if (!truths[i].empty()) {
      const auto& [a, b] = truths[i][rng.UniformUint64(truths[i].size())];
      ProbGraph query;
      query.AddVertex(matrix.gene_id(a));
      query.AddVertex(matrix.gene_id(b));
      query.AddEdge(0, 1, 1.0);
      Result<std::vector<QueryMatch>> matches =
          processor.QueryWithGraph(query, params);
      ASSERT_TRUE(matches.ok());
      ++edge_total;
      for (const QueryMatch& match : *matches) {
        if (match.source == i) {
          ++edge_hits;
          break;
        }
      }
    }
    // One random non-edge pair.
    std::set<uint64_t> edge_keys;
    for (const auto& [a, b] : truths[i]) {
      edge_keys.insert((static_cast<uint64_t>(a) << 32) | b);
    }
    for (int attempt = 0; attempt < 50; ++attempt) {
      uint32_t a = static_cast<uint32_t>(rng.UniformUint64(12));
      uint32_t b = static_cast<uint32_t>(rng.UniformUint64(12));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      if (edge_keys.contains((static_cast<uint64_t>(a) << 32) | b)) continue;
      ProbGraph query;
      query.AddVertex(matrix.gene_id(a));
      query.AddVertex(matrix.gene_id(b));
      query.AddEdge(0, 1, 1.0);
      Result<std::vector<QueryMatch>> matches =
          processor.QueryWithGraph(query, params);
      ASSERT_TRUE(matches.ok());
      ++non_edge_total;
      for (const QueryMatch& match : *matches) {
        if (match.source == i) {
          ++non_edge_hits;
          break;
        }
      }
      break;
    }
  }
  ASSERT_GT(edge_total, 5);
  ASSERT_GT(non_edge_total, 5);
  const double edge_rate =
      static_cast<double>(edge_hits) / static_cast<double>(edge_total);
  const double non_edge_rate = static_cast<double>(non_edge_hits) /
                               static_cast<double>(non_edge_total);
  EXPECT_GT(edge_rate, non_edge_rate)
      << "edge " << edge_hits << "/" << edge_total << " vs non-edge "
      << non_edge_hits << "/" << non_edge_total;
  EXPECT_GT(edge_rate, 0.5);
}

}  // namespace
}  // namespace imgrn
