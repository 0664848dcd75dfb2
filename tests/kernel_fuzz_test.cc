// End-to-end differential gate for the SIMD kernel dispatch: a FULL query
// pipeline — engine build, index construction, traversal, pruning,
// refinement, ranking — must produce bitwise-identical matches AND
// identical QueryStats counters whether the kernels run on the scalar
// reference or the CPU's native SIMD backend (IMGRN_FORCE_SCALAR=1 vs
// dispatched). This is the system-level consequence of the per-kernel
// equivalence policy in simd_ops.h: every decision site is either pinned
// to the scalar reference or served by a bit-identical kernel class, so
// the guarantee holds for engines BUILT under either backend, not just
// queried under either. The query x parameter grid mirrors
// storage_differential_test.cc.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "matrix/simd_ops.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ExpectIdenticalMatches;
using testing_util::ExpectSameCounters;
using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

GeneDatabase MakeDatabase(uint64_t seed) {
  Rng rng(seed);
  GeneDatabase database;
  database.Add(MakePlantedMatrix(0, 30, {{1, 2, 3}}, {10, 11}, 0.97, &rng));
  database.Add(MakePlantedMatrix(1, 30, {{1, 2, 3}}, {12, 13}, 0.97, &rng));
  database.Add(MakePlantedMatrix(2, 30, {{4, 5, 6}}, {14, 15}, 0.97, &rng));
  database.Add(MakePlantedMatrix(3, 30, {{1, 2, 3, 4}}, {16}, 0.97, &rng));
  database.Add(MakePlantedMatrix(4, 30, {{20, 21}}, {22, 23}, 0.97, &rng));
  database.Add(MakePlantedMatrix(5, 30, {{5, 6, 7}}, {24, 25}, 0.97, &rng));
  database.Add(MakePlantedMatrix(6, 30, {{1, 2}, {5, 6}}, {26}, 0.97, &rng));
  database.Add(MakePlantedMatrix(7, 30, {{30, 31, 32}}, {33}, 0.97, &rng));
  return database;
}

std::vector<QueryParams> ParamGrid() {
  std::vector<QueryParams> grid;
  for (double gamma : {0.3, 0.5, 0.7}) {
    for (double alpha : {0.2, 0.5}) {
      QueryParams params;
      params.gamma = gamma;
      params.alpha = alpha;
      grid.push_back(params);
    }
  }
  // Ranked truncation exercises FinalizeMatches' probability ordering,
  // where a single ULP of drift would reorder ties.
  QueryParams top_k;
  top_k.gamma = 0.3;
  top_k.alpha = 0.2;
  top_k.top_k = 2;
  grid.push_back(top_k);
  // Ablated pruning shifts work from the (pinned) bound decisions into
  // brute-force refinement — the counters must still agree exactly.
  QueryParams no_pruning;
  no_pruning.gamma = 0.5;
  no_pruning.alpha = 0.2;
  no_pruning.use_edge_pruning = false;
  no_pruning.use_pivot_pruning = false;
  no_pruning.use_graph_pruning = false;
  grid.push_back(no_pruning);
  return grid;
}

std::vector<ProbGraph> QuerySet() {
  return {MakePathQuery({1, 2, 3}), MakePathQuery({5, 6}),
          MakePathQuery({30, 31, 32}), MakePathQuery({1, 2, 3, 4}),
          MakePathQuery({8, 9})};
}

struct RunResult {
  std::vector<QueryMatch> matches;
  QueryStats stats;
};

RunResult RunGraphQuery(ImGrnEngine* engine, const ProbGraph& query,
                        const QueryParams& params) {
  RunResult result;
  Result<std::vector<QueryMatch>> matches =
      engine->QueryWithGraph(query, params, &result.stats);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  if (matches.ok()) result.matches = *matches;
  return result;
}

RunResult RunMatrixQuery(ImGrnEngine* engine, const GeneMatrix& query_matrix,
                         const QueryParams& params) {
  RunResult result;
  Result<std::vector<QueryMatch>> matches =
      engine->Query(query_matrix, params, &result.stats);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  if (matches.ok()) result.matches = *matches;
  return result;
}

// Every match field bitwise, every deterministic QueryStats counter
// exactly.
void ExpectIdentical(const RunResult& scalar, const RunResult& simd,
                     const char* what) {
  ExpectIdenticalMatches(simd.matches, scalar.matches, what);
  ExpectSameCounters(simd.stats, scalar.stats, what);
}

// One engine per backend, BUILT under that backend — pivot selection,
// embedding and index construction run with the override active, exactly
// as a process started with IMGRN_FORCE_SCALAR=1 (or on a non-SIMD
// machine) would build it.
class KernelFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (NativeKernels().backend == KernelBackend::kScalar) {
      GTEST_SKIP() << "no SIMD backend on this CPU; differential gate "
                      "reduces to scalar vs scalar";
    }
    {
      ScopedKernelOverride scope(ScalarKernels());
      scalar_engine_.LoadDatabase(MakeDatabase(11));
      ASSERT_TRUE(scalar_engine_.BuildIndex().ok());
    }
    {
      ScopedKernelOverride scope(NativeKernels());
      simd_engine_.LoadDatabase(MakeDatabase(11));
      ASSERT_TRUE(simd_engine_.BuildIndex().ok());
    }
  }

  ImGrnEngine scalar_engine_;
  ImGrnEngine simd_engine_;
};

TEST_F(KernelFuzzTest, GraphQueriesIdenticalAcrossBackends) {
  for (const ProbGraph& query : QuerySet()) {
    for (const QueryParams& params : ParamGrid()) {
      RunResult scalar;
      {
        ScopedKernelOverride scope(ScalarKernels());
        scalar = RunGraphQuery(&scalar_engine_, query, params);
      }
      RunResult simd;
      {
        ScopedKernelOverride scope(NativeKernels());
        simd = RunGraphQuery(&simd_engine_, query, params);
      }
      ExpectIdentical(scalar, simd, "graph query");
    }
  }
}

TEST_F(KernelFuzzTest, MatrixQueriesIdenticalAcrossBackends) {
  // The matrix entry point adds the ad-hoc GRN inference stage (M_Q ->
  // query graph) in front of retrieval; its per-pair estimates run on the
  // batched kernel under the SIMD backend.
  Rng rng(12);
  const GeneMatrix query_matrix =
      MakePlantedMatrix(0, 30, {{1, 2, 3}}, {}, 0.97, &rng);
  for (const QueryParams& params : ParamGrid()) {
    RunResult scalar;
    {
      ScopedKernelOverride scope(ScalarKernels());
      scalar = RunMatrixQuery(&scalar_engine_, query_matrix, params);
    }
    RunResult simd;
    {
      ScopedKernelOverride scope(NativeKernels());
      simd = RunMatrixQuery(&simd_engine_, query_matrix, params);
    }
    ExpectIdentical(scalar, simd, "matrix query");
  }
}

TEST_F(KernelFuzzTest, CrossBackendEngineServesIdenticalQueries) {
  // The strongest version of the guarantee: an engine BUILT under one
  // backend and QUERIED under the other still answers identically — the
  // persisted index state (embedded points, tree pages) is itself
  // backend-invariant, which is what makes snapshots portable across
  // machines with different SIMD support.
  for (const ProbGraph& query : QuerySet()) {
    QueryParams params;
    params.gamma = 0.5;
    params.alpha = 0.2;
    RunResult scalar_on_simd_built;
    {
      ScopedKernelOverride scope(ScalarKernels());
      scalar_on_simd_built = RunGraphQuery(&simd_engine_, query, params);
    }
    RunResult simd_on_scalar_built;
    {
      ScopedKernelOverride scope(NativeKernels());
      simd_on_scalar_built = RunGraphQuery(&scalar_engine_, query, params);
    }
    ExpectIdentical(scalar_on_simd_built, simd_on_scalar_built,
                    "cross-backend build/query");
  }
}

}  // namespace
}  // namespace imgrn
