// The acceptance suite of the durable storage subsystem: a disk-backed
// engine — freshly built or reopened from a snapshot — must be
// indistinguishable from the historical in-memory engine. Bit-identical
// matches, identical logical I/O counts (cold caches on both sides), and
// identical behavior under fault injection: a transient disk fault fails
// the query with kUnavailable, and the retry succeeds with the same
// results.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/engine.h"
#include "storage/storage_manager.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ExpectIdenticalMatches;
using testing_util::ExpectSameCounters;
using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;

class TempStoreFile {
 public:
  explicit TempStoreFile(const std::string& name)
      : path_(::testing::TempDir() + "imgrn_" + name + "_" +
              std::to_string(::getpid()) + ".pages") {
    std::remove(path_.c_str());
  }
  ~TempStoreFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Large enough for a multi-node R*-tree, so queries do real page I/O.
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

EngineOptions DiskEngineOptions(const std::string& path) {
  EngineOptions options;
  options.storage.backend = StorageBackend::kDisk;
  options.storage.path = path;
  return options;
}

struct ColdQueryResult {
  std::vector<QueryMatch> matches;
  QueryStats stats;
};

// Runs one query from a fully cold buffer pool, so the miss-based
// page_accesses metric is a deterministic function of the tree alone.
ColdQueryResult RunCold(ImGrnEngine* engine, const ProbGraph& query,
                        const QueryParams& params) {
  engine->mutable_index().mutable_rtree().FlushBufferPool();
  engine->mutable_index().mutable_rtree().ResetIoStats();
  ColdQueryResult result;
  Result<std::vector<QueryMatch>> matches =
      engine->QueryWithGraph(query, params, &result.stats);
  EXPECT_TRUE(matches.ok()) << matches.status().ToString();
  if (matches.ok()) result.matches = *matches;
  return result;
}

// Every match field bitwise, every deterministic QueryStats counter
// exactly (both runs start from a cold pool, so even page_accesses agree).
void ExpectIdentical(const ColdQueryResult& mem, const ColdQueryResult& disk,
                     const char* what) {
  ExpectIdenticalMatches(disk.matches, mem.matches, what);
  ExpectSameCounters(disk.stats, mem.stats, what);
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
  return grid;
}

std::vector<ProbGraph> QuerySet() {
  return {MakePathQuery({1, 2, 3}), MakePathQuery({5, 6}),
          MakePathQuery({30, 31, 32}), MakePathQuery({1, 2, 3, 4})};
}

TEST(StorageDifferentialTest, FreshDiskEngineMatchesMemoryEngine) {
  TempStoreFile file("fresh");
  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(1));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());

  ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
  disk_engine.LoadDatabase(MakeDatabase(1));
  ASSERT_TRUE(disk_engine.BuildIndex().ok());

  for (const ProbGraph& query : QuerySet()) {
    for (const QueryParams& params : ParamGrid()) {
      ColdQueryResult mem = RunCold(&mem_engine, query, params);
      ColdQueryResult disk = RunCold(&disk_engine, query, params);
      ExpectIdentical(mem, disk, "fresh disk vs memory");
    }
  }
}

TEST(StorageDifferentialTest, SnapshotReopenedEngineMatchesMemoryEngine) {
  TempStoreFile file("reopened");
  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(2));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());

  {
    ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
    disk_engine.LoadDatabase(MakeDatabase(2));
    ASSERT_TRUE(disk_engine.BuildIndex().ok());
    ASSERT_TRUE(disk_engine.SaveSnapshot().ok());
  }

  ImGrnEngine reopened(DiskEngineOptions(file.path()));
  ASSERT_TRUE(reopened.LoadSnapshot().ok());
  ASSERT_EQ(reopened.database().size(), 8u);

  for (const ProbGraph& query : QuerySet()) {
    for (const QueryParams& params : ParamGrid()) {
      ColdQueryResult mem = RunCold(&mem_engine, query, params);
      ColdQueryResult disk = RunCold(&reopened, query, params);
      ExpectIdentical(mem, disk, "snapshot-reopened vs memory");
    }
  }
}

TEST(StorageDifferentialTest, MatrixQueryParityOnReopenedEngine) {
  // The matrix entry point exercises GRN inference over the restored
  // database (standardization flags included), not just the tree.
  TempStoreFile file("matrix_query");
  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(3));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());
  {
    ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
    disk_engine.LoadDatabase(MakeDatabase(3));
    ASSERT_TRUE(disk_engine.BuildIndex().ok());
    ASSERT_TRUE(disk_engine.SaveSnapshot().ok());
  }
  ImGrnEngine reopened(DiskEngineOptions(file.path()));
  ASSERT_TRUE(reopened.LoadSnapshot().ok());

  const GeneMatrix& matrix = mem_engine.database().matrix(0);
  std::vector<size_t> columns;
  for (GeneId gene : {1u, 2u, 3u}) {
    columns.push_back(static_cast<size_t>(matrix.ColumnOfGene(gene)));
  }
  Result<GeneMatrix> query = matrix.ExtractColumns(columns);
  ASSERT_TRUE(query.ok());
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;

  QueryStats mem_stats, disk_stats;
  mem_engine.mutable_index().mutable_rtree().FlushBufferPool();
  mem_engine.mutable_index().mutable_rtree().ResetIoStats();
  Result<std::vector<QueryMatch>> mem_matches =
      mem_engine.Query(*query, params, &mem_stats);
  ASSERT_TRUE(mem_matches.ok());

  reopened.mutable_index().mutable_rtree().FlushBufferPool();
  reopened.mutable_index().mutable_rtree().ResetIoStats();
  Result<std::vector<QueryMatch>> disk_matches =
      reopened.Query(*query, params, &disk_stats);
  ASSERT_TRUE(disk_matches.ok());

  ExpectIdenticalMatches(*disk_matches, *mem_matches, "matrix query");
  ExpectSameCounters(disk_stats, mem_stats, "matrix query");
}

TEST(StorageDifferentialTest, IncrementalUpdatesKeepParity) {
  TempStoreFile file("updates");
  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(4));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());
  ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
  disk_engine.LoadDatabase(MakeDatabase(4));
  ASSERT_TRUE(disk_engine.BuildIndex().ok());

  // Same mutation sequence on both engines.
  {
    Rng rng_a(50);
    ASSERT_TRUE(
        mem_engine
            .AddMatrix(MakePlantedMatrix(8, 30, {{1, 2, 3}}, {40}, 0.97,
                                         &rng_a))
            .ok());
    Rng rng_b(50);
    ASSERT_TRUE(
        disk_engine
            .AddMatrix(MakePlantedMatrix(8, 30, {{1, 2, 3}}, {40}, 0.97,
                                         &rng_b))
            .ok());
  }
  ASSERT_TRUE(mem_engine.RemoveMatrix(2).ok());
  ASSERT_TRUE(disk_engine.RemoveMatrix(2).ok());

  for (const ProbGraph& query : QuerySet()) {
    QueryParams params;
    params.gamma = 0.5;
    params.alpha = 0.3;
    ColdQueryResult mem = RunCold(&mem_engine, query, params);
    ColdQueryResult disk = RunCold(&disk_engine, query, params);
    ExpectIdentical(mem, disk, "after add/remove");
  }
}

TEST(StorageDifferentialTest, TransientReadFaultFailsThenRetriesIdentically) {
  TempStoreFile file("read_fault");
  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(5));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());
  ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
  disk_engine.LoadDatabase(MakeDatabase(5));
  ASSERT_TRUE(disk_engine.BuildIndex().ok());

  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;

  // Cold pool, one transient disk read fault: the query must fail with
  // kUnavailable (the buffer pool's miss path reaches the disk).
  disk_engine.mutable_index().mutable_rtree().FlushBufferPool();
  disk_engine.mutable_index().mutable_rtree().ResetIoStats();
  {
    ScopedFaultInjection faults({{.site = fault_sites::kDiskRead,
                                  .every_nth = 1,
                                  .max_fires = 1}});
    Result<std::vector<QueryMatch>> matches =
        disk_engine.QueryWithGraph(query, params);
    ASSERT_FALSE(matches.ok());
    EXPECT_EQ(matches.status().code(), StatusCode::kUnavailable);
  }

  // The outage over, the retry is bit-identical to the memory engine.
  ColdQueryResult mem = RunCold(&mem_engine, query, params);
  ColdQueryResult disk = RunCold(&disk_engine, query, params);
  ExpectIdentical(mem, disk, "retry after transient read fault");
}

TEST(StorageDifferentialTest, SnapshotSaveRetriesAfterWriteFault) {
  TempStoreFile file("save_fault");
  ImGrnEngine disk_engine(DiskEngineOptions(file.path()));
  disk_engine.LoadDatabase(MakeDatabase(6));
  ASSERT_TRUE(disk_engine.BuildIndex().ok());

  {
    ScopedFaultInjection faults({{.site = fault_sites::kDiskWrite,
                                  .every_nth = 1,
                                  .max_fires = 1}});
    Status status = disk_engine.SaveSnapshot();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  }
  // The failed save must not have wedged the store: the retry commits and
  // the snapshot reopens to full parity.
  ASSERT_TRUE(disk_engine.SaveSnapshot().ok());

  ImGrnEngine mem_engine;
  mem_engine.LoadDatabase(MakeDatabase(6));
  ASSERT_TRUE(mem_engine.BuildIndex().ok());
  ImGrnEngine reopened(DiskEngineOptions(file.path()));
  ASSERT_TRUE(reopened.LoadSnapshot().ok());

  const ProbGraph query = MakePathQuery({1, 2, 3});
  QueryParams params;
  params.gamma = 0.5;
  params.alpha = 0.3;
  ColdQueryResult mem = RunCold(&mem_engine, query, params);
  ColdQueryResult disk = RunCold(&reopened, query, params);
  ExpectIdentical(mem, disk, "snapshot saved after write fault");
}

}  // namespace
}  // namespace imgrn
