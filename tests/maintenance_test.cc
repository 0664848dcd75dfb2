// The self-healing maintenance plane (service/maintenance.h): the
// checksum scrubber detects an injected corrupt page BEFORE any query
// fails, quarantines the shard, and rebuilds it from its own sources
// (ShardedEngine::RebuildShard) with every query bit-identical to an
// unsharded reference throughout; storage reclaim frees pages stranded by
// shadow-paging rebuilds; the auto-rebalance loop fires with hysteresis
// and an injectable-clock cooldown, and un-sticks the two-shard
// exchange-only stall via the swap move; the daemon's lifecycle races
// live queries, Rebalance, Resize, and RebuildShard cleanly. This binary is the
// "maintenance" ctest label: tools/ci_sanitize.sh runs it under both
// TSan and ASan.

#include "service/maintenance.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/engine.h"
#include "service/partitioner.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ClusterDatabaseConfig;
using testing_util::DefaultClusterParams;
using testing_util::ExpectIdenticalMatches;
using testing_util::MakeClusterDatabase;
using testing_util::MakeClusterMatrix;
using testing_util::MakeClusterQueryMatrix;
using testing_util::MakeLoadedShardedEngine;
using testing_util::MakePlantedMatrix;
using testing_util::MakeShardedOptions;

// This suite's planted-cluster database (see tests/test_util.h): its own
// seeds so a regression here cannot be masked by a stale golden from
// another binary.
constexpr ClusterDatabaseConfig kConfig = {.seed_base = 9100};

// A scratch directory for the disk-backed suites. Every shard file inside
// it is unlink_on_close, so removing the directory afterwards suffices.
class TempStorageDir {
 public:
  explicit TempStorageDir(const std::string& name)
      : path_(::testing::TempDir() + "imgrn_maint_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempStorageDir() { std::filesystem::remove_all(path_); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

PartitionPlan MakePlan(size_t num_shards, std::vector<uint32_t> shard_of) {
  PartitionPlan plan;
  plan.num_shards = num_shards;
  plan.shard_of = std::move(shard_of);
  return plan;
}

// Injectable daemon clock (MaintenanceOptions::clock_micros is a plain
// function pointer, so the fake steps a file-scope atomic).
std::atomic<int64_t> g_fake_now_micros{0};
int64_t FakeClockMicros() { return g_fake_now_micros.load(); }

class MaintenanceTest : public testing_util::ReferenceEngineFixture {
 protected:
  static constexpr size_t kSources = 6;

  void SetUp() override {
    BuildReference(MakeClusterDatabase(kConfig, kSources));
  }

  const QueryParams params_ = DefaultClusterParams();
};

// --- The acceptance scenario --------------------------------------------

// One shard's store rots (injected disk.read kDataLoss). Driven on the
// deterministic clock (tick_interval_micros = 0, TickForTesting), the
// scrubber must detect the corruption before any query ever sees it,
// quarantine the shard, and rebuild it from its own sources in the same
// tick — with the sharded engine's answers bit-identical to the
// unsharded reference at every step.
TEST_F(MaintenanceTest, ScrubberDetectsCorruptionAndRebuildsFromPeer) {
  TempStorageDir dir("scrub_rebuild");
  ShardedEngineOptions options = MakeShardedOptions(
      /*num_shards=*/2, /*cache_capacity=*/0, dir.path());
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;  // Deterministic: no thread.
  options.maintenance.scrub_pages_per_tick = 64;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));
  ASSERT_NE(engine->maintenance(), nullptr);

  const GeneMatrix query = MakeClusterQueryMatrix(9200);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  // Baseline before the corruption: bit-identical to the reference.
  {
    Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdenticalMatches(*got, expected, "baseline");
  }

  // Rot exactly one page: the next disk read — which is the scrubber's,
  // because no query runs before the tick — fails its CRC seal.
  ScopedFaultInjection fault({{.site = fault_sites::kDiskRead,
                               .every_nth = 1,
                               .max_fires = 1,
                               .code = StatusCode::kDataLoss}});

  engine->maintenance()->TickForTesting();
  MaintenanceStats stats = engine->maintenance()->Stats();
  EXPECT_EQ(stats.ticks, 1u);
  EXPECT_EQ(stats.corrupt_pages, 1u)
      << "the scrubber's first page read must hit the injected rot";
  EXPECT_EQ(stats.shards_rebuilt, 1u);
  EXPECT_EQ(stats.rebuild_failures, 0u);
  EXPECT_EQ(stats.scrub_errors, 0u);

  // Scrub a few full laps past the rebuild; every query in between stays
  // bit-identical — the corruption was repaired before any query could
  // observe it.
  for (int tick = 0; tick < 12; ++tick) {
    engine->maintenance()->TickForTesting();
    Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdenticalMatches(*got, expected,
                           "tick " + std::to_string(tick));
  }
  stats = engine->maintenance()->Stats();
  EXPECT_EQ(stats.corrupt_pages, 1u) << "the rebuilt store must scrub clean";
  EXPECT_EQ(stats.shards_rebuilt, 1u);
  EXPECT_GT(stats.pages_scrubbed, 0u);
  EXPECT_EQ(stats.scrub_errors, 0u);

  // The same counters surface through the engine's StatsSnapshot.
  const ShardedEngineStatsSnapshot snapshot = engine->StatsSnapshot();
  EXPECT_TRUE(snapshot.maintenance.enabled);
  EXPECT_EQ(snapshot.maintenance.shards_rebuilt, 1u);
  EXPECT_FALSE(snapshot.DebugString().empty());
}

// Direct quarantine + rebuild (no daemon), for every shard in turn.
// Between QuarantineShard and the end of RebuildShard the shard is out:
// strict queries get kUnavailable, allow_partial queries degrade with the
// surviving shard's matches bit-exact. After the rebuild every answer is
// bit-identical to the unsharded reference again — a retracted source
// stays retracted, and updates keep landing on the rebuilt shards.
TEST_F(MaintenanceTest, RebuildReplicaKeepsAnswersBitIdentical) {
  TempStorageDir dir("rebuild_direct");
  ShardedEngineOptions options = MakeShardedOptions(
      /*num_shards=*/2, /*cache_capacity=*/0, dir.path());
  // The quarantine must outlast the window under test; a half-open probe
  // would otherwise readmit the shard before it is rebuilt.
  options.breaker.open_duration_micros = 60'000'000;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));
  ASSERT_TRUE(engine->RemoveSource(1).ok());
  ASSERT_TRUE(reference_.RemoveMatrix(1).ok());
  const GeneMatrix query = MakeClusterQueryMatrix(9201);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);
  QueryParams partial = params_;
  partial.allow_partial = true;

  for (size_t shard = 0; shard < 2; ++shard) {
    const std::string context = "shard " + std::to_string(shard);
    engine->QuarantineShard(shard);
    EXPECT_EQ(engine->Query(query, params_).status().code(),
              StatusCode::kUnavailable)
        << context;
    {
      std::vector<QueryMatch> surviving;
      for (const QueryMatch& match : expected) {
        if (engine->ShardOf(match.source) != shard) {
          surviving.push_back(match);
        }
      }
      ASSERT_FALSE(surviving.empty()) << context;
      QueryStats stats;
      Result<std::vector<QueryMatch>> got =
          engine->Query(query, partial, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(stats.degraded) << context;
      EXPECT_EQ(stats.failed_shards, std::vector<size_t>{shard}) << context;
      ExpectIdenticalMatches(*got, surviving, context + " degraded");
    }
    ASSERT_TRUE(engine->RebuildShard(shard).ok()) << context;
    {
      Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectIdenticalMatches(*got, expected, context + " rebuilt");
    }
  }
  EXPECT_EQ(engine->RebuildShard(9).code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(engine->AddSource(MakeClusterMatrix(kConfig, kSources)).ok());
  ASSERT_TRUE(reference_.AddMatrix(MakeClusterMatrix(kConfig, kSources)).ok());
  ASSERT_TRUE(engine->RemoveSource(2).ok());
  ASSERT_TRUE(reference_.RemoveMatrix(2).ok());
  Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdenticalMatches(*got, ReferenceQuery(query, params_),
                         "updates after rebuild");
}

// --- Scrub cursor robustness --------------------------------------------

// A cursor that outlived a topology change (fewer shards or pages than it
// remembers) must clamp, not crash or error, and a driven scrub must
// still cover the stores.
TEST_F(MaintenanceTest, ScrubStepClampsStaleCursors) {
  TempStorageDir dir("cursor_clamp");
  auto engine = MakeLoadedShardedEngine(
      kConfig, kSources,
      MakeShardedOptions(/*num_shards=*/3, /*cache_capacity=*/0, dir.path()));

  ScrubCursor cursor;
  cursor.shard = 99;  // Past the end: reset to the first shard.
  cursor.page = 12345;
  ScrubReport report;
  ASSERT_TRUE(engine->ScrubStep(&cursor, 32, /*reclaim=*/true, &report).ok());
  EXPECT_FALSE(report.corrupt);

  // Shrink the topology under the cursor and keep scrubbing.
  ASSERT_TRUE(engine->Resize(2).ok());
  size_t total_scrubbed = 0;
  for (int step = 0; step < 64; ++step) {
    report = ScrubReport();
    ASSERT_TRUE(
        engine->ScrubStep(&cursor, 64, /*reclaim=*/true, &report).ok());
    EXPECT_FALSE(report.corrupt);
    total_scrubbed += report.pages_scrubbed;
  }
  EXPECT_GT(total_scrubbed, 0u);
  EXPECT_LT(cursor.shard, 2u);
}

// --- Storage reclaim ----------------------------------------------------

// Shadow-paging index rebuilds strand the old tree's pages in the store.
// ReclaimStorage (the scrubber's end-of-store step) must free them and
// shrink the file, while the snapshot saved against the CURRENT tree
// still cold-starts.
TEST(MaintenanceReclaimTest, ReclaimFreesStrandedRebuildPages) {
  const std::string path =
      ::testing::TempDir() + "imgrn_maint_reclaim.pages";
  std::remove(path.c_str());

  EngineOptions options;
  options.storage.backend = StorageBackend::kDisk;
  options.storage.path = path;
  ImGrnEngine engine(options);
  engine.LoadDatabase(MakeClusterDatabase(kConfig, 5));
  ASSERT_TRUE(engine.BuildIndex().ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());

  // Rebuild: the new tree shadow-pages fresh slots; the old tree's pages
  // are now garbage no snapshot references once we re-save.
  ASSERT_TRUE(engine.BuildIndex().ok());
  ASSERT_TRUE(engine.SaveSnapshot().ok());

  size_t reclaimed = 0;
  size_t truncated = 0;
  ASSERT_TRUE(engine.ReclaimStorage(&reclaimed, &truncated).ok());
  EXPECT_GT(reclaimed, 0u) << "the first tree's pages were stranded";

  // The store is still fully queryable and the snapshot still loads.
  const GeneMatrix query = MakeClusterQueryMatrix(9300);
  const QueryParams params = DefaultClusterParams();
  Result<std::vector<QueryMatch>> before = engine.Query(query, params);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(engine.LoadSnapshot().ok());
  Result<std::vector<QueryMatch>> after = engine.Query(query, params);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectIdenticalMatches(*after, *before, "post-reclaim cold start");

  // A second reclaim finds nothing new.
  reclaimed = 0;
  ASSERT_TRUE(engine.ReclaimStorage(&reclaimed, &truncated).ok());
  EXPECT_EQ(reclaimed, 0u);
  std::remove(path.c_str());
}

// --- Auto-rebalance loop ------------------------------------------------

// Cold-registry fallback + hysteresis, on the deterministic tick: a
// stalled all-on-one-shard layout reads measured_imbalance 2.0 through
// the static fallback (satellite 3 — a cold registry used to read 1.0
// and the loop never fired), the first tick fires exactly one rebalance,
// and the loop re-arms only after imbalance drops below rebalance_low.
TEST_F(MaintenanceTest, RebalanceLoopFiresOnceAndRearmsBelowLow) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  options.maintenance.rebalance_low = 1.25;
  options.maintenance.rebalance_target = 1.25;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  ASSERT_NEAR(engine->StatsSnapshot().measured_imbalance, 2.0, 1e-9)
      << "cold registry must fall back to the static estimate";

  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);
  EXPECT_GT(engine->maintenance()->Stats().sources_moved, 0u);
  EXPECT_LE(engine->StatsSnapshot().measured_imbalance, 1.25 + 1e-9);

  // Balanced now: further ticks re-arm but have nothing to fire at.
  engine->maintenance()->TickForTesting();
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  // Stall again: the loop re-armed while balanced, so it fires again.
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 2u);
}

TEST_F(MaintenanceTest, RebalanceLoopStaysDisarmedAboveLow) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  // rebalance_low below any reachable imbalance (the gauge never reads
  // under 1.0): after the first fire the loop can never re-arm.
  options.maintenance.rebalance_low = 0.5;
  options.maintenance.rebalance_target = 1.25;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  ASSERT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  for (int tick = 0; tick < 4; ++tick) {
    engine->maintenance()->TickForTesting();
  }
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u)
      << "hysteresis: never re-armed, so never re-fired";
}

TEST_F(MaintenanceTest, RebalanceCooldownHonorsInjectedClock) {
  g_fake_now_micros = 0;
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 0;
  options.maintenance.rebalance_high = 1.5;
  // Always armed (the gauge is always <= 10), so only the cooldown gates
  // consecutive fires.
  options.maintenance.rebalance_low = 10.0;
  options.maintenance.rebalance_target = 1.25;
  options.maintenance.rebalance_cooldown_micros = 1'000'000;
  options.maintenance.clock_micros = &FakeClockMicros;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  ASSERT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  // Within the cooldown: armed, above high, but rate-limited.
  ASSERT_TRUE(engine->Rebalance(stalled).ok());
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 1u);

  g_fake_now_micros = 2'000'000;
  engine->maintenance()->TickForTesting();
  EXPECT_EQ(engine->maintenance()->Stats().rebalance_fires, 2u);
}

// --- The swap-stall regression, end to end ------------------------------

// Four sources with static costs {600, 600, 350, 350} (5 genes each; 24-
// vs 14-sample lengths) stalled as {0,1}|{2,3}: imbalance 1200/950 ~
// 1.263. No single move improves (gap 500, both hot sources cost 600),
// so the pre-swap planner left Rebalance(1.25) stuck above target
// forever. The swap move must reach 950/950 = 1.0 by exchanging a hot
// source for a cool one — and answers must not move a bit.
TEST_F(MaintenanceTest, SwapRebalanceUnsticksTwoShardStall) {
  GeneDatabase database;
  for (SourceId s = 0; s < 4; ++s) {
    Rng rng(9400 + s);
    const size_t samples = s < 2 ? 24 : 14;
    database.Add(MakePlantedMatrix(
        s, samples, {{1, 2, 3}},
        {static_cast<GeneId>(70 + 10 * s), static_cast<GeneId>(71 + 10 * s)},
        0.97, &rng));
  }
  ShardedEngine engine(MakeShardedOptions(/*num_shards=*/2));
  engine.LoadDatabase(std::move(database));
  ASSERT_TRUE(engine.BuildIndex().ok());

  ASSERT_TRUE(engine.Rebalance(MakePlan(2, {0, 0, 1, 1})).ok());
  const ShardedEngineStatsSnapshot before = engine.StatsSnapshot();
  EXPECT_NEAR(before.imbalance, 1200.0 / 950.0, 1e-9);
  EXPECT_NEAR(before.measured_imbalance, 1200.0 / 950.0, 1e-9)
      << "cold registry: the static fallback carries the ratio";

  const GeneMatrix query = MakeClusterQueryMatrix(9401);
  Result<std::vector<QueryMatch>> stalled_answers = engine.Query(query, params_);
  ASSERT_TRUE(stalled_answers.ok());

  size_t moved = 0;
  ASSERT_TRUE(engine.Rebalance(1.25, &moved).ok());
  EXPECT_EQ(moved, 2u) << "the swap relocates exactly two sources";
  const ShardedEngineStatsSnapshot after = engine.StatsSnapshot();
  EXPECT_LE(after.imbalance, 1.25 + 1e-9);
  EXPECT_LE(after.measured_imbalance, 1.25 + 1e-9);
  EXPECT_NEAR(after.imbalance, 1.0, 1e-9);

  Result<std::vector<QueryMatch>> swapped_answers = engine.Query(query, params_);
  ASSERT_TRUE(swapped_answers.ok());
  ExpectIdenticalMatches(*swapped_answers, *stalled_answers, "post-swap");
}

// --- Layout-independent measured costs ---------------------------------

// Two statistically identical twin sources sharing one sample length.
// Co-located, they share one per-query permutation cache, whose fill is
// paid by whichever twin refines first; apart, each shard fills its own.
// The measured cost model counts deterministic work, which no cache fill
// or shard placement enters, so each twin's EWMA must read exactly the
// same in BOTH layouts.
TEST(MaintenanceEwmaTest, PermutationFillDoesNotSkewPerSourceCosts) {
  constexpr size_t kTwinSamples = 48;
  ClusterDatabaseConfig twin_config = {.seed_base = 9500,
                                       .samples_base = kTwinSamples,
                                       .samples_step = 0,
                                       .samples_mod = 0,
                                       .filler_base = 80,
                                       .num_fillers = 1};
  QueryParams params = DefaultClusterParams();
  // A large fill per query: under wall-clock samples this made the
  // first-refined twin read several times its peer.
  params.refine_num_samples = 4096;
  const GeneMatrix query = MakeClusterQueryMatrix(9501);

  auto run_layout = [&](std::vector<uint32_t> shard_of) {
    auto engine = MakeLoadedShardedEngine(twin_config, /*num_sources=*/2,
                                          MakeShardedOptions(2));
    ShardedEngine* raw = engine.get();
    EXPECT_TRUE(raw->Rebalance(MakePlan(2, std::move(shard_of))).ok());
    for (int i = 0; i < 12; ++i) {
      Result<std::vector<QueryMatch>> got = raw->Query(query, params);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
    }
    return engine;
  };

  auto together = run_layout({0, 0});  // Twins share shard 0's cache.
  auto apart = run_layout({0, 1});     // Each twin fills its own cache.

  for (SourceId twin : {0u, 1u}) {
    const double together_cost = together->measured_costs().Ewma(twin);
    ASSERT_GT(together_cost, 0.0) << "twin " << twin;
    EXPECT_EQ(together_cost, apart->measured_costs().Ewma(twin))
        << "twin " << twin;
  }

  // The fill itself is still reported, per query.
  QueryStats stats;
  Result<std::vector<QueryMatch>> got = together->Query(query, params, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GT(stats.permutation_fill_seconds, 0.0);
}

// --- Daemon lifecycle under live traffic --------------------------------

TEST_F(MaintenanceTest, DaemonStartStopIsIdempotent) {
  ShardedEngineOptions options = MakeShardedOptions(/*num_shards=*/2);
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 500;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));
  MaintenanceDaemon* daemon = engine->maintenance();
  ASSERT_NE(daemon, nullptr);

  daemon->Stop();
  daemon->Stop();
  daemon->Start();
  daemon->Start();
  daemon->Stop();
  // Manual ticks keep working after the thread is gone.
  const uint64_t before = daemon->Stats().ticks;
  daemon->TickForTesting();
  EXPECT_EQ(daemon->Stats().ticks, before + 1);
  daemon->Start();  // Destroyed running: the engine dtor joins it.
}

// The full plane racing live traffic: a fast-ticking daemon (scrubbing a
// disk-backed store, reclaiming, and watching the rebalance gauge) under
// concurrent queries, explicit rebalances, resizes, shard rebuilds and
// stats snapshots. Every query must stay bit-identical to the
// unsharded reference; TSan owns the rest of the assertions.
TEST_F(MaintenanceTest, DaemonRacesQueriesAndTopologyChanges) {
  TempStorageDir dir("daemon_races");
  ShardedEngineOptions options = MakeShardedOptions(
      /*num_shards=*/2, /*cache_capacity=*/0, dir.path());
  options.maintenance.enabled = true;
  options.maintenance.tick_interval_micros = 200;
  options.maintenance.scrub_pages_per_tick = 128;
  auto engine = MakeLoadedShardedEngine(kConfig, kSources, std::move(options));

  const GeneMatrix query = MakeClusterQueryMatrix(9600);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        Result<std::vector<QueryMatch>> got = engine->Query(query, params_);
        if (!got.ok()) {
          ++failures;
          continue;
        }
        ExpectIdenticalMatches(*got, expected, "racing query");
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      const ShardedEngineStatsSnapshot snapshot = engine->StatsSnapshot();
      if (!snapshot.DebugString().empty() && snapshot.shards.empty()) {
        ++failures;  // Unreachable; keeps the snapshot from optimizing out.
      }
    }
  });

  // Deterministic mutation script on the main thread (the plan below is
  // only valid at K=2, so resizes bracket it).
  const PartitionPlan stalled =
      MakePlan(2, std::vector<uint32_t>(kSources, 0));
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(engine->Rebalance(stalled).ok());
    EXPECT_TRUE(engine->Rebalance(1.25, nullptr).ok());
    EXPECT_TRUE(engine->Resize(3).ok());
    EXPECT_TRUE(engine->Resize(2).ok());
    // No quarantine first: the racing queries are strict, and a
    // quarantined shard fails them by design (that window is pinned by
    // RebuildReplicaKeepsAnswersBitIdentical). The rebuild itself must
    // never perturb a query.
    EXPECT_TRUE(engine->RebuildShard(round % 2).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(engine->maintenance()->Stats().ticks, 0u);
  // Destroying the engine while the daemon thread is live must join it
  // cleanly (no explicit Stop here, on purpose).
}

}  // namespace
}  // namespace imgrn
