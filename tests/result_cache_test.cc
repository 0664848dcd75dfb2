// The result-cache contract of service/result_cache.h, at both layers.
// Unit level (ResultCache): the LRU capacity bound, EncodeKey covering
// everything result-affecting, and fingerprint collisions being
// correctness-neutral (full key compare on hit, per-fingerprint slot
// replacement). Engine level (ShardedEngine): a hit is bit-identical to
// the miss that filled it (matches AND counters) and any source update
// drops it, generation-keyed invalidation across Rebalance AND Resize (a
// stale generation is structurally unservable), a faulted/degraded miss
// never poisoning the cache, and answers staying bit-exact under a
// degenerate hasher or a thrashing capacity bound.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "service/partitioner.h"
#include "service/result_cache.h"
#include "service/sharded_engine.h"
#include "tests/test_util.h"

namespace imgrn {
namespace {

using testing_util::ClusterDatabaseConfig;
using testing_util::DefaultClusterParams;
using testing_util::ExpectIdenticalMatches;
using testing_util::ExpectSameCounters;
using testing_util::MakeClusterDatabase;
using testing_util::MakeClusterMatrix;
using testing_util::MakeClusterQueryMatrix;
using testing_util::MakeLoadedShardedEngine;
using testing_util::MakePathQuery;
using testing_util::MakePlantedMatrix;
using testing_util::MakeShardedOptions;

// A query matrix over an explicit gene set. The engine's cache keys on
// the INFERRED query graph, so queries must differ in gene sets (not just
// matrix bytes) to occupy distinct cache entries — two matrices planting
// the same cluster infer the same graph and legitimately share one.
GeneMatrix ClusterQuery(uint64_t seed, const std::vector<GeneId>& cluster) {
  Rng rng(seed);
  return MakePlantedMatrix(0, 32, {cluster}, {}, 0.97, &rng);
}

// --- Unit level ----------------------------------------------------------

QueryParams ParamsWithTopK(size_t top_k) {
  QueryParams params;
  params.top_k = top_k;
  return params;
}

ResultCacheOptions CacheOptions(size_t capacity) {
  ResultCacheOptions options;
  options.capacity = capacity;
  return options;
}

std::vector<QueryMatch> OneMatch(SourceId source, double probability) {
  QueryMatch match;
  match.source = source;
  match.probability = probability;
  match.mapping = {{1, 0}, {2, 1}, {3, 2}};
  return {match};
}

TEST(ResultCacheTest, MissInsertHitRoundTrip) {
  ResultCache cache(CacheOptions(4));
  const ProbGraph graph = MakePathQuery({1, 2, 3});
  const std::string key = ResultCache::EncodeKey(7, graph, QueryParams{});
  EXPECT_FALSE(cache.Lookup(key).has_value());

  QueryStats stats;
  stats.answers = 1;
  stats.candidate_pairs = 17;
  stats.page_fetches = 5;
  cache.Insert(key, OneMatch(3, 0.625), stats);

  std::optional<CachedResult> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  ExpectIdenticalMatches(hit->matches, OneMatch(3, 0.625), "round trip");
  // The stored stats come back verbatim (a hit serves them bit-identical).
  EXPECT_EQ(hit->stats.answers, 1u);
  EXPECT_EQ(hit->stats.candidate_pairs, 17u);
  EXPECT_EQ(hit->stats.page_fetches, 5u);
}

TEST(ResultCacheTest, StatsCountersAndHitRate) {
  ResultCache cache(CacheOptions(4));
  const ProbGraph graph = MakePathQuery({1, 2, 3});
  const std::string key = ResultCache::EncodeKey(1, graph, QueryParams{});
  EXPECT_FALSE(cache.Lookup(key).has_value());
  cache.Insert(key, OneMatch(0, 0.5), QueryStats{});
  EXPECT_TRUE(cache.Lookup(key).has_value());

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(ResultCacheStats{}.hit_rate(), 0.0);  // No lookups yet.
}

TEST(ResultCacheTest, CapacityBoundEvictsLeastRecentlyUsed) {
  ResultCache cache(CacheOptions(2));
  const ProbGraph graph = MakePathQuery({1, 2, 3});
  const std::string k0 = ResultCache::EncodeKey(1, graph, ParamsWithTopK(0));
  const std::string k1 = ResultCache::EncodeKey(1, graph, ParamsWithTopK(1));
  const std::string k2 = ResultCache::EncodeKey(1, graph, ParamsWithTopK(2));

  cache.Insert(k0, OneMatch(0, 0.1), QueryStats{});
  cache.Insert(k1, OneMatch(1, 0.2), QueryStats{});
  // Touch k0 so k1 becomes the least recently used...
  EXPECT_TRUE(cache.Lookup(k0).has_value());
  // ...and the third insert evicts exactly k1.
  cache.Insert(k2, OneMatch(2, 0.3), QueryStats{});
  EXPECT_FALSE(cache.Lookup(k1).has_value());
  std::optional<CachedResult> hit0 = cache.Lookup(k0);
  ASSERT_TRUE(hit0.has_value());
  ExpectIdenticalMatches(hit0->matches, OneMatch(0, 0.1), "k0 survives");
  EXPECT_TRUE(cache.Lookup(k2).has_value());

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
}

TEST(ResultCacheTest, EncodeKeyCoversEverythingResultAffecting) {
  const ProbGraph graph = MakePathQuery({1, 2, 3});
  const QueryParams params = DefaultClusterParams();
  const std::string base = ResultCache::EncodeKey(1, graph, params);

  // Deterministic: the same inputs re-encode byte-identically.
  EXPECT_EQ(base, ResultCache::EncodeKey(1, MakePathQuery({1, 2, 3}), params));

  // The update generation is part of the key — THE invalidation mechanism.
  EXPECT_NE(base, ResultCache::EncodeKey(2, graph, params));

  // Every result-affecting param changes the key.
  QueryParams changed = params;
  changed.top_k = 5;
  EXPECT_NE(base, ResultCache::EncodeKey(1, graph, changed));
  changed = params;
  changed.gamma = 0.25;
  EXPECT_NE(base, ResultCache::EncodeKey(1, graph, changed));
  changed = params;
  changed.alpha = 0.8;
  EXPECT_NE(base, ResultCache::EncodeKey(1, graph, changed));
  changed = params;
  changed.seed = params.seed + 1;
  EXPECT_NE(base, ResultCache::EncodeKey(1, graph, changed));

  // So does the query graph: labels and edge probabilities both count.
  EXPECT_NE(base, ResultCache::EncodeKey(1, MakePathQuery({1, 2, 4}), params));
  ProbGraph weaker_edge;
  weaker_edge.AddVertex(1);
  weaker_edge.AddVertex(2);
  weaker_edge.AddVertex(3);
  weaker_edge.AddEdge(0, 1, 1.0);
  weaker_edge.AddEdge(1, 2, 0.5);
  EXPECT_NE(base, ResultCache::EncodeKey(1, weaker_edge, params));
}

TEST(ResultCacheTest, FingerprintCollisionsAreCorrectnessNeutral) {
  ResultCacheOptions options;
  options.capacity = 4;
  options.hasher = [](std::string_view) { return 42ull; };  // Everything collides.
  ResultCache cache(std::move(options));
  const ProbGraph graph = MakePathQuery({1, 2, 3});
  const std::string k1 = ResultCache::EncodeKey(1, graph, ParamsWithTopK(1));
  const std::string k2 = ResultCache::EncodeKey(1, graph, ParamsWithTopK(2));

  cache.Insert(k1, OneMatch(1, 0.4), QueryStats{});
  // Same fingerprint, different key: the full-key compare turns the
  // would-be hit into a miss — a collision can never serve a wrong answer.
  EXPECT_FALSE(cache.Lookup(k2).has_value());

  // Inserting the collider replaces the slot (one entry per fingerprint).
  cache.Insert(k2, OneMatch(2, 0.6), QueryStats{});
  EXPECT_FALSE(cache.Lookup(k1).has_value());
  std::optional<CachedResult> hit = cache.Lookup(k2);
  ASSERT_TRUE(hit.has_value());
  ExpectIdenticalMatches(hit->matches, OneMatch(2, 0.6), "collider value");

  const ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 0u);  // Replacement, not a capacity eviction.
}

// --- Engine level --------------------------------------------------------

// This suite's planted-cluster database (see tests/test_util.h).
constexpr ClusterDatabaseConfig kCacheConfig = {.seed_base = 3200};

class ResultCacheEngineTest : public testing_util::ReferenceEngineFixture {
 protected:
  static constexpr size_t kSources = 6;

  void SetUp() override {
    BuildReference(MakeClusterDatabase(kCacheConfig, kSources));
  }

  const QueryParams params_ = DefaultClusterParams();
};

// A cache hit is bit-identical to the miss that filled it — matches AND
// counters — and ANY source update (add or remove) drops it.
TEST_F(ResultCacheEngineTest, CacheHitBitIdenticalAndInvalidatedByUpdates) {
  const GeneMatrix query = MakeClusterQueryMatrix(8200);
  ThreadPool pool(2);
  std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
      kCacheConfig, kSources, MakeShardedOptions(2, /*cache_capacity=*/8),
      &pool);

  QueryStats miss_stats;
  Result<std::vector<QueryMatch>> first =
      sharded->Query(query, params_, &miss_stats);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(miss_stats.cache_hit);
  ExpectIdenticalMatches(*first, ReferenceQuery(query, params_), "miss");

  QueryStats hit_stats;
  Result<std::vector<QueryMatch>> second =
      sharded->Query(query, params_, &hit_stats);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(hit_stats.cache_hit);
  ExpectIdenticalMatches(*second, *first, "hit vs miss");
  ExpectSameCounters(hit_stats, miss_stats, "hit counters");

  ResultCacheStats cache = sharded->CacheStats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.insertions, 1u);
  EXPECT_EQ(cache.size, 1u);

  // Adding a source drops the entry...
  ASSERT_TRUE(
      sharded->AddSource(MakeClusterMatrix(kCacheConfig, kSources)).ok());
  ASSERT_TRUE(
      reference_.AddMatrix(MakeClusterMatrix(kCacheConfig, kSources)).ok());
  QueryStats after_add;
  Result<std::vector<QueryMatch>> third =
      sharded->Query(query, params_, &after_add);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_FALSE(after_add.cache_hit);
  ExpectIdenticalMatches(*third, ReferenceQuery(query, params_), "after add");

  // ...the refill serves hits again...
  QueryStats rehit;
  Result<std::vector<QueryMatch>> fourth =
      sharded->Query(query, params_, &rehit);
  ASSERT_TRUE(fourth.ok()) << fourth.status().ToString();
  EXPECT_TRUE(rehit.cache_hit);
  ExpectIdenticalMatches(*fourth, *third, "rehit");

  // ...and a removal drops it too.
  ASSERT_TRUE(sharded->RemoveSource(0).ok());
  ASSERT_TRUE(reference_.RemoveMatrix(0).ok());
  QueryStats after_remove;
  Result<std::vector<QueryMatch>> fifth =
      sharded->Query(query, params_, &after_remove);
  ASSERT_TRUE(fifth.ok()) << fifth.status().ToString();
  EXPECT_FALSE(after_remove.cache_hit);
  ExpectIdenticalMatches(*fifth, ReferenceQuery(query, params_),
                         "after remove");
}

// The generation key makes stale entries structurally unservable: after a
// Rebalance or Resize the old entry can never match, the recompute is
// bit-exact, and the refilled entry serves hits again.
TEST_F(ResultCacheEngineTest, RebalanceAndResizeInvalidateStaleGenerations) {
  ThreadPool pool(2);
  std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
      kCacheConfig, kSources, MakeShardedOptions(3, /*cache_capacity=*/8),
      &pool);
  const GeneMatrix query = MakeClusterQueryMatrix(8500);
  const std::vector<QueryMatch> expected = ReferenceQuery(query, params_);
  ASSERT_FALSE(expected.empty());

  auto query_expecting = [&](bool want_hit, const std::string& context) {
    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded->Query(query, params_, &stats);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
    EXPECT_EQ(stats.cache_hit, want_hit) << context;
    ExpectIdenticalMatches(*result, expected, context);
  };

  query_expecting(false, "cold miss");
  query_expecting(true, "first hit");

  // A plan-based Rebalance moves ownership only — answers cannot change —
  // but every topology mutation conservatively bumps the generation.
  PartitionPlan plan;
  plan.num_shards = 3;
  for (SourceId source = 0; source < kSources; ++source) {
    plan.shard_of.push_back(static_cast<uint32_t>((source + 1) % 3));
  }
  ASSERT_TRUE(sharded->Rebalance(plan).ok());
  query_expecting(false, "post-rebalance recompute");
  query_expecting(true, "post-rebalance hit");

  ASSERT_TRUE(sharded->Resize(2).ok());
  EXPECT_EQ(sharded->num_shards(), 2u);
  query_expecting(false, "post-resize recompute");
  query_expecting(true, "post-resize hit");

  const ResultCacheStats cache = sharded->CacheStats();
  EXPECT_EQ(cache.hits, 3u);
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_EQ(cache.insertions, 3u);
}

// A degraded answer (shard faulted on the miss) must never be cached:
// serving it later as a "hit" would silently drop sources forever.
TEST_F(ResultCacheEngineTest, FaultedMissDoesNotPoisonTheCache) {
  constexpr size_t kSickShard = 1;
  ShardedEngineOptions options =
      MakeShardedOptions(3, /*cache_capacity=*/8);
  options.retry.initial_backoff_micros = 1;
  options.breaker.failure_threshold = 100;  // Keep the breaker out of this.
  std::unique_ptr<ShardedEngine> sharded =
      MakeLoadedShardedEngine(kCacheConfig, kSources, std::move(options));

  const GeneMatrix query = MakeClusterQueryMatrix(8510);
  QueryParams partial = params_;
  partial.allow_partial = true;
  const std::vector<QueryMatch> expected_full =
      ReferenceQuery(query, params_);
  std::vector<QueryMatch> expected_degraded;
  for (const QueryMatch& match : expected_full) {
    if (sharded->ShardOf(match.source) != kSickShard) {
      expected_degraded.push_back(match);
    }
  }

  {
    ScopedFaultInjection faults({{.site = fault_sites::kShardSubQuery,
                                  .detail = kSickShard,
                                  .every_nth = 1}});
    for (size_t q = 0; q < 2; ++q) {
      QueryStats stats;
      Result<std::vector<QueryMatch>> result =
          sharded->Query(query, partial, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(stats.degraded);
      // The second pass would be a poisoned hit if degraded results were
      // ever inserted.
      EXPECT_FALSE(stats.cache_hit);
      ExpectIdenticalMatches(*result, expected_degraded,
                             "degraded " + std::to_string(q));
    }
    EXPECT_EQ(sharded->CacheStats().insertions, 0u);
  }

  // Fault cleared: the same key now computes (and caches) the FULL answer.
  QueryStats recovered;
  Result<std::vector<QueryMatch>> result =
      sharded->Query(query, partial, &recovered);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(recovered.cache_hit);
  EXPECT_FALSE(recovered.degraded);
  ExpectIdenticalMatches(*result, expected_full, "recovered miss");

  QueryStats hit;
  result = sharded->Query(query, partial, &hit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.degraded);
  ExpectIdenticalMatches(*result, expected_full, "recovered hit");
}

// A degenerate hasher collides every key on the live engine: hit rate
// collapses (per-fingerprint replacement), answers never change.
TEST_F(ResultCacheEngineTest, DegenerateHasherKeepsAnswersBitExact) {
  ShardedEngineOptions options =
      MakeShardedOptions(2, /*cache_capacity=*/4);
  options.cache.hasher = [](std::string_view) { return 7ull; };
  std::unique_ptr<ShardedEngine> sharded =
      MakeLoadedShardedEngine(kCacheConfig, kSources, std::move(options));

  const GeneMatrix query_a = ClusterQuery(8520, {1, 2, 3});
  const GeneMatrix query_b = ClusterQuery(8521, {2, 3});
  const std::vector<QueryMatch> expected_a = ReferenceQuery(query_a, params_);
  const std::vector<QueryMatch> expected_b = ReferenceQuery(query_b, params_);

  auto run = [&](const GeneMatrix& query,
                 const std::vector<QueryMatch>& expected, bool want_hit,
                 const std::string& context) {
    QueryStats stats;
    Result<std::vector<QueryMatch>> result =
        sharded->Query(query, params_, &stats);
    ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
    EXPECT_EQ(stats.cache_hit, want_hit) << context;
    ExpectIdenticalMatches(*result, expected, context);
  };

  run(query_a, expected_a, false, "a cold");
  run(query_b, expected_b, false, "b replaces a's slot");
  // a's entry was replaced by the collider — a MISS, never b's answer.
  run(query_a, expected_a, false, "a recomputed after collision");
  run(query_a, expected_a, true, "a hits its refill");
  EXPECT_EQ(sharded->CacheStats().size, 1u);  // One fingerprint slot total.
}

// The capacity bound holds on the live engine even under LRU thrash, and
// every miss recomputes bit-exact.
TEST_F(ResultCacheEngineTest, CapacityBoundHoldsUnderThrash) {
  std::unique_ptr<ShardedEngine> sharded = MakeLoadedShardedEngine(
      kCacheConfig, kSources, MakeShardedOptions(2, /*cache_capacity=*/2));

  // Three gene-distinct queries (distinct inferred graphs, so distinct
  // cache keys); every source plants {1, 2, 3}, so the pair subsets still
  // match everywhere.
  const std::vector<GeneId> kGeneSets[] = {{1, 2, 3}, {1, 2}, {2, 3}};
  std::vector<GeneMatrix> queries;
  std::vector<std::vector<QueryMatch>> expected;
  for (size_t q = 0; q < 3; ++q) {
    queries.push_back(ClusterQuery(8530 + q, kGeneSets[q]));
    expected.push_back(ReferenceQuery(queries.back(), params_));
  }

  // Two passes over three distinct queries through a two-entry cache: the
  // LRU victim is always the query about to be asked next, so every pass
  // misses — yet every answer is bit-exact.
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < 3; ++q) {
      QueryStats stats;
      Result<std::vector<QueryMatch>> result =
          sharded->Query(queries[q], params_, &stats);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(stats.cache_hit) << "pass " << pass << " query " << q;
      ExpectIdenticalMatches(*result, expected[q],
                             "pass " + std::to_string(pass) + " query " +
                                 std::to_string(q));
    }
  }
  // The most recent query is still resident.
  QueryStats stats;
  Result<std::vector<QueryMatch>> result =
      sharded->Query(queries[2], params_, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(stats.cache_hit);
  ExpectIdenticalMatches(*result, expected[2], "resident tail");

  const ResultCacheStats cache = sharded->CacheStats();
  EXPECT_EQ(cache.capacity, 2u);
  EXPECT_EQ(cache.size, 2u);
  EXPECT_EQ(cache.misses, 6u);
  EXPECT_EQ(cache.insertions, 6u);
  EXPECT_EQ(cache.evictions, 4u);
  EXPECT_EQ(cache.hits, 1u);
}

}  // namespace
}  // namespace imgrn
