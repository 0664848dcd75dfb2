#ifndef IMGRN_SERVICE_SHARDED_ENGINE_H_
#define IMGRN_SERVICE_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_engine.h"
#include "service/circuit_breaker.h"
#include "service/cost_model.h"
#include "service/maintenance.h"
#include "service/partitioner.h"
#include "service/result_cache.h"
#include "service/thread_pool.h"

namespace imgrn {

/// Retry policy for one per-shard sub-query. Only transient failures
/// (kUnavailable) are retried — kDataLoss means the bytes are corrupt and
/// will stay corrupt, so retrying it only burns the latency budget.
struct ShardRetryOptions {
  /// Total attempts per sub-query (1 = no retries).
  size_t max_attempts = 3;

  /// Sleep before the first retry; doubles (backoff_multiplier) per
  /// further retry. Kept short: a sub-query holds no locks while backing
  /// off, but the caller's latency budget is ticking.
  int64_t initial_backoff_micros = 100;

  double backoff_multiplier = 2.0;
};

/// Knobs of a ShardedEngine.
struct ShardedEngineOptions {
  /// Number of independent ImGrnEngine shards. Each shard has its own
  /// index, its own R*-tree paged file, and therefore its own buffer pool
  /// — the shared buffer-pool mutex of the single-engine service does not
  /// exist here. Resize() can change the count at runtime.
  size_t num_shards = 4;

  /// Pending removal. Every shard is exactly one engine, so the only legal
  /// value is 1 (checked at construction). The field survives only
  /// because perfbench/perfbench.cc still assigns it; drop it once the
  /// benchmark stops doing so.
  size_t num_replicas = 1;

  /// Placement policy: decides which shard owns each source, both for the
  /// initial LoadDatabase split and for every AddSource. Null means
  /// ModuloPartitioner (source i -> shard i mod K, the PR-2 behavior).
  /// See service/partitioner.h; partitioning never affects query results.
  std::shared_ptr<const Partitioner> partitioner;

  /// Engine/index options applied to every shard.
  EngineOptions engine;

  /// When non-empty, every shard's engine runs disk-backed: files are
  /// created in this directory as "shard-<n>.pages" (n from a monotonic
  /// counter, so files never collide across the shard generations
  /// LoadDatabase, Resize and RebuildShard create). These files are spill
  /// space owned by the engine — created on demand, unlinked when their
  /// shard is destroyed — not a durability domain:
  /// the sharded engine re-partitions on reload. Durable single-store
  /// snapshots are the plain ImGrnEngine's SaveSnapshot. Empty (default)
  /// = in-memory shards, the historical behavior. Overrides
  /// `engine.storage`.
  std::string storage_dir;

  /// How the measured per-source EWMA is blended with the static estimate
  /// wherever the engine re-plans (auto Rebalance; Resize under a
  /// partitioner with wants_measured_costs()). See service/cost_model.h.
  CostCalibrationOptions calibration;

  /// Per-sub-query retry/backoff for transient shard failures.
  ShardRetryOptions retry;

  /// Per-shard circuit breaker quarantining shards that keep failing (see
  /// service/circuit_breaker.h). The defaults never trip on a healthy
  /// shard: only counted failures (kUnavailable/kDataLoss/kInternal) move
  /// the state machine. A quarantined shard's sub-queries fail fast with
  /// kUnavailable, so queries degrade per QueryParams::allow_partial.
  CircuitBreakerOptions breaker;

  /// Whole-query result cache (see service/result_cache.h). capacity 0
  /// (the default) disables it. Hits skip the fan-out entirely and are
  /// bit-identical to a fresh evaluation; any source update or topology
  /// change invalidates every prior entry (generation-keyed keys). Note a
  /// hit also skips the measured-cost sampling, so warm the cost model
  /// with distinct queries (or a disabled cache) before auto-Rebalance.
  ResultCacheOptions cache;

  /// Self-healing maintenance plane (see service/maintenance.h): a daemon
  /// thread that scrubs page checksums, quarantines a corrupt shard and
  /// rebuilds it from its own sources, reclaims storage stranded by index
  /// rebuilds, and auto-fires Rebalance on measured imbalance with
  /// hysteresis. Off by default (`maintenance.enabled = false`).
  MaintenanceOptions maintenance;
};

/// Per-shard counters of one StatsSnapshot() call. The traffic counters
/// restart from zero when RebuildShard replaces the shard.
struct ShardStats {
  size_t shard = 0;
  size_t sources = 0;            ///< Active (added minus removed) sources.
  double cost = 0.0;             ///< Estimated load (EstimateSourceCost sum).
  double measured_work = 0.0;    ///< Measured load: sum of the per-source
                                 ///< work EWMAs (SourceCostSample::work) of
                                 ///< this shard's live sources (0 until
                                 ///< queries ran).
  uint64_t sub_queries = 0;      ///< Finished per-shard sub-queries.
  uint64_t sub_query_errors = 0; ///< Of those, non-OK (incl. cancelled).
  uint64_t in_flight = 0;        ///< Sub-queries running right now.
  CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  uint64_t breaker_rejections = 0; ///< Attempts the breaker turned away.
};

struct ShardedEngineStatsSnapshot {
  std::vector<ShardStats> shards;

  /// max/mean of the per-shard cost gauges (1.0 = perfectly balanced,
  /// num_shards = all load on one shard). Fan-out latency is bounded by
  /// the hottest shard, so this is the skew penalty a rebalance removes.
  double imbalance = 1.0;

  /// The same max/mean ratio over the MEASURED per-shard load
  /// (ShardStats::measured_work). 1.0 while the registry is cold; once
  /// traffic has touched the database this is the imbalance queries
  /// actually experience, which can disagree with the estimate in either
  /// direction (e.g. a giant source the index prunes perfectly inflates
  /// the estimate but costs nothing measured).
  double measured_imbalance = 1.0;

  /// Result-cache counters (capacity 0 = no cache configured).
  ResultCacheStats cache;

  /// Maintenance-plane counters; `maintenance.enabled` is false when the
  /// engine runs without a daemon (all counters then zero).
  MaintenanceStats maintenance;

  /// One line per shard, e.g. "shard0: sources=3 load=1.2e5
  /// measured=3.8e4 sub_queries=17 errors=0 in_flight=0 breaker=closed",
  /// then an "imbalance=" summary line reporting both ratios and a
  /// "cache:" line when one exists.
  std::string DebugString() const;
};

/// A database partitioned across K independent ImGrnEngine instances (one
/// engine per shard), queried with fan-out/merge in front of an optional
/// whole-query result cache. The partition map is pluggable (see
/// ShardedEngineOptions::partitioner) and can be changed while the engine
/// serves: Rebalance(plan) migrates sources between shards and Resize(K')
/// changes the shard count — both without a reload and without ever
/// perturbing query results.
///
/// Why: the single-engine QueryService write-locks the WHOLE index for
/// every AddMatrix/RemoveMatrix, and all queries contend on one buffer
/// pool. Here an update routes to exactly one shard and only write-locks
/// that shard — queries keep running on the other K-1 shards — and every
/// shard traverses its own R*-tree over its own buffer pool. Readers of
/// one shard share its reader-writer lock, and the result cache
/// short-circuits hot queries entirely.
///
/// Query semantics are bit-identical to a single ImGrnEngine over the
/// unpartitioned database, for every shard count, every partition map,
/// and with or without the cache:
///   - the query GRN is inferred ONCE (same seed, same stream), then fanned
///     out to each shard as a sub-query over that shard's sources;
///   - refinement probabilities are per-source deterministic regardless of
///     partitioning (PermutationCache draws per-length streams — see
///     inference/permutation_cache.h), so neither the shard a source lives
///     on nor its local id there can change its matches;
///   - matches come back with shard-local ids, are remapped to global
///     source ids, merged in ascending source order, and the top_k policy
///     is applied once to the merged set (sub-queries run with top_k
///     disabled so per-shard truncation can never hide a global winner);
///   - index pruning only ever discards non-answers, so different per-shard
///     pivots change work, not results;
///   - a cache hit returns the stored matches and stats of the fresh
///     evaluation that filled it (same engine state — the key embeds the
///     update generation), flagged with QueryStats::cache_hit.
/// tests/sharded_engine_test.cc enforces this differentially across shard
/// counts; tests/partition_invariance_test.cc for arbitrary partition
/// maps and across live Rebalance/Resize; tests/result_cache_test.cc
/// across cache hits and invalidations.
///
/// Topology and the rebalance protocol: the shard list and the partition
/// map live in one immutable Topology object published behind a mutex.
/// Every query pins the current topology for its whole fan-out (a pin
/// count on the topology object) and filters each shard's matches through
/// the pinned map, so a query is answered by exactly one owner per source
/// even while sources are in flight between shards. A migration step is:
/// copy the moving sources into their destination shards (under those
/// shards' write locks), publish the new topology, wait for every query
/// pinned to an older topology to drain, then delete the moved sources
/// from their old shards. Between the copy and the delete a moving source
/// is materialized on two shards, but the map filter guarantees each query
/// counts it exactly once — old-topology queries see it on the old owner
/// (whose data outlives them), new-topology queries on the new.
/// RebuildShard reuses the same machinery: it copies the shard's active
/// sources into a fresh shard, publishes a topology holding the fresh
/// shard in the old one's place, and drains the older pins, after which
/// the last shared_ptr retires the old shard (publish→drain→delete).
/// Queries on shards untouched by a plan never block; updates
/// (AddSource/RemoveSource) serialize with a rebalance in progress.
///
/// Fan-out runs on the ThreadPool passed at construction (pass null to run
/// sub-queries sequentially on the calling thread). The pool may be shared
/// with the QueryService that owns this engine: gathering uses
/// ThreadPool::WaitReady, so a worker blocked on its sub-queries executes
/// queued tasks itself instead of deadlocking the pool.
///
/// Error semantics: each sub-query runs behind its shard's circuit
/// breaker and is retried with bounded backoff for transient
/// (kUnavailable) failures. If a shard still fails (quarantined, or
/// retries exhausted), the query returns the error Status of the
/// lowest-numbered failing shard — unless QueryParams::allow_partial is
/// set and the failure is an infrastructure error (kUnavailable/
/// kDataLoss), in which case the query degrades: it merges the surviving
/// shards' matches (bit-exact for every source they own) and reports
/// QueryStats::degraded plus the failed shard list. Caller-attributed
/// errors (Cancelled, DeadlineExceeded, InvalidArgument) always fail the
/// whole query, as does every shard failing at once. All sub-queries are
/// always gathered first — no orphaned tasks. A cancelled/expired
/// QueryControl fans out to every shard, so all sub-queries unwind at
/// their next checkpoint. Degraded and failed results are never cached.
/// In particular, between QuarantineShard and the end of RebuildShard a
/// strict query touching that shard returns kUnavailable and an
/// allow_partial query degrades.
///
/// Thread safety: Query/QueryWithGraph/AddSource/RemoveSource/Rebalance/
/// Resize/RebuildShard/StatsSnapshot are safe from any thread once
/// BuildIndex has run (the QueryEngine contract). LoadDatabase/BuildIndex
/// are setup-phase calls: no other call may overlap them.
class ShardedEngine : public QueryEngine {
 public:
  explicit ShardedEngine(ShardedEngineOptions options = {},
                         ThreadPool* pool = nullptr);

  /// Stops the maintenance daemon (joining its thread) before any engine
  /// state is torn down.
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Partitions the database across the shards following the configured
  /// partitioner's plan over the per-source cost estimates (each shard's
  /// slice is remapped to that shard's dense local id space). Invalidates
  /// any previously built indices.
  void LoadDatabase(GeneDatabase database);

  /// Builds every non-empty shard's index, in parallel when a pool is
  /// available. Must be called after LoadDatabase and before Query.
  Status BuildIndex();

  Result<std::vector<QueryMatch>> Query(
      const GeneMatrix& query_matrix, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  Result<std::vector<QueryMatch>> QueryWithGraph(
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const override;

  /// Appends a new data source; `matrix.source_id()` must equal
  /// num_sources(). The partitioner picks the owning shard (modulo: id mod
  /// K; cost-based policies: the least-loaded shard), and only that shard
  /// is write-locked.
  Status AddSource(GeneMatrix matrix) override;

  /// Retracts a source from query results. Write-locks only the owning
  /// shard.
  Status RemoveSource(SourceId source) override;

  /// Migrates sources so that source i lives on shard plan.shard_of[i],
  /// while queries keep running (see the locking protocol above). The plan
  /// must cover exactly num_sources() sources over num_shards() shards.
  /// Retracted sources are accepted in the plan but nothing moves for
  /// them. Blocks concurrent AddSource/RemoveSource/Rebalance/Resize for
  /// the duration; queries only ever wait on the shards a migration step
  /// is actively copying into or deleting from.
  Status Rebalance(const PartitionPlan& plan);

  /// Auto mode: computes a minimum-movement plan over the CALIBRATED
  /// per-source costs (static estimate blended with the measured EWMA the
  /// engine collects while serving — see service/cost_model.h) and
  /// executes it through the same migration protocol as Rebalance(plan).
  /// Only the few sources needed to bring max/mean under
  /// `target_imbalance` move (see PlanMinimalRebalance); a full
  /// BalancedPartitioner re-plan would typically relocate far more. If
  /// `moved_sources` is non-null it receives the number of sources
  /// migrated (0 when already under target). Bare Rebalance() targets
  /// kDefaultRebalanceTarget.
  Status Rebalance(double target_imbalance = kDefaultRebalanceTarget,
                   size_t* moved_sources = nullptr);

  static constexpr double kDefaultRebalanceTarget = 1.25;

  /// Re-partitions the database across `new_num_shards` shards (grow or
  /// shrink) using the configured partitioner, without a reload. Shards
  /// keep their identity below min(K, K'); dropped shards are retired once
  /// the last in-flight query pinned to them drains. Same blocking
  /// behavior as Rebalance.
  Status Resize(size_t new_num_shards);

  size_t num_shards() const;

  /// Total sources ever added (the dense global id space; removed sources
  /// still count — ids are never reused).
  size_t num_sources() const override;

  /// Which shard owns a global source id under the CURRENT partition map
  /// (a Rebalance/Resize may change the answer). `source` must be <
  /// num_sources().
  size_t ShardOf(SourceId source) const;

  bool has_index() const { return built_; }

  /// Runs one shard's sub-query under that shard's reader lock, bypassing
  /// its circuit breaker and retries, returning matches with GLOBAL source
  /// ids (ascending) for the sources the current partition map assigns to
  /// that shard. An empty shard yields an empty result. This is the unit
  /// Query fans out; it is also useful on its own (tests, debugging or
  /// timing a single shard).
  Result<std::vector<QueryMatch>> QueryShard(
      size_t shard, const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats = nullptr,
      const QueryControl* control = nullptr) const;

  ShardedEngineStatsSnapshot StatsSnapshot() const;

  /// Result-cache counters; all-zero (capacity 0) when no cache is
  /// configured.
  ResultCacheStats CacheStats() const;

  /// The calibrated per-source costs an auto Rebalance would plan over
  /// right now: static estimates (retracted sources zeroed) blended with
  /// the measured EWMAs per options().calibration. Indexed by global
  /// source id.
  std::vector<double> CalibratedSourceCosts() const;

  /// The live measured-cost registry (read-only): per-source query-work
  /// EWMAs and sample counts, written lock-free by every sub-query.
  const MeasuredCostRegistry& measured_costs() const { return measured_; }

  /// One bounded step of the checksum scrubber (the maintenance daemon's
  /// tick body; public so tests drive it deterministically). Resumes at
  /// `*cursor`, seal-verifies up to `max_pages` live pages across the
  /// shard stores it reaches, and advances the cursor (wrapping shard /
  /// page like an odometer). Scrubbing runs under each shard's SHARED
  /// lock — concurrent queries are undisturbed. When a shard's store
  /// finishes clean and `reclaim` is set, stranded pages are reclaimed
  /// under that shard's EXCLUSIVE lock (see ImGrnEngine::ReclaimStorage).
  /// A kDataLoss seal failure is reported in `*report` (not the return
  /// Status): the cursor skips to the next shard and the caller is
  /// expected to QuarantineShard + RebuildShard. Non-data-loss read errors
  /// return the Status with the cursor just past the failing page.
  Status ScrubStep(ScrubCursor* cursor, size_t max_pages, bool reclaim,
                   ScrubReport* report) const;

  /// Forces the breaker of `shard` open (fresh cooldown), so its
  /// sub-queries fail fast with kUnavailable until RebuildShard replaces
  /// it. Used by the maintenance daemon the instant the scrubber proves
  /// the shard's store corrupt. `shard` must be < num_shards().
  void QuarantineShard(size_t shard);

  /// Re-synthesizes `shard` from its own sources: its active matrices
  /// (memory-resident, intact even when the backing STORE is not) are
  /// copied into a fresh engine with a fresh backing store and indexed,
  /// the fresh shard is published in the topology in the old one's place,
  /// and the old shard is retired once every query pinned to it drains —
  /// the copy -> publish -> drain protocol migrations use, so answers
  /// never change. The rebuilt shard starts with a closed breaker.
  /// InvalidArgument for an out-of-range shard.
  Status RebuildShard(size_t shard);

  /// The maintenance daemon, or null when options().maintenance.enabled is
  /// false. Tests use it for TickForTesting()/Stats().
  MaintenanceDaemon* maintenance() const { return maintenance_.get(); }

  /// Test/instrumentation hook: the reader-writer lock of one shard, e.g.
  /// to pin a shard in the "update in progress" state and observe that
  /// the other shards keep serving.
  std::shared_mutex& shard_mutex_for_testing(size_t shard) const;

 private:
  /// One shard: its own ImGrnEngine (own index, own R*-tree paged file,
  /// own buffer pool), the local<->global id tables, health gauges, and a
  /// circuit breaker.
  struct Shard {
    Shard(const EngineOptions& options,
          const CircuitBreakerOptions& breaker_options)
        : engine(options), breaker(breaker_options) {}

    /// Readers = sub-queries and the scrubber, writer = the update or
    /// migration step routed to this shard.
    mutable std::shared_mutex mutex;
    ImGrnEngine engine;

    /// local id i of this shard's engine holds global source
    /// local_to_global[i]. Entries are never erased (engine local ids are
    /// never reused); active[i] is false once the source was retracted or
    /// migrated away. A source that migrates away and later returns gets a
    /// fresh local id, so a global id may appear twice with at most one
    /// entry active.
    std::vector<SourceId> local_to_global;
    std::vector<bool> active;

    /// Engine holds a database with a built index. False for a shard that
    /// never received a source.
    bool built = false;

    /// Count and estimated cost of active sources, mirrored atomically so
    /// StatsSnapshot never has to touch `mutex` (it stays callable while a
    /// shard is write-locked, e.g. from tests observing an in-flight
    /// update). Only threads holding update_mutex_ write them.
    std::atomic<size_t> active_sources{0};
    std::atomic<double> cost{0.0};

    mutable std::atomic<uint64_t> sub_queries_started{0};
    mutable std::atomic<uint64_t> sub_queries_finished{0};
    mutable std::atomic<uint64_t> sub_query_errors{0};

    /// Quarantine gate for this shard's sub-queries. Travels with the
    /// Shard object across Rebalance/Resize (a sick shard stays
    /// quarantined through a topology change); RebuildShard replaces it.
    mutable CircuitBreaker breaker;
  };

  /// The unit of atomicity for queries: an immutable shard list +
  /// partition map, published as a whole. Queries pin one topology for
  /// their entire fan-out; Rebalance/Resize/RebuildShard publish a
  /// successor and wait for the pins on the predecessor to drain before
  /// deleting migrated data (or the replaced shard).
  struct Topology {
    std::vector<std::shared_ptr<Shard>> shards;

    /// Global source id -> owning shard index (size = sources known when
    /// this topology was published; later-added sources are absent and
    /// pass the query filter on whichever single shard holds them).
    std::vector<uint32_t> shard_of;

    /// Queries currently pinned to this topology. Incremented only under
    /// topology_mutex_ while this is the published topology, so once a
    /// successor is published the count can only fall.
    mutable std::atomic<int64_t> pins{0};
  };

  /// RAII pin: snapshots the published topology and holds it for the
  /// caller's lifetime.
  class TopologyPin {
   public:
    explicit TopologyPin(const ShardedEngine& engine);
    ~TopologyPin();
    TopologyPin(const TopologyPin&) = delete;
    TopologyPin& operator=(const TopologyPin&) = delete;
    const Topology& operator*() const { return *topology_; }
    const Topology* operator->() const { return topology_.get(); }

   private:
    std::shared_ptr<const Topology> topology_;
  };

  /// QueryShard body without the public bounds check. `topology` is the
  /// pinned snapshot whose map filters the shard's matches. Raw: one
  /// attempt, no breaker — the fan-out path wraps it in
  /// RunShardWithRecovery.
  Result<std::vector<QueryMatch>> RunShard(const Topology& topology,
                                           size_t shard_index,
                                           const ProbGraph& query_graph,
                                           const QueryParams& params,
                                           QueryStats* stats,
                                           const QueryControl* control) const;

  /// RunShard behind the shard's circuit breaker, with bounded
  /// retry/exponential backoff for kUnavailable (options_.retry). Reports
  /// retry spend in stats->shard_retries. This is what Query's fan-out
  /// runs per shard.
  Result<std::vector<QueryMatch>> RunShardWithRecovery(
      const Topology& topology, size_t shard_index,
      const ProbGraph& query_graph, const QueryParams& params,
      QueryStats* stats, const QueryControl* control) const;

  /// The published topology (under topology_mutex_).
  std::shared_ptr<const Topology> CurrentTopology() const;

  /// Publishes `topology` as the current one (under topology_mutex_) and
  /// records the outgoing topology in the drain history.
  void Publish(std::shared_ptr<const Topology> topology);

  /// Blocks until every query pinned to any topology OLDER than `newest`
  /// has finished. Draining only the immediate predecessor is not enough:
  /// AddSource publishes intermediate topologies, so at migration time a
  /// query may still hold a map several generations back (one that does
  /// not even cover a recently added source). Must not hold any shard lock
  /// (drained queries may need them to finish); callers hold
  /// update_mutex_, which queries never take.
  void DrainOlder(const Topology& newest) const;

  /// Shared migration machinery of Rebalance and Resize: moves every
  /// active source to target_map's shard, over the target_shards list
  /// (which reuses the current Shard objects for indices they share).
  /// Caller holds update_mutex_.
  Status MigrateLocked(std::vector<std::shared_ptr<Shard>> target_shards,
                       std::vector<uint32_t> target_map);

  /// Gives a fresh, never-published `shard` the slice `part` whose local
  /// id i holds global source `globals[i]`, with total estimated `cost`.
  /// Loads the engine (when the slice is non-empty) but builds no index.
  static void LoadShard(Shard& shard, GeneDatabase part,
                        std::vector<SourceId> globals, double cost);

  /// Appends `matrix` (a global source) to `shard`'s engine under its
  /// write lock, bootstrapping the engine if the shard was empty.
  Status AppendToShardLocked(Shard& shard, GeneMatrix matrix,
                             SourceId global, double cost);

  /// Deactivates `global`'s active entry on `shard` (engine RemoveMatrix
  /// + side tables + gauges) under the shard's write lock. The entry must
  /// exist.
  Status RemoveFromShardLocked(Shard& shard, SourceId global, double cost);

  /// Deactivates local id `local` of `shard`; caller holds the shard's
  /// write lock and update_mutex_.
  static Status DeactivateLocal(Shard& shard, size_t local, double cost);

  /// CalibratedSourceCosts() body; caller holds update_mutex_.
  std::vector<double> CalibratedCostsLocked() const;

  /// Index of `global`'s active entry in shard.local_to_global, or -1.
  static int64_t ActiveLocalOf(const Shard& shard, SourceId global);

  /// Creates one empty Shard with the configured engine options, giving
  /// it a fresh backing file under options_.storage_dir when one is set.
  /// Caller must hold update_mutex_ or be in a setup-phase call.
  std::shared_ptr<Shard> MakeShard();

  ShardedEngineOptions options_;
  std::shared_ptr<const Partitioner> partitioner_;  // Never null.
  ThreadPool* pool_;  // May be null (sequential fan-out); not owned.

  /// The published topology. Guarded by topology_mutex_ (pointer reads and
  /// swaps only; the pointee is immutable apart from its pin count).
  std::shared_ptr<const Topology> topology_;

  /// Every topology ever superseded, for DrainOlder (weak: a retired
  /// topology is kept alive only by the queries still pinning it; expired
  /// entries are pruned on publish). Guarded by topology_mutex_.
  mutable std::vector<std::weak_ptr<const Topology>> topology_history_;
  mutable std::mutex topology_mutex_;

  /// Serializes AddSource/RemoveSource/Rebalance/Resize/RebuildShard with
  /// each other (routing + migration metadata below). Queries never touch
  /// this mutex — an update only contends with sub-queries of its own
  /// shard, via the shard mutexes.
  mutable std::mutex update_mutex_;
  size_t next_source_ = 0;
  size_t shard_files_created_ = 0;  ///< Names the next per-shard file.
  std::vector<double> source_cost_;  ///< Per global source, for replanning.
  std::vector<bool> retracted_;      ///< RemoveSource'd global ids.

  /// Set by BuildIndex, cleared by LoadDatabase. Atomic: the maintenance
  /// daemon polls it from its own thread to sit out the setup phase.
  std::atomic<bool> built_{false};

  /// The result cache's invalidation clock: bumped by every mutation that
  /// can change answers (LoadDatabase, AddSource, RemoveSource, and every
  /// Rebalance/Resize — conservatively, since a pure migration cannot).
  /// Cache keys embed the generation they were computed at, so bumping
  /// makes every prior entry unservable. RebuildShard deliberately does
  /// NOT bump: a rebuilt shard holds the same sources, so the cache stays
  /// warm through a repair.
  mutable std::atomic<uint64_t> update_generation_{0};

  /// Null when options_.cache.capacity == 0.
  mutable std::unique_ptr<ResultCache> cache_;

  /// Measured per-source query cost, fed by RunShard on every sub-query
  /// (one sample per live source of the shard, zero for untouched ones, so
  /// the EWMA tracks the expected per-query work under the live mix).
  /// Lock-free; mutable because recording happens on the const query path.
  mutable MeasuredCostRegistry measured_;

  /// Declared LAST: the daemon's thread calls back into everything above,
  /// so it must be destroyed (joined) first. Null unless
  /// options_.maintenance.enabled. The explicit destructor stops and
  /// resets it before anything else regardless.
  std::unique_ptr<MaintenanceDaemon> maintenance_;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_SHARDED_ENGINE_H_
