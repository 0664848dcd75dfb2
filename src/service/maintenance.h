#ifndef IMGRN_SERVICE_MAINTENANCE_H_
#define IMGRN_SERVICE_MAINTENANCE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace imgrn {

class ShardedEngine;

/// The self-healing maintenance plane: a daemon thread owned by a
/// ShardedEngine (opt-in via ShardedEngineOptions::maintenance) that runs
/// three background jobs so the cluster repairs itself before queries get
/// hurt:
///
///  1. Checksum scrubber — walks the cold pages of every shard's backing
///     store at a bounded rate (`scrub_pages_per_tick`), verifying each
///     page's CRC32C seal via the same read path queries use. A page that
///     fails with kDataLoss quarantines its shard (breaker forced open:
///     strict queries on it get kUnavailable, allow_partial queries
///     degrade) and rebuilds the shard from its own memory-resident
///     sources over the copy -> publish -> drain protocol
///     (ShardedEngine::RebuildShard). While a shard's store scrubs clean
///     end-to-end, pages stranded by shadow-paging index rebuilds are
///     reclaimed and the file truncated (`reclaim_storage`).
///
///  2. Auto-rebalance — watches `StatsSnapshot().measured_imbalance` and
///     fires Rebalance when it crosses `rebalance_high`. Hysteresis: after
///     firing, the loop is disarmed until imbalance falls back below
///     `rebalance_low`, so a workload hovering near the threshold cannot
///     make the loop thrash. An optional cooldown further rate-limits
///     fires.
///
///  3. Observability — every counter below lands in the engine's
///     StatsSnapshot (and `imgrn maintenance status`).
///
/// Determinism for tests: `tick_interval_micros <= 0` starts no thread —
/// drive the daemon with TickForTesting(). `clock_micros` injects the
/// clock the cooldown reads. `on_tick` observes every tick's cumulative
/// stats from the tick thread itself.
struct MaintenanceOptions {
  /// Master switch. When false, ShardedEngine creates no daemon at all.
  bool enabled = false;

  /// Background tick period. `<= 0` means "no thread": the daemon only
  /// ticks when TickForTesting() is called, which is how the deterministic
  /// tests drive it.
  int64_t tick_interval_micros = 100000;

  /// Scrub-rate bound: at most this many live pages are seal-verified per
  /// tick, across all shards (the cursor resumes where the
  /// previous tick stopped). This is the knob that keeps the scrubber's
  /// I/O a background hum instead of a query-latency spike.
  size_t scrub_pages_per_tick = 64;

  /// When true, a shard whose store just scrubbed clean end-to-end also
  /// gets its stranded pages reclaimed (ImGrnEngine::ReclaimStorage) under
  /// an exclusive shard lock.
  bool reclaim_storage = true;

  /// Rebalance fires when measured_imbalance >= rebalance_high (and the
  /// loop is armed)...
  double rebalance_high = 1.5;

  /// ...and re-arms only once measured_imbalance <= rebalance_low.
  /// `rebalance_low` < `rebalance_high` gives the loop its hysteresis gap.
  double rebalance_low = 1.25;

  /// Imbalance target handed to ShardedEngine::Rebalance when firing.
  double rebalance_target = 1.25;

  /// Minimum time between rebalance fires; 0 disables the cooldown.
  int64_t rebalance_cooldown_micros = 0;

  /// Clock the rebalance cooldown reads, in microseconds. Null means
  /// std::chrono::steady_clock. Tests inject a fake to step time.
  int64_t (*clock_micros)() = nullptr;

  /// Called at the end of every tick, from the ticking thread, with the
  /// cumulative stats. Tests use this to observe the daemon racing real
  /// queries without polling.
  std::function<void(const struct MaintenanceStats&)> on_tick;
};

/// Resumable position of the scrubber: which shard's store it is in and
/// the next page id to verify there. Owned by the daemon; exposed so tests
/// can drive ShardedEngine::ScrubStep directly.
struct ScrubCursor {
  size_t shard = 0;
  size_t page = 0;
};

/// What one ScrubStep call did. `corrupt` flags a kDataLoss seal failure;
/// `corrupt_shard` then names the shard that needs quarantine + rebuild
/// (the cursor has already been advanced past it).
struct ScrubReport {
  size_t pages_scrubbed = 0;
  size_t pages_reclaimed = 0;
  size_t slots_truncated = 0;
  bool corrupt = false;
  size_t corrupt_shard = 0;
};

/// Cumulative maintenance counters; a section of the engine's
/// StatsSnapshot.
struct MaintenanceStats {
  bool enabled = false;
  uint64_t ticks = 0;
  uint64_t pages_scrubbed = 0;
  uint64_t corrupt_pages = 0;
  uint64_t shards_rebuilt = 0;
  uint64_t rebuild_failures = 0;
  uint64_t pages_reclaimed = 0;
  uint64_t slots_truncated = 0;
  uint64_t rebalance_fires = 0;
  uint64_t sources_moved = 0;
  uint64_t scrub_errors = 0;
};

/// The daemon itself. Thread-safe: Start/Stop/TickForTesting/Stats may be
/// called from any thread; ticks are serialized on an internal mutex, so a
/// TickForTesting never overlaps a background tick. The owning engine
/// destroys the daemon (joining its thread) before tearing anything else
/// down.
class MaintenanceDaemon {
 public:
  MaintenanceDaemon(ShardedEngine* engine, MaintenanceOptions options);
  ~MaintenanceDaemon();

  MaintenanceDaemon(const MaintenanceDaemon&) = delete;
  MaintenanceDaemon& operator=(const MaintenanceDaemon&) = delete;

  /// Starts the background thread (no-op when `tick_interval_micros <= 0`
  /// or already started).
  void Start();

  /// Stops and joins the background thread. Idempotent; safe without
  /// Start.
  void Stop();

  /// Runs exactly one tick synchronously on the calling thread —
  /// scrub step, corruption handling, rebalance check, on_tick hook.
  void TickForTesting() { Tick(); }

  /// Snapshot of the cumulative counters.
  MaintenanceStats Stats() const;

  const MaintenanceOptions& options() const { return options_; }

 private:
  void Loop();
  void Tick();
  void ScrubTick();
  void RebalanceTick();
  int64_t NowMicros() const;

  ShardedEngine* const engine_;
  const MaintenanceOptions options_;

  // Serializes ticks (background thread vs TickForTesting) and guards the
  // non-atomic tick-local state below it.
  std::mutex tick_mutex_;
  ScrubCursor cursor_;
  bool rebalance_armed_ = true;
  bool rebalance_fired_before_ = false;
  int64_t last_rebalance_micros_ = 0;

  std::atomic<uint64_t> ticks_{0};
  std::atomic<uint64_t> pages_scrubbed_{0};
  std::atomic<uint64_t> corrupt_pages_{0};
  std::atomic<uint64_t> shards_rebuilt_{0};
  std::atomic<uint64_t> rebuild_failures_{0};
  std::atomic<uint64_t> pages_reclaimed_{0};
  std::atomic<uint64_t> slots_truncated_{0};
  std::atomic<uint64_t> rebalance_fires_{0};
  std::atomic<uint64_t> sources_moved_{0};
  std::atomic<uint64_t> scrub_errors_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace imgrn

#endif  // IMGRN_SERVICE_MAINTENANCE_H_
