#ifndef IMGRN_SERVICE_COST_MODEL_H_
#define IMGRN_SERVICE_COST_MODEL_H_

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "matrix/gene_matrix.h"

namespace imgrn {

/// Measured per-source query cost, maintained as an exponentially weighted
/// moving average of the work each query spends on the source (the
/// sharded engine feeds SourceCostSample::work, a deterministic count, so
/// the averages do not move with machine load or speed). The sharded query
/// path records one sample per (query, active source) pair — INCLUDING
/// zero samples for sources the query never touched — so the EWMA
/// converges to the *expected* work a query of the live mix spends on the
/// source: a source whose genes the workload never asks about decays
/// toward zero even though its static genes² × samples estimate is large,
/// and a source the index cannot prune converges to its true refinement
/// cost. That expectation (not the static proxy) is the quantity shard
/// balancing should equalize.
///
/// Thread safety: fully lock-free. Record() may be called concurrently
/// from any number of query threads while Ewma()/Samples() readers (e.g. a
/// rebalance planning pass) run; storage grows by CAS-publishing fixed
/// blocks, so no pointer ever moves once readers can see it. Ties between
/// concurrent Record() calls on one source are resolved by a CAS loop —
/// one sample may occasionally be folded in twice under extreme
/// contention-retry interleavings is NOT possible (the loop re-reads), but
/// ordering between two racing samples is arbitrary, which an EWMA
/// tolerates by construction.
class MeasuredCostRegistry {
 public:
  /// Weight of the newest sample: ewma' = (1-a)*ewma + a*sample.
  static constexpr double kAlpha = 0.2;

  MeasuredCostRegistry() = default;
  ~MeasuredCostRegistry();

  MeasuredCostRegistry(const MeasuredCostRegistry&) = delete;
  MeasuredCostRegistry& operator=(const MeasuredCostRegistry&) = delete;

  /// Folds one observation (the query cost attributed to `source`, in the
  /// caller's unit) into the source's EWMA. The first sample initializes the
  /// average. Lock-free; safe from any thread.
  void Record(SourceId source, double cost);

  /// Current EWMA for `source`; 0.0 before any sample. With
  /// decay enabled, the stored average is attenuated by the wall-clock age
  /// of its newest sample before being returned (see SetDecay).
  double Ewma(SourceId source) const;

  /// Enables wall-clock decay: an EWMA whose newest sample is `age`
  /// seconds old reads (and blends) as ewma * 0.5^(age / half_life).
  /// Sample-count EWMAs only forget when new samples arrive, so a source
  /// the workload has STOPPED querying keeps its stale cost forever and a
  /// rebalance keeps planning around traffic that no longer exists; the
  /// half-life makes idle sources literally fade. 0 (the default) disables
  /// decay — the pre-decay behavior, bit for bit. Set before traffic runs
  /// (plain member, not synchronized against concurrent Record).
  void SetDecay(double half_life_seconds);

  /// Test hook: replaces the monotonic clock (microseconds) behind decay,
  /// so tests step time deterministically. Set before traffic runs.
  void SetClockForTesting(int64_t (*clock_micros)());

  /// Number of samples folded into `source`'s EWMA so far.
  uint64_t Samples(SourceId source) const;

  /// Forgets `source` entirely (EWMA and sample count back to zero). For
  /// retracted sources, whose past cost must stop counting toward the
  /// shard that used to serve them. Not atomic with respect to a racing
  /// Record() on the SAME source; callers serialize removal against
  /// queries at a higher level (the engine's topology protocol guarantees
  /// no sub-query attributes time to a source after RemoveSource returns).
  void Retire(SourceId source);

  /// Drops every source (e.g. on LoadDatabase). Quiescent callers only.
  void Reset();

 private:
  struct Entry {
    std::atomic<uint64_t> samples{0};
    std::atomic<double> ewma{0.0};
    // Monotonic micros of the newest folded sample; only meaningful once
    // samples > 0. Drives wall-clock decay (SetDecay).
    std::atomic<int64_t> last_update_micros{0};
  };
  // Storage is a directory of fixed-size blocks. A block is allocated on
  // first touch and CAS-published; losers delete their candidate and reuse
  // the winner's, so a block pointer observed non-null is immutable (the
  // Entry contents are the only mutable state). This is what lets readers
  // walk the structure without locks while writers extend it.
  static constexpr size_t kBlockBits = 9;  // 512 entries per block.
  static constexpr size_t kBlockSize = size_t{1} << kBlockBits;
  static constexpr size_t kMaxBlocks = 1 << 12;  // Covers ~2M sources.

  Entry* EntryFor(SourceId source);             // Allocates as needed.
  const Entry* FindEntry(SourceId source) const;  // Null if never touched.

  int64_t NowMicros() const;
  // 0.5^(age / half-life); 1.0 when decay is disabled or age <= 0.
  double DecayFactor(int64_t age_micros) const;

  std::array<std::atomic<Entry*>, kMaxBlocks> blocks_{};
  double half_life_seconds_ = 0.0;            // 0 = decay disabled.
  int64_t (*clock_micros_)() = nullptr;       // Null = steady_clock.
};

/// Knobs of CalibrateSourceCosts.
struct CostCalibrationOptions {
  /// A source's EWMA participates only once it has at least this many
  /// samples; below that the static estimate stands alone (a freshly added
  /// source should not swing the plan on one noisy timing).
  uint64_t min_samples = 4;

  /// Wall-clock half-life (seconds) applied to the measured EWMAs via
  /// MeasuredCostRegistry::SetDecay by owners that wire the two together
  /// (ShardedEngine does). 0 disables decay: measurements never go stale.
  double measured_half_life_seconds = 0.0;
};

/// Blends the static per-source estimates (the prior) with the measured
/// EWMAs: for a source with n >= min_samples samples,
///
///   calibrated = w * scale * ewma + (1 - w) * static,   w = n / (n + min)
///
/// where `scale` = (sum of static) / (sum of ewma) over the calibrated
/// sources — it converts the measured unit into the static estimate's
/// (arbitrary) cost unit so the two are commensurable, and it makes the
/// result invariant to the absolute speed of the machine. Sources with
/// fewer than min_samples samples keep their static estimate unchanged.
/// If no source qualifies (cold registry) the static costs are returned
/// as-is; if every measured EWMA is zero (the workload touches nothing)
/// the blend degrades to (1 - w) * static.
///
/// Only cost *ratios* matter downstream (bin packing, imbalance), matching
/// the EstimateSourceCost contract.
std::vector<double> CalibrateSourceCosts(
    const std::vector<double>& static_costs,
    const MeasuredCostRegistry& measured,
    const CostCalibrationOptions& options = {});

}  // namespace imgrn

#endif  // IMGRN_SERVICE_COST_MODEL_H_
