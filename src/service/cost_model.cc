#include "service/cost_model.h"

#include <chrono>
#include <cmath>

#include "common/logging.h"

namespace imgrn {

MeasuredCostRegistry::~MeasuredCostRegistry() {
  for (std::atomic<Entry*>& slot : blocks_) {
    delete[] slot.load(std::memory_order_relaxed);
  }
}

MeasuredCostRegistry::Entry* MeasuredCostRegistry::EntryFor(SourceId source) {
  const size_t block_index = static_cast<size_t>(source) >> kBlockBits;
  IMGRN_CHECK_LT(block_index, kMaxBlocks);
  std::atomic<Entry*>& slot = blocks_[block_index];
  Entry* block = slot.load(std::memory_order_acquire);
  if (block == nullptr) {
    Entry* fresh = new Entry[kBlockSize];
    if (slot.compare_exchange_strong(block, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      block = fresh;
    } else {
      delete[] fresh;  // Another writer won; `block` now holds its pointer.
    }
  }
  return &block[static_cast<size_t>(source) & (kBlockSize - 1)];
}

const MeasuredCostRegistry::Entry* MeasuredCostRegistry::FindEntry(
    SourceId source) const {
  const size_t block_index = static_cast<size_t>(source) >> kBlockBits;
  if (block_index >= kMaxBlocks) return nullptr;
  const Entry* block = blocks_[block_index].load(std::memory_order_acquire);
  if (block == nullptr) return nullptr;
  return &block[static_cast<size_t>(source) & (kBlockSize - 1)];
}

int64_t MeasuredCostRegistry::NowMicros() const {
  if (clock_micros_ != nullptr) return clock_micros_();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MeasuredCostRegistry::DecayFactor(int64_t age_micros) const {
  if (half_life_seconds_ <= 0.0 || age_micros <= 0) return 1.0;
  return std::exp2(-(static_cast<double>(age_micros) * 1e-6) /
                   half_life_seconds_);
}

void MeasuredCostRegistry::SetDecay(double half_life_seconds) {
  half_life_seconds_ = half_life_seconds >= 0.0 ? half_life_seconds : 0.0;
}

void MeasuredCostRegistry::SetClockForTesting(int64_t (*clock_micros)()) {
  clock_micros_ = clock_micros;
}

void MeasuredCostRegistry::Record(SourceId source, double cost) {
  if (!(cost >= 0.0)) cost = 0.0;  // Negative values and NaN.
  Entry* entry = EntryFor(source);
  // samples is bumped first so a racing reader can never see samples == 0
  // next to a non-zero EWMA; seeing samples >= 1 next to a slightly stale
  // EWMA is fine (both are estimates).
  const uint64_t n = entry->samples.fetch_add(1, std::memory_order_acq_rel);
  // The stored average is decayed by how long it sat idle before this
  // sample, then blended as usual — so the write path and the Ewma() read
  // path agree on what the average "is" at any instant.
  const int64_t now = NowMicros();
  const int64_t previous =
      entry->last_update_micros.exchange(now, std::memory_order_acq_rel);
  const double decay = n == 0 ? 1.0 : DecayFactor(now - previous);
  double current = entry->ewma.load(std::memory_order_relaxed);
  for (;;) {
    const double next = n == 0 ? cost
                               : (1.0 - kAlpha) * (decay * current) +
                                     kAlpha * cost;
    if (entry->ewma.compare_exchange_weak(current, next,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
      return;
    }
  }
}

double MeasuredCostRegistry::Ewma(SourceId source) const {
  const Entry* entry = FindEntry(source);
  if (entry == nullptr) return 0.0;
  const double stored = entry->ewma.load(std::memory_order_acquire);
  if (half_life_seconds_ <= 0.0 || stored == 0.0 ||
      entry->samples.load(std::memory_order_acquire) == 0) {
    return stored;
  }
  const int64_t age =
      NowMicros() - entry->last_update_micros.load(std::memory_order_acquire);
  return stored * DecayFactor(age);
}

uint64_t MeasuredCostRegistry::Samples(SourceId source) const {
  const Entry* entry = FindEntry(source);
  return entry == nullptr ? 0
                          : entry->samples.load(std::memory_order_acquire);
}

void MeasuredCostRegistry::Retire(SourceId source) {
  const size_t block_index = static_cast<size_t>(source) >> kBlockBits;
  if (block_index >= kMaxBlocks) return;
  Entry* block = blocks_[block_index].load(std::memory_order_acquire);
  if (block == nullptr) return;
  Entry& entry = block[static_cast<size_t>(source) & (kBlockSize - 1)];
  entry.ewma.store(0.0, std::memory_order_release);
  entry.last_update_micros.store(0, std::memory_order_release);
  entry.samples.store(0, std::memory_order_release);
}

void MeasuredCostRegistry::Reset() {
  for (std::atomic<Entry*>& slot : blocks_) {
    Entry* block = slot.exchange(nullptr, std::memory_order_acq_rel);
    delete[] block;
  }
}

std::vector<double> CalibrateSourceCosts(
    const std::vector<double>& static_costs,
    const MeasuredCostRegistry& measured,
    const CostCalibrationOptions& options) {
  std::vector<double> calibrated = static_costs;

  // First pass: which sources qualify, and the unit-conversion scale.
  double static_sum = 0.0;
  double ewma_sum = 0.0;
  std::vector<bool> qualifies(static_costs.size(), false);
  for (SourceId i = 0; i < static_costs.size(); ++i) {
    if (measured.Samples(i) < options.min_samples) continue;
    qualifies[i] = true;
    static_sum += static_costs[i];
    ewma_sum += measured.Ewma(i);
  }
  // scale converts the measured unit into static-cost units. A zero
  // ewma_sum (the workload touched nothing it qualified) leaves scale at 0:
  // the measured term vanishes and the blend keeps only the shrinking
  // static prior.
  const double scale = ewma_sum > 0.0 ? static_sum / ewma_sum : 0.0;

  for (SourceId i = 0; i < static_costs.size(); ++i) {
    if (!qualifies[i]) continue;
    const double n = static_cast<double>(measured.Samples(i));
    const double min = static_cast<double>(options.min_samples);
    const double w = min > 0.0 ? n / (n + min) : 1.0;
    calibrated[i] =
        w * scale * measured.Ewma(i) + (1.0 - w) * static_costs[i];
  }
  return calibrated;
}

}  // namespace imgrn
