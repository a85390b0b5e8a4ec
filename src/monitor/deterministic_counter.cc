#include "monitor/deterministic_counter.h"

#include <cmath>

#include "common/check.h"

namespace dsgm {
namespace {

// Codec-calibrated wire payload of one update message (comm_stats.h).
constexpr uint64_t kUpdateBytes = kEstimatedUpdateBytes;

}  // namespace

DeterministicCounterFamily::DeterministicCounterFamily(std::vector<float> epsilons,
                                                       int num_sites,
                                                       CommStats* stats)
    : num_counters_(static_cast<int64_t>(epsilons.size())),
      num_sites_(num_sites),
      stats_(stats),
      epsilons_(std::move(epsilons)) {
  DSGM_CHECK_GT(num_counters_, 0);
  DSGM_CHECK_GT(num_sites_, 0);
  DSGM_CHECK(stats_ != nullptr);
  for (float eps : epsilons_) {
    DSGM_CHECK(eps > 0.0f && eps <= 1.0f) << "counter epsilon out of (0,1]:" << eps;
  }
  const size_t cells = static_cast<size_t>(num_counters_) * num_sites_;
  site_counts_.assign(cells, 0);
  last_reported_.assign(cells, 0);
  estimates_.assign(static_cast<size_t>(num_counters_), 0.0);
}

bool DeterministicCounterFamily::Increment(int64_t counter, int site) {
  DSGM_DCHECK(counter >= 0 && counter < num_counters_);
  DSGM_DCHECK(site >= 0 && site < num_sites_);
  const size_t cell = static_cast<size_t>(counter) * num_sites_ + site;
  const uint32_t local = ++site_counts_[cell];
  const uint32_t reported = last_reported_[cell];
  // Report when the local count grew by a factor (1 + eps) — and always on
  // the first increment, so small counters are exact.
  const double threshold =
      static_cast<double>(reported) * (1.0 + epsilons_[static_cast<size_t>(counter)]);
  if (reported != 0 && static_cast<double>(local) < threshold) return false;

  estimates_[static_cast<size_t>(counter)] +=
      static_cast<double>(local) - static_cast<double>(reported);
  last_reported_[cell] = local;
  ++stats_->update_messages;
  stats_->bytes_up += kUpdateBytes;
  return true;
}

bool DeterministicCounterFamily::IncrementEvent(const int64_t* ids, int n, int site) {
  bool sent = false;
  for (int j = 0; j < n; ++j) sent |= Increment(ids[j], site);
  return sent;
}

double DeterministicCounterFamily::Estimate(int64_t counter) const {
  DSGM_DCHECK(counter >= 0 && counter < num_counters_);
  return estimates_[static_cast<size_t>(counter)];
}

uint64_t DeterministicCounterFamily::ExactTotal(int64_t counter) const {
  DSGM_DCHECK(counter >= 0 && counter < num_counters_);
  const size_t base = static_cast<size_t>(counter) * num_sites_;
  uint64_t total = 0;
  for (int s = 0; s < num_sites_; ++s) total += site_counts_[base + s];
  return total;
}

uint64_t DeterministicCounterFamily::MemoryBytes() const {
  const uint64_t cells = static_cast<uint64_t>(num_counters_) * num_sites_;
  return cells * sizeof(uint32_t) * 2 +
         static_cast<uint64_t>(num_counters_) * (sizeof(double) + sizeof(float));
}

}  // namespace dsgm
