#include "monitor/approx_counter.h"

#include "common/check.h"
#include "common/rng.h"

namespace dsgm {

ApproxCounterFamily::ApproxCounterFamily(const std::vector<float>& epsilons,
                                         const ApproxCounterOptions& options,
                                         CommStats* stats)
    : stats_(stats),
      coordinator_(epsilons, static_cast<int64_t>(epsilons.size()),
                   options.num_sites, options.probability_constant) {
  DSGM_CHECK_GT(num_counters(), 0);
  DSGM_CHECK(stats_ != nullptr);
  // One coin seed per site: the Bernoulli reporting decisions of different
  // sites are independent.
  Rng seeder(options.seed);
  sites_.reserve(static_cast<size_t>(options.num_sites));
  for (int s = 0; s < options.num_sites; ++s) {
    sites_.emplace_back(num_counters(), seeder.Next());
  }
}

bool ApproxCounterFamily::Increment(int64_t counter, int site) {
  DSGM_DCHECK(counter >= 0 && counter < num_counters());
  DSGM_DCHECK(site >= 0 && site < num_sites());
  const uint32_t value = sites_[static_cast<size_t>(site)].Increment(counter);
  if (value == 0) return false;

  ++stats_->update_messages;
  stats_->bytes_up += kEstimatedUpdateBytes;
  coordinator_.OnReport(counter, site, value, &advances_);
  if (!advances_.empty()) ResolveAdvances();
  return true;
}

void ApproxCounterFamily::ResolveAdvances() {
  const uint64_t k = sites_.size();
  while (!advances_.empty()) {
    const CounterAdvance advance = advances_.back();
    advances_.pop_back();
    ++stats_->rounds_advanced;
    // Announce the new round to every site.
    stats_->broadcast_messages += k;
    stats_->bytes_down += kEstimatedBroadcastBytes * k;
    if (!advance.from_exact_phase) {
      // Sampled-phase round change: every site replies with its exact
      // count. Leaving the exact phase needs no reply: the coordinator
      // already knows every count.
      stats_->sync_messages += k;
      stats_->bytes_up += kEstimatedSyncBytes * k;
    }
    for (int s = 0; s < num_sites(); ++s) {
      const uint32_t exact = sites_[static_cast<size_t>(s)].OnAdvance(
          advance.counter, advance.probability);
      coordinator_.OnSync(advance.counter, s, exact, &advances_);
    }
  }
}

uint64_t ApproxCounterFamily::ExactTotal(int64_t counter) const {
  DSGM_DCHECK(counter >= 0 && counter < num_counters());
  uint64_t total = 0;
  for (const CounterSite& site : sites_) {
    total += site.counts()[static_cast<size_t>(counter)];
  }
  return total;
}

uint64_t ApproxCounterFamily::MemoryBytes() const {
  uint64_t total = coordinator_.MemoryBytes();
  for (const CounterSite& site : sites_) total += site.MemoryBytes();
  return total;
}

}  // namespace dsgm
