#include "monitor/counter_protocol.h"

#include <limits>

#include "common/check.h"
#include "monitor/round_schedule.h"

namespace dsgm {

CounterSite::CounterSite(int64_t num_counters, uint64_t seed)
    : coin_seed_(Rng(seed).Next()),
      counts_(static_cast<size_t>(num_counters)),
      probs_(static_cast<size_t>(num_counters), 1.0f) {}

CounterCoordinator::CounterCoordinator(std::vector<float> epsilons,
                                       int64_t num_counters, int num_sites,
                                       double probability_constant)
    : num_sites_(num_sites),
      safety_(probability_constant),
      epsilons_(std::move(epsilons)),
      probs_(static_cast<size_t>(num_counters), 1.0f),
      estimates_(static_cast<size_t>(num_counters)),
      // Exact mode never advances: its threshold is out of reach.
      thresholds_(static_cast<size_t>(num_counters),
                  epsilons_.empty() ? std::numeric_limits<double>::infinity()
                                    : RoundThreshold(0)),
      rounds_(static_cast<size_t>(num_counters)),
      sync_pending_(static_cast<size_t>(num_counters)),
      sync_counts_(static_cast<size_t>(num_counters) * static_cast<size_t>(num_sites)),
      best_reports_(sync_counts_.size()),
      sync_owed_(sync_counts_.size()),
      site_dead_(static_cast<size_t>(num_sites)) {
  DSGM_CHECK_GT(num_sites_, 0);
  DSGM_CHECK(epsilons_.empty() || epsilons_.size() == probs_.size());
  float p = 1.0f;
  for (size_t c = 0; c < epsilons_.size(); ++c) {
    // Counters come in runs of equal ε (one per variable block): evaluate
    // the schedule once per run.
    const float eps = epsilons_[c];
    if (c == 0 || eps != epsilons_[c - 1]) {
      DSGM_CHECK(eps > 0.0f && eps <= 1.0f) << "counter epsilon out of (0,1]:" << eps;
      p = static_cast<float>(RoundProbability(eps, 0, num_sites_, safety_));
    }
    probs_[c] = p;
  }
}

bool CounterCoordinator::OnSync(int64_t counter, int site, uint32_t value,
                                std::vector<CounterAdvance>* advances) {
  const size_t c = static_cast<size_t>(counter);
  const size_t cell = c * static_cast<size_t>(num_sites_) + site;
  const double before = estimates_[c];
  uint32_t& sync = sync_counts_[cell];
  uint32_t& best = best_reports_[cell];
  if (value > sync && value >= best) {
    // The exact count replaces the cell's estimate (sync, or best + gap):
    // reports older than the sync carry no information beyond it.
    estimates_[c] += static_cast<double>(value) -
                     (best > sync ? static_cast<double>(best) + Gap(c)
                                  : static_cast<double>(sync));
    sync = value;
    best = value;
  } else {
    // Older than the cell's state (a duplicate): a pending report stays.
    sync = std::max(sync, value);
  }
  // Count the reply against the round only while THIS site owes one for
  // this counter: an unsolicited (forged or duplicate) sync must not drive
  // outstanding_ negative, nor consume another site's pending slot.
  if (sync_owed_[cell]) {
    sync_owed_[cell] = 0;
    --outstanding_;
    if (--sync_pending_[c] == 0) MaybeAdvance(counter, advances);
  }
  return estimates_[c] != before;
}

bool CounterCoordinator::CancelSite(int site) {
  if (site < 0 || site >= num_sites_) return false;
  const size_t s = static_cast<size_t>(site);
  if (site_dead_[s]) return false;
  site_dead_[s] = 1;
  // Advances are NOT re-entered here: the caller is failing the run, and
  // advancing rounds against a shrinking quorum would only send commands
  // nobody needs.
  for (size_t c = 0; c < estimates_.size(); ++c) {
    const size_t cell = c * static_cast<size_t>(num_sites_) + s;
    if (sync_owed_[cell]) {
      sync_owed_[cell] = 0;
      --sync_pending_[c];
      --outstanding_;
    }
  }
  return true;
}

void CounterCoordinator::MaybeAdvance(int64_t counter,
                                      std::vector<CounterAdvance>* advances) {
  const size_t c = static_cast<size_t>(counter);
  if (sync_pending_[c] > 0) return;  // Wait for the current round to settle.
  if (estimates_[c] < thresholds_[c]) return;

  const bool from_exact_phase = probs_[c] >= 1.0f;
  int round = rounds_[c];
  while (estimates_[c] >= RoundThreshold(round) && round < kMaxRound) ++round;
  const double new_p = RoundProbability(epsilons_[c], round, num_sites_, safety_);
  rounds_[c] = static_cast<uint8_t>(round);
  thresholds_[c] = RoundThreshold(round);
  if (new_p >= 1.0) {
    // Still in the exact phase: the coordinator state is already exact and
    // the sites' behaviour is unchanged, so the transition is silent.
    probs_[c] = 1.0f;
    return;
  }
  probs_[c] = static_cast<float>(new_p);
  // Re-base the estimate on the new p. A cell that reported since its last
  // sync contributes best + (1/p - 1), and that gap term entered the
  // estimate under the old p; left in place, the next delta for the cell
  // would be taken against the new gap and the estimate would stay off by
  // the difference for good. Until the site's sync reply lands, its latest
  // report is the best known floor of its count.
  const size_t base = c * static_cast<size_t>(num_sites_);
  double floored = 0.0;
  int32_t owed = 0;
  for (int s = 0; s < num_sites_; ++s) {
    const size_t cell = base + static_cast<size_t>(s);
    sync_counts_[cell] = std::max(sync_counts_[cell], best_reports_[cell]);
    floored += static_cast<double>(sync_counts_[cell]);
    // Only sites that can still answer owe a sync; a cancelled one would
    // otherwise wedge the round forever.
    if (!site_dead_[static_cast<size_t>(s)]) {
      sync_owed_[cell] = 1;
      ++owed;
    }
  }
  estimates_[c] = floored;
  sync_pending_[c] = owed;
  outstanding_ += owed;
  advances->push_back(
      CounterAdvance{counter, round, probs_[c], from_exact_phase});
}

uint64_t CounterCoordinator::MemoryBytes() const {
  return sync_counts_.size() * (sizeof(uint32_t) * 2 + sizeof(uint8_t)) +
         estimates_.size() * (sizeof(float) * 2 + sizeof(double) * 2 +
                              sizeof(uint8_t) + sizeof(int32_t));
}

}  // namespace dsgm
