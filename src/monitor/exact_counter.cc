#include "monitor/exact_counter.h"

#include "common/check.h"

namespace dsgm {
namespace {

// Codec-calibrated wire payload of one update message (comm_stats.h).
constexpr uint64_t kUpdateBytes = kEstimatedUpdateBytes;

}  // namespace

ExactCounterFamily::ExactCounterFamily(int64_t num_counters, int num_sites,
                                       CommStats* stats)
    : totals_(static_cast<size_t>(num_counters), 0),
      num_sites_(num_sites),
      stats_(stats) {
  DSGM_CHECK_GT(num_counters, 0);
  DSGM_CHECK_GT(num_sites, 0);
  DSGM_CHECK(stats != nullptr);
}

bool ExactCounterFamily::Increment(int64_t counter, int site) {
  DSGM_DCHECK(counter >= 0 && counter < num_counters());
  DSGM_DCHECK(site >= 0 && site < num_sites_);
  (void)site;  // Exact counters keep no per-site state: the update is
               // forwarded to the coordinator the moment it happens.
  ++totals_[static_cast<size_t>(counter)];
  ++stats_->update_messages;
  stats_->bytes_up += kUpdateBytes;
  return true;
}

bool ExactCounterFamily::IncrementEvent(const int64_t* ids, int n, int site) {
  bool sent = false;
  for (int j = 0; j < n; ++j) sent |= Increment(ids[j], site);
  return sent;
}

double ExactCounterFamily::Estimate(int64_t counter) const {
  DSGM_DCHECK(counter >= 0 && counter < num_counters());
  return static_cast<double>(totals_[static_cast<size_t>(counter)]);
}

uint64_t ExactCounterFamily::ExactTotal(int64_t counter) const {
  DSGM_DCHECK(counter >= 0 && counter < num_counters());
  return totals_[static_cast<size_t>(counter)];
}

}  // namespace dsgm
