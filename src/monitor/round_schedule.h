// Round schedule of the randomized distributed counter: the reporting
// probability and advance threshold of each round. The protocol core
// (monitor/counter_protocol.*) applies it; every backend drives that core,
// so all of them speak the same protocol.

#ifndef DSGM_MONITOR_ROUND_SCHEDULE_H_
#define DSGM_MONITOR_ROUND_SCHEDULE_H_

#include <algorithm>
#include <cmath>

namespace dsgm {

/// Reporting probability of round `round`:
///   p_j = min(1, c * sqrt(k) / (eps * 2^j)).
/// While the counter is small p stays 1 (every increment reported, zero
/// error); once the estimate reaches ~c*sqrt(k)/eps the counter enters the
/// sampled regime and p halves as the count doubles, which keeps the
/// per-round variance k/p^2 = O((eps * 2^j)^2) = O((eps C)^2) — the contract
/// of the paper's Lemma 4 (Huang-Yi-Zhang).
inline double RoundProbability(double eps, int round, int num_sites,
                               double safety) {
  const double denom = eps * std::ldexp(1.0, round);  // eps * 2^round
  const double p = safety * std::sqrt(static_cast<double>(num_sites)) / denom;
  return std::min(1.0, p);
}

/// A counter leaves round `round` when its estimate reaches 2^(round+1).
inline double RoundThreshold(int round) { return std::ldexp(1.0, round + 1); }

/// Rounds are capped so 2^round stays finite; far beyond any stream here.
inline constexpr int kMaxRound = 62;

}  // namespace dsgm

#endif  // DSGM_MONITOR_ROUND_SCHEDULE_H_
