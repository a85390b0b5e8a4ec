// Communication accounting for the continuous monitoring substrate.

#ifndef DSGM_MONITOR_COMM_STATS_H_
#define DSGM_MONITOR_COMM_STATS_H_

#include <cstdint>
#include <string>

namespace dsgm {

/// Per-message wire-byte estimates used for CommStats byte accounting,
/// calibrated against the net/codec.h varint wire format (the layer below;
/// these are plain numbers so the monitor layer stays independent of net/).
/// tests/codec_test.cc re-derives them from actually encoded frames and
/// fails if the codec drifts, keeping fig6/fig11 byte counts honest at the
/// source. History: before calibration these were 12/10/12 — flat guesses
/// that overshot the delta+varint wire by the ~2.8x ratio bench_net_transport
/// measures; now they match the marginal cost of one message:
///   - update: one CounterReport inside a kReports bundle — delta-coded
///     counter id (~1 byte, ids within a bundle are near-sorted) + varint
///     cumulative count (~3 bytes mid-run), amortized bundle header.
///   - broadcast: one RoundAdvance frame — 4B length prefix + type + zigzag
///     counter id (~2 bytes for networks up to ~8k counters) + round + f32.
///   - sync: one CounterReport inside a kSync reply — dense counter ranges
///     make the delta 1 byte; count ~3 bytes.
constexpr uint64_t kEstimatedUpdateBytes = 4;
constexpr uint64_t kEstimatedBroadcastBytes = 12;
constexpr uint64_t kEstimatedSyncBytes = 4;

/// Message counters shared by every counter family of one tracker.
///
/// The unit of `update_messages` is ONE counter update, matching the paper's
/// Table III convention (EXACTMLE sends 2n of them per event). Broadcasts
/// fan out to every site, so a round announcement adds k. `wire_messages`
/// counts physically distinct transmissions after bundling: in-process,
/// the paper's optimization (all updates one event causes at one site
/// travel together, one message per event); on the cluster backends a
/// site's kReports bundle carries the updates of up to 64 consecutive
/// events of one batch (net/wire.h kMaxEventsPerReportBundle).
struct CommStats {
  uint64_t update_messages = 0;     // site -> coordinator counter updates
  uint64_t broadcast_messages = 0;  // coordinator -> site round announcements
  uint64_t sync_messages = 0;       // site -> coordinator round-sync replies
  uint64_t wire_messages = 0;       // bundled transmissions (see above)
  uint64_t rounds_advanced = 0;     // sampled-phase round transitions
  uint64_t bytes_up = 0;            // site -> coordinator payload bytes
  uint64_t bytes_down = 0;          // coordinator -> site payload bytes

  /// Total logical messages: the paper's "number of messages" metric.
  uint64_t TotalMessages() const {
    return update_messages + broadcast_messages + sync_messages;
  }

  CommStats& operator+=(const CommStats& other) {
    update_messages += other.update_messages;
    broadcast_messages += other.broadcast_messages;
    sync_messages += other.sync_messages;
    wire_messages += other.wire_messages;
    rounds_advanced += other.rounds_advanced;
    bytes_up += other.bytes_up;
    bytes_down += other.bytes_down;
    return *this;
  }

  std::string ToString() const;
};

}  // namespace dsgm

#endif  // DSGM_MONITOR_COMM_STATS_H_
