// Observability demo: a real socketed cluster (kLocalTcp backend — one
// reactor I/O thread serving every site over localhost TCP) run with the
// metrics layer turned all the way up. While the stream flows, the
// coordinator keeps a live per-site health table fed by the stats in the
// sites' heartbeat telemetry frames; this demo
//
//   1. dumps periodic one-line JSON snapshots to a file
//      (WithMetricsDump — the programmatic twin of --metrics-dump-ms),
//   2. queries Session::Metrics() mid-run and prints the health table,
//   3. prints the tail of the merged protocol trace timeline after Finish,
//   4. exports the merged, skew-corrected cluster timeline as Chrome-trace
//      JSON (WithTraceExport — the programmatic twin of --trace-out); open
//      it in chrome://tracing or ui.perfetto.dev.
//
//   $ ./build/examples/observability_demo [dump-file] [trace-file]
//   $ python3 tools/metrics_text.py observability.metrics
//
// The ctest gate obs.metrics_smoke runs this binary and validates the dump
// with tools/metrics_text.py --check-cluster and the trace JSON with
// --timeline-summary.

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bayes/repository.h"
#include "common/metrics.h"
#include "dsgm/dsgm.h"

int main(int argc, char** argv) {
  using namespace dsgm;
  const std::string dump_path = argc > 1 ? argv[1] : "observability.metrics";
  const std::string trace_path = argc > 2 ? argv[2] : "observability_trace.json";
  const BayesianNetwork net = Alarm();
  constexpr int kSites = 4;
  constexpr int64_t kEvents = 100000;

  std::ofstream dump(dump_path, std::ios::trunc);
  if (!dump) {
    std::cerr << "cannot open " << dump_path << " for writing\n";
    return 1;
  }

  auto session = SessionBuilder(net)
                     .WithBackend(Backend::kLocalTcp)
                     .WithStrategy(TrackingStrategy::kUniform)
                     .WithEpsilon(0.05)
                     .WithSites(kSites)
                     .WithSeed(7)
                     .WithHeartbeatInterval(20)   // stats ride the heartbeats
                     .WithMetricsDump(50, &dump)  // one JSON line per 50 ms
                     .WithTraceExport(trace_path)
                     .Build();
  if (!session.ok()) {
    std::cerr << session.status() << "\n";
    return 1;
  }

  // Stream half, read the live health table, stream the rest.
  Status streamed = (*session)->StreamGroundTruth(kEvents / 2);
  if (!streamed.ok()) {
    std::cerr << streamed << "\n";
    return 1;
  }
  const MetricsSnapshot live = (*session)->Metrics();
  std::cout << "mid-run per-site health (" << kSites
            << " TCP sites, one reactor thread):\n";
  for (const SiteHealth& site : live.sites) {
    std::cout << "  site " << site.site << ": "
              << (site.alive ? "alive" : "DEAD")
              << ", heard " << site.heartbeat_age_ms << " ms ago, "
              << site.events_processed << " events, " << site.syncs_sent
              << " syncs, round " << site.rounds_seen << "\n";
  }
  streamed = (*session)->StreamGroundTruth(kEvents - kEvents / 2);
  if (!streamed.ok()) {
    std::cerr << streamed << "\n";
    return 1;
  }

  const auto report = (*session)->Finish();
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }

  std::cout << "\nrun finished: " << report->events_processed << " events, "
            << static_cast<int64_t>(report->throughput_events_per_sec)
            << " events/s, " << report->comm.sync_messages
            << " sync messages\n";
  if (const auto* loop =
          report->metrics.FindHistogram("net.reactor.loop_ns")) {
    std::cout << "reactor loop latency: p50 " << loop->stats.p50
              << " ns, p99 " << loop->stats.p99 << " ns over "
              << loop->stats.count << " iterations\n";
  }

  const std::vector<TraceEvent> timeline = MergedTraceTimeline();
  const size_t tail = timeline.size() > 12 ? timeline.size() - 12 : 0;
  std::cout << "\nlast " << timeline.size() - tail
            << " protocol trace events (of " << timeline.size() << "):\n"
            << FormatTraceTimeline(std::vector<TraceEvent>(
                   timeline.begin() + static_cast<long>(tail),
                   timeline.end()));

  std::cout << "\nwrote " << dump_path << " — render it with:\n"
            << "  python3 tools/metrics_text.py " << dump_path << "\n";
  if (!report->trace_path.empty()) {
    std::cout << "wrote " << report->trace_path
              << " — open it in chrome://tracing or ui.perfetto.dev, or:\n"
              << "  python3 tools/metrics_text.py --timeline-summary "
              << report->trace_path << "\n";
  }
  return 0;
}
