// Transport comparison: the same cluster session runs on the in-process
// loopback and on localhost TCP (MakeReactorTransport: codec-serialized
// frames through the kernel socket layer), reporting throughput side by
// side plus the measured wire bytes the TCP substrate actually moved.
// Quantifies the serialization + syscall tax the transport abstraction
// introduces, and calibrates the honesty of the CommStats estimates: the
// est/wire column (and the estimated_to_wire_byte_ratio JSON field) is the
// factor by which the protocol-level byte estimate differs from the
// measured wire — close to 1x since the CommStats constants were
// calibrated against the codec; it also scales the fig6/fig11 byte
// reproductions.
//
// --assert-event-bytes gates the event stream the codec column bit-packs:
// downstream (coordinator->site) TCP bytes summed over the sweep stay at
// most half a byte per event value (events x variables / 2; the packed
// stream measures about a quarter byte).

#include <iostream>

#include "bayes/repository.h"
#include "common/metrics.h"
#include "common/table.h"
#include "dsgm/dsgm.h"
#include "harness/experiment.h"
#include "harness/json_report.h"

namespace dsgm {
namespace {

StatusOr<RunReport> RunOnce(const BayesianNetwork& net, TrackingStrategy strategy,
                            int sites, int64_t events, double eps, uint64_t seed,
                            bool tcp) {
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(strategy)
      .WithSites(sites)
      .WithEpsilon(eps)
      .WithSeed(seed);
  if (tcp) {
    builder.WithTransport([](int n) { return MakeReactorTransport(n); });
  }
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  if (!session.ok()) return session.status();
  Status streamed = (*session)->StreamGroundTruth(events);
  if (!streamed.ok()) return streamed;
  return (*session)->Finish();
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 100000, "training instances per run");
  flags.DefineString("network", "alarm", "network to stream");
  flags.DefineString("site-counts", "2,4,8", "cluster sizes to sweep");
  flags.DefineBool("assert-event-bytes", false,
                   "exit 1 unless, summed over the whole TCP sweep, the "
                   "downstream (event-stream) wire bytes stay <= half a "
                   "byte per event value (events x variables / 2)");
  flags.DefineString("json", "BENCH_net.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t events = flags.GetInt64("events");
  const bool assert_event_bytes = flags.GetBool("assert-event-bytes");
  const StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }
  const std::vector<TrackingStrategy> strategies = {TrackingStrategy::kExactMle,
                                                    TrackingStrategy::kNonUniform};

  TablePrinter table("Transport comparison (" + net->name() + ", " +
                     FormatInstances(events) +
                     " instances): loopback vs localhost TCP");
  table.SetHeader({"sites", "algorithm", "loopback events/s", "tcp events/s",
                   "tcp/loopback", "tcp MiB up", "tcp MiB down", "est/wire"});
  Json records = Json::Array();
  uint64_t tcp_down_total = 0;
  // Event values the TCP runs streamed (events x variables per run), the
  // denominator of the downstream bytes-per-value gate.
  uint64_t tcp_values_total = 0;
  for (const std::string& sites_text : SplitCommaList(flags.GetString("site-counts"))) {
    const int sites = std::stoi(sites_text);
    for (TrackingStrategy strategy : strategies) {
      const double eps = flags.GetDouble("eps");
      const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

      const StatusOr<RunReport> loopback =
          RunOnce(*net, strategy, sites, events, eps, seed, /*tcp=*/false);
      const StatusOr<RunReport> tcp =
          RunOnce(*net, strategy, sites, events, eps, seed, /*tcp=*/true);
      if (!loopback.ok() || !tcp.ok()) {
        std::cerr << loopback.status() << " " << tcp.status() << "\n";
        return 1;
      }

      tcp_values_total += static_cast<uint64_t>(events) *
                          static_cast<uint64_t>(net->num_variables());
      tcp_down_total += tcp->transport_bytes_down;
      const double ratio =
          loopback->throughput_events_per_sec > 0.0
              ? tcp->throughput_events_per_sec / loopback->throughput_events_per_sec
              : 0.0;
      // How far the protocol-level CommStats byte estimate overshoots the
      // measured wire bytes (varint coding shrinks real traffic).
      const uint64_t wire_bytes = tcp->transport_bytes_up + tcp->transport_bytes_down;
      const double est_to_wire =
          wire_bytes > 0
              ? static_cast<double>(tcp->comm.bytes_up + tcp->comm.bytes_down) /
                    static_cast<double>(wire_bytes)
              : 0.0;
      table.AddRow({std::to_string(sites), ToString(strategy),
                    FormatCount(static_cast<int64_t>(loopback->throughput_events_per_sec)),
                    FormatCount(static_cast<int64_t>(tcp->throughput_events_per_sec)),
                    FormatDouble(ratio, 2),
                    FormatDouble(static_cast<double>(tcp->transport_bytes_up) / (1 << 20), 1),
                    FormatDouble(static_cast<double>(tcp->transport_bytes_down) / (1 << 20), 1),
                    FormatDouble(est_to_wire, 2)});

      for (const auto& entry :
           {std::pair<const char*, const RunReport*>{"loopback", &*loopback},
            std::pair<const char*, const RunReport*>{"tcp", &*tcp}}) {
        Json record = RunReportToJson(*entry.second);
        record.Add("network", Json::Str(net->name()))
            .Add("sites", Json::Int(sites))
            .Add("strategy", Json::Str(ToString(strategy)))
            .Add("transport", Json::Str(entry.first));
        records.Append(std::move(record));
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\nest/wire is the CommStats protocol-level byte estimate over "
               "the measured TCP bytes\n(framing included): the fig6/fig11 "
               "byte reproductions use the estimate, so divide\nby this "
               "factor for wire-honest numbers.\n\n";

  const double down_bytes_per_value =
      tcp_values_total > 0 ? static_cast<double>(tcp_down_total) /
                                 static_cast<double>(tcp_values_total)
                           : 0.0;
  std::cout << "event stream: " << FormatDouble(down_bytes_per_value, 3)
            << " downstream TCP bytes per event value over the sweep\n\n";
  bool gate_failed = false;
  if (assert_event_bytes && tcp_down_total * 2 > tcp_values_total) {
    std::cerr << "GATE FAILED: downstream TCP bytes "
              << FormatDouble(down_bytes_per_value, 3)
              << " per event value (> 0.5) over the TCP sweep\n";
    gate_failed = true;
  }

  if (!flags.GetString("json").empty()) {
    Json root = Json::Object();
    // Cumulative across the sweep, for bench_diff.py alongside the per-run
    // wire numbers.
    MetricsSnapshot final_metrics = MetricsRegistry::Global().Snapshot();
    final_metrics.captured_nanos = NowNanos();
    root.Add("bench", Json::Str("net_transport"))
        .Add("events_per_run", Json::Int(events))
        .Add("epsilon", Json::Double(flags.GetDouble("eps")))
        .Add("seed", Json::Int(flags.GetInt64("seed")))
        .Add("results", std::move(records))
        .Add("stream_bytes_per_value", Json::Double(down_bytes_per_value))
        .Add("metrics", MetricsSnapshotToJson(final_metrics));
    const Status written = WriteJsonReport(flags.GetString("json"), root);
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("json") << "\n";
  }
  return gate_failed ? 1 : 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Main(argc, argv); }
