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
// The TCP rows additionally sweep negotiated wire compression
// (--compression): each point runs once with the capability disabled
// (every frame raw) and once with it on, reporting the realized byte
// reduction and its throughput cost. Compression applies to final-count
// bundles only — event batches are column bit-packed by the codec and
// kReports/kSync bundles ride the latency path raw — so the stream ratio
// on the downstream (coordinator->site) direction sits near 1.0x and the
// total two-direction ratio shows the final-count saving.
// --assert-event-bytes gates the sweep-wide numbers: downstream TCP bytes
// at most half a byte per event value (events x variables / 2; the packed
// stream measures about a quarter byte), and the compressed runs' mean
// throughput at >= 60% of the raw runs'.

#include <iostream>

#include "bayes/repository.h"
#include "common/metrics.h"
#include "common/table.h"
#include "dsgm/dsgm.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "net/compress.h"

namespace dsgm {
namespace {

StatusOr<RunReport> RunOnce(const BayesianNetwork& net, TrackingStrategy strategy,
                            int sites, int64_t events, double eps, uint64_t seed,
                            bool tcp, bool compression) {
  // Process-global switch: flip for the duration of this run only. Off
  // ships every frame raw (the capability is never advertised).
  SetWireCompressionEnabled(compression);
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
  if (!session.ok()) {
    SetWireCompressionEnabled(true);
    return session.status();
  }
  Status streamed = (*session)->StreamGroundTruth(events);
  StatusOr<RunReport> report =
      streamed.ok() ? (*session)->Finish() : StatusOr<RunReport>(streamed);
  SetWireCompressionEnabled(true);
  return report;
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 100000, "training instances per run");
  flags.DefineString("network", "alarm", "network to stream");
  flags.DefineString("site-counts", "2,4,8", "cluster sizes to sweep");
  flags.DefineBool("compression", true,
                   "also run each TCP point with negotiated wire "
                   "compression and report the byte reduction + throughput "
                   "cost (off: raw frames only)");
  flags.DefineBool("assert-event-bytes", false,
                   "exit 1 unless, summed over the whole TCP sweep, the "
                   "downstream (event-stream) wire bytes stay <= half a "
                   "byte per event value (events x variables / 2) AND the "
                   "mean compressed-run throughput stays >= 60% of "
                   "uncompressed (noise-tolerant gate). Implies "
                   "--compression");
  flags.DefineString("json", "BENCH_net.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t events = flags.GetInt64("events");
  const bool assert_event_bytes = flags.GetBool("assert-event-bytes");
  const bool sweep_compression =
      flags.GetBool("compression") || assert_event_bytes;
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
  TablePrinter compression_table(
      "Wire compression: raw vs negotiated-LZ TCP bytes");
  compression_table.SetHeader({"sites", "algorithm", "raw MiB", "LZ MiB",
                               "stream ratio", "total ratio", "raw events/s",
                               "LZ events/s", "throughput"});
  Json records = Json::Array();
  uint64_t raw_wire_total = 0;
  uint64_t lz_wire_total = 0;
  uint64_t raw_down_total = 0;
  uint64_t lz_down_total = 0;
  // Event values the TCP runs streamed (events x variables per run), the
  // denominator of the downstream bytes-per-value gate.
  uint64_t tcp_values_total = 0;
  double throughput_ratio_sum = 0.0;
  int throughput_ratio_count = 0;
  for (const std::string& sites_text : SplitCommaList(flags.GetString("site-counts"))) {
    const int sites = std::stoi(sites_text);
    for (TrackingStrategy strategy : strategies) {
      const double eps = flags.GetDouble("eps");
      const uint64_t seed = static_cast<uint64_t>(flags.GetInt64("seed"));

      const StatusOr<RunReport> loopback = RunOnce(
          *net, strategy, sites, events, eps, seed, /*tcp=*/false,
          /*compression=*/false);
      // The headline TCP row is the UNCOMPRESSED wire: est/wire calibration
      // and cross-commit throughput history stay comparable either way.
      const StatusOr<RunReport> tcp = RunOnce(*net, strategy, sites, events,
                                              eps, seed, /*tcp=*/true,
                                              /*compression=*/false);
      if (!loopback.ok() || !tcp.ok()) {
        std::cerr << loopback.status() << " " << tcp.status() << "\n";
        return 1;
      }

      const uint64_t values_per_run =
          static_cast<uint64_t>(events) *
          static_cast<uint64_t>(net->num_variables());
      tcp_values_total += values_per_run;
      raw_down_total += tcp->transport_bytes_down;
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
            .Add("transport", Json::Str(entry.first))
            .Add("compression", Json::Str("off"));
        records.Append(std::move(record));
      }

      if (!sweep_compression) continue;
      const StatusOr<RunReport> tcp_lz = RunOnce(*net, strategy, sites, events,
                                                 eps, seed, /*tcp=*/true,
                                                 /*compression=*/true);
      if (!tcp_lz.ok()) {
        std::cerr << tcp_lz.status() << "\n";
        return 1;
      }
      const uint64_t lz_wire_bytes =
          tcp_lz->transport_bytes_up + tcp_lz->transport_bytes_down;
      const double total_ratio =
          lz_wire_bytes > 0
              ? static_cast<double>(wire_bytes) / static_cast<double>(lz_wire_bytes)
              : 0.0;
      // The event stream is the compressed direction; kReports syncs ride
      // upstream raw and would dilute the ratio the codec is judged on.
      const double stream_ratio =
          tcp_lz->transport_bytes_down > 0
              ? static_cast<double>(tcp->transport_bytes_down) /
                    static_cast<double>(tcp_lz->transport_bytes_down)
              : 0.0;
      const double throughput_ratio =
          tcp->throughput_events_per_sec > 0.0
              ? tcp_lz->throughput_events_per_sec / tcp->throughput_events_per_sec
              : 0.0;
      raw_wire_total += wire_bytes;
      lz_wire_total += lz_wire_bytes;
      lz_down_total += tcp_lz->transport_bytes_down;
      tcp_values_total += values_per_run;
      throughput_ratio_sum += throughput_ratio;
      ++throughput_ratio_count;
      compression_table.AddRow(
          {std::to_string(sites), ToString(strategy),
           FormatDouble(static_cast<double>(wire_bytes) / (1 << 20), 2),
           FormatDouble(static_cast<double>(lz_wire_bytes) / (1 << 20), 2),
           FormatDouble(stream_ratio, 2), FormatDouble(total_ratio, 2),
           FormatCount(static_cast<int64_t>(tcp->throughput_events_per_sec)),
           FormatCount(static_cast<int64_t>(tcp_lz->throughput_events_per_sec)),
           FormatDouble(throughput_ratio, 2)});
      Json record = RunReportToJson(*tcp_lz);
      record.Add("network", Json::Str(net->name()))
          .Add("sites", Json::Int(sites))
          .Add("strategy", Json::Str(ToString(strategy)))
          .Add("transport", Json::Str("tcp"))
          .Add("compression", Json::Str("on"))
          .Add("stream_compression_ratio", Json::Double(stream_ratio))
          .Add("wire_compression_ratio", Json::Double(total_ratio))
          .Add("compressed_throughput_ratio", Json::Double(throughput_ratio));
      records.Append(std::move(record));
    }
  }
  table.Print(std::cout);
  std::cout << "\nest/wire is the CommStats protocol-level byte estimate over "
               "the measured TCP bytes\n(framing included): the fig6/fig11 "
               "byte reproductions use the estimate, so divide\nby this "
               "factor for wire-honest numbers.\n\n";

  double sweep_total_ratio = 0.0;
  double sweep_stream_ratio = 0.0;
  double sweep_throughput_ratio = 0.0;
  // Every TCP run, compressed or not: compression no longer touches the
  // event stream, so both kinds must meet the packed-stream bound.
  const uint64_t tcp_down_total = raw_down_total + lz_down_total;
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
  if (sweep_compression && lz_wire_total > 0 && lz_down_total > 0 &&
      throughput_ratio_count > 0) {
    sweep_total_ratio = static_cast<double>(raw_wire_total) /
                        static_cast<double>(lz_wire_total);
    sweep_stream_ratio = static_cast<double>(raw_down_total) /
                         static_cast<double>(lz_down_total);
    sweep_throughput_ratio = throughput_ratio_sum / throughput_ratio_count;
    compression_table.Print(std::cout);
    std::cout << "\nsweep total: " << FormatDouble(sweep_stream_ratio, 2)
              << "x fewer event-stream bytes ("
              << FormatDouble(sweep_total_ratio, 2)
              << "x both directions) at "
              << FormatDouble(sweep_throughput_ratio, 2)
              << "x the uncompressed throughput\n\n";
    if (assert_event_bytes && sweep_throughput_ratio < 0.6) {
      std::cerr << "GATE FAILED: mean compressed throughput "
                << FormatDouble(sweep_throughput_ratio, 2)
                << "x of uncompressed (< 0.6x) over the TCP sweep\n";
      gate_failed = true;
    }
  } else if (assert_event_bytes) {
    std::cerr << "GATE FAILED: --assert-event-bytes ran no compressed TCP "
                 "points\n";
    gate_failed = true;
  }

  if (!flags.GetString("json").empty()) {
    Json root = Json::Object();
    // Cumulative across the sweep; carries the codec-level
    // net.compress.{bytes_in,bytes_out,ratio_x1000} series for
    // bench_diff.py alongside the per-run wire numbers.
    MetricsSnapshot final_metrics = MetricsRegistry::Global().Snapshot();
    final_metrics.captured_nanos = NowNanos();
    root.Add("bench", Json::Str("net_transport"))
        .Add("events_per_run", Json::Int(events))
        .Add("epsilon", Json::Double(flags.GetDouble("eps")))
        .Add("seed", Json::Int(flags.GetInt64("seed")))
        .Add("results", std::move(records))
        .Add("metrics", MetricsSnapshotToJson(final_metrics));
    if (sweep_compression) {
      Json summary = Json::Object();
      summary.Add("wire_bytes_uncompressed", Json::Int(static_cast<int64_t>(raw_wire_total)))
          .Add("wire_bytes_compressed", Json::Int(static_cast<int64_t>(lz_wire_total)))
          .Add("stream_bytes_uncompressed", Json::Int(static_cast<int64_t>(raw_down_total)))
          .Add("stream_bytes_compressed", Json::Int(static_cast<int64_t>(lz_down_total)))
          .Add("stream_compression_ratio", Json::Double(sweep_stream_ratio))
          .Add("wire_compression_ratio", Json::Double(sweep_total_ratio))
          .Add("compressed_throughput_ratio", Json::Double(sweep_throughput_ratio))
          .Add("stream_bytes_per_value", Json::Double(down_bytes_per_value));
      root.Add("compression_summary", std::move(summary));
    }
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
