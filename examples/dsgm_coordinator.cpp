// Multi-process cluster, coordinator side: a dsgm::Session on the
// local-TCP backend with external sites — listens for `--sites` dsgm_site
// processes, streams `--events` sampled instances to them, runs the
// paper's counter protocol over the wire, and validates its final
// estimates against the sites' exact counts.
//
// Two-terminal quickstart (see README "Transport architecture"):
//
//   $ ./build/examples/dsgm_coordinator --network alarm --sites 2 --port 7700
//   $ ./build/examples/dsgm_site --network alarm --site 0 --port 7700 &
//     ./build/examples/dsgm_site --network alarm --site 1 --port 7700
//
// Exit code is non-zero if --max-rel-error is set and the validation bound
// is violated (used by the ctest multi-process smoke test).

#include <fstream>
#include <iostream>
#include <memory>

#include "bayes/repository.h"
#include "common/flags.h"
#include "common/table.h"
#include "dsgm/dsgm.h"

int main(int argc, char** argv) {
  using namespace dsgm;
  Flags flags;
  flags.DefineString("network", "alarm", "Bayesian network to stream (see bayes/repository.h)");
  flags.DefineString("strategy", "uniform", "exact | baseline | uniform | nonuniform");
  flags.DefineDouble("eps", 0.1, "global approximation factor");
  flags.DefineInt64("sites", 2, "number of site processes to wait for");
  flags.DefineInt64("events", 100000, "training instances to stream");
  flags.DefineInt64("batch-size", 256, "events per dispatch batch");
  flags.DefineInt64("seed", 7, "seed for sampling and routing");
  flags.DefineInt64("port", 7700, "TCP port to listen on (0 = ephemeral)");
  flags.DefineString("port-file", "", "write the bound port to this file (for scripts)");
  flags.DefineString("bind", "127.0.0.1",
                     "listener bind address; 0.0.0.0 accepts sites from other hosts");
  flags.DefineInt64("liveness-timeout-ms", 5000,
                    "fail the run (UNAVAILABLE) if a site sends no traffic — not "
                    "even a heartbeat — for this long; 0 disables liveness");
  flags.DefineInt64("heartbeat-ms", 500,
                    "heartbeat cadence for in-process sites (ignored with external "
                    "dsgm_site processes, which set their own --heartbeat-ms)");
  flags.DefineDouble("max-rel-error", -1.0,
                     "fail (exit 1) if the max counter relative error exceeds this; "
                     "negative disables the gate");
  flags.DefineInt64("metrics-dump-ms", 0,
                    "emit one JSON metrics snapshot line (counters, latency "
                    "histograms, per-site health) every N ms; 0 disables. "
                    "Render with tools/metrics_text.py");
  flags.DefineString("metrics-dump-file", "",
                     "metrics dump destination (default: stderr)");
  flags.DefineString("trace-out", "",
                     "write the merged, skew-corrected cluster timeline "
                     "(coordinator + every site process) as Chrome-trace JSON "
                     "here at the end of the run; empty disables");
  flags.DefineString("postmortem-dir", "",
                     "directory for the flight recorder: a failed run dumps "
                     "<dir>/dsgm_postmortem.json (failure reason, metrics + "
                     "health table, last trace events); empty disables");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    if (parsed.code() == StatusCode::kNotFound) return 0;  // --help
    std::cerr << parsed << "\n" << flags.Usage(argv[0]);
    return 1;
  }

  const StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }
  const StatusOr<TrackingStrategy> strategy =
      TrackingStrategyFromName(flags.GetString("strategy"));
  if (!strategy.ok()) {
    std::cerr << strategy.status() << "\n";
    return 1;
  }

  const int port = static_cast<int>(flags.GetInt64("port"));
  std::cout << "dsgm_coordinator: waiting for " << flags.GetInt64("sites")
            << " site(s) on port " << (port == 0 ? "<ephemeral>" : std::to_string(port))
            << " (network '" << net->name() << "', "
            << flags.GetInt64("events") << " events)...\n";

  std::unique_ptr<std::ofstream> dump_file;
  if (!flags.GetString("metrics-dump-file").empty()) {
    dump_file = std::make_unique<std::ofstream>(
        flags.GetString("metrics-dump-file"), std::ios::trunc);
    if (!*dump_file) {
      std::cerr << "cannot open " << flags.GetString("metrics-dump-file")
                << " for writing\n";
      return 1;
    }
  }

  // Build() blocks until every external site completes its hello handshake.
  const StatusOr<std::unique_ptr<Session>> session =
      SessionBuilder(*net)
          .WithBackend(Backend::kLocalTcp)
          .WithExternalSites()
          .WithStrategy(*strategy)
          .WithEpsilon(flags.GetDouble("eps"))
          .WithSites(static_cast<int>(flags.GetInt64("sites")))
          .WithSeed(static_cast<uint64_t>(flags.GetInt64("seed")))
          .WithBatchSize(static_cast<int>(flags.GetInt64("batch-size")))
          .WithListenPort(port)
          .WithPortFile(flags.GetString("port-file"))
          .WithBindAddress(flags.GetString("bind"))
          .WithLivenessTimeout(static_cast<int>(flags.GetInt64("liveness-timeout-ms")))
          .WithHeartbeatInterval(static_cast<int>(flags.GetInt64("heartbeat-ms")))
          .WithMetricsDump(static_cast<int>(flags.GetInt64("metrics-dump-ms")),
                           dump_file ? dump_file.get() : nullptr)
          .WithTraceExport(flags.GetString("trace-out"))
          .WithPostmortemDir(flags.GetString("postmortem-dir"))
          .Build();
  if (!session.ok()) {
    std::cerr << "coordinator failed: " << session.status() << "\n";
    return 1;
  }
  const Status streamed = (*session)->StreamGroundTruth(flags.GetInt64("events"));
  if (!streamed.ok()) {
    std::cerr << "coordinator failed: " << streamed << "\n";
    // Finish still runs the teardown AND the flight recorder: with
    // --postmortem-dir its error message names the post-mortem bundle.
    const StatusOr<RunReport> aborted = (*session)->Finish();
    if (!aborted.ok()) {
      std::cerr << "coordinator failed: " << aborted.status() << "\n";
    }
    return 1;
  }
  const StatusOr<RunReport> report = (*session)->Finish();
  if (!report.ok()) {
    std::cerr << "coordinator failed: " << report.status() << "\n";
    return 1;
  }
  if (!report->trace_path.empty()) {
    std::cout << "trace timeline written to " << report->trace_path << "\n";
  }

  TablePrinter table("Multi-process cluster run (" + std::string(ToString(*strategy)) + ")");
  table.SetHeader({"metric", "value"});
  table.AddRow({"events dispatched", FormatCount(report->events_processed)});
  table.AddRow({"runtime (s)", FormatDouble(report->runtime_seconds, 3)});
  table.AddRow({"throughput (events/s)",
                FormatCount(static_cast<int64_t>(report->throughput_events_per_sec))});
  table.AddRow({"wire messages", FormatCount(static_cast<int64_t>(report->comm.wire_messages))});
  table.AddRow({"counter updates", FormatCount(static_cast<int64_t>(report->comm.update_messages))});
  table.AddRow({"TCP bytes up", FormatCount(static_cast<int64_t>(report->transport_bytes_up))});
  table.AddRow({"TCP bytes down", FormatCount(static_cast<int64_t>(report->transport_bytes_down))});
  table.AddRow({"max rel. counter error", FormatDouble(report->max_counter_rel_error, 4)});
  table.Print(std::cout);

  const double bound = flags.GetDouble("max-rel-error");
  if (bound >= 0.0 && report->max_counter_rel_error > bound) {
    std::cerr << "VALIDATION FAILED: max counter relative error "
              << report->max_counter_rel_error << " exceeds bound " << bound << "\n";
    return 1;
  }
  return 0;
}
