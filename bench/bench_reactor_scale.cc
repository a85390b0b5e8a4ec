// Reactor scaling bench: one coordinator serving many concurrent TCP sites
// over the reactor transport — sites vs OS threads vs throughput. The claim
// under test: the reactor serves >= 64 sites with O(1) I/O threads (two
// event loops, total), however many sites connect.
//
// The reactor rows sweep the readiness backend (--io-backends): "reactor"
// is the epoll loop (name kept stable for bench_diff.py history),
// "reactor-io_uring" the multishot io_uring loop; the io_uring rows
// auto-skip on kernels without rings. --assert-io-uring gates the
// epoll-vs-io_uring comparison at the largest swept site count.
//
// Also runs ctest-gated as net.reactor_scale_smoke (16 sites,
// --assert-o1-io) so a thread-count or throughput regression in the
// reactor shows up per commit.

#include <fstream>
#include <iostream>
#include <string>

#include "bayes/repository.h"
#include "common/metrics.h"
#include "common/table.h"
#include "common/timer.h"
#include "dsgm/dsgm.h"
#include "harness/experiment.h"
#include "harness/json_report.h"
#include "net/cluster_transport.h"

namespace dsgm {
namespace {

/// Live thread count of this process, from /proc/self/status.
int CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int count = 0;
      status >> count;
      return count;
    }
    status.ignore(4096, '\n');
  }
  return -1;
}

struct ScaleRun {
  int sites = 0;
  std::string transport;
  std::string io_backend;  // "epoll" / "io_uring".
  int threads_total = 0;   // Peak process thread count during the run.
  int io_threads = 0;      // threads_total - baseline - protocol threads.
  double events_per_sec = 0.0;
  uint64_t wire_bytes = 0;
};

StatusOr<ScaleRun> RunOnce(const BayesianNetwork& net, const std::string& name,
                           const std::string& io_backend,
                           const TransportFactory& factory, int sites,
                           int64_t events, double eps, uint64_t seed) {
  const int baseline_threads = CountThreads();
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(TrackingStrategy::kUniform)
      .WithSites(sites)
      .WithEpsilon(eps)
      .WithSeed(seed)
      .WithTransport(factory);
  StatusOr<std::unique_ptr<Session>> session = builder.Build();
  if (!session.ok()) return session.status();
  // Everything is spun up now: k SiteNode threads + 1 coordinator thread
  // are protocol threads on ANY transport; the rest is transport I/O.
  const int running_threads = CountThreads();
  DSGM_RETURN_IF_ERROR((*session)->StreamGroundTruth(events));
  StatusOr<RunReport> report = (*session)->Finish();
  if (!report.ok()) return report.status();

  ScaleRun run;
  run.sites = sites;
  run.transport = name;
  run.io_backend = io_backend;
  run.threads_total = running_threads;
  run.io_threads = running_threads - baseline_threads - sites - 1;
  run.events_per_sec = report->throughput_events_per_sec;
  run.wire_bytes = report->transport_bytes_up + report->transport_bytes_down;
  return run;
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 50000, "training instances per run");
  flags.DefineString("network", "alarm", "network to stream");
  flags.DefineString("site-counts", "8,16,32,64", "cluster sizes to sweep");
  flags.DefineBool("assert-o1-io", false,
                   "exit 1 unless the reactor transport uses <= 4 I/O threads "
                   "at every site count (ctest smoke gate)");
  flags.DefineString("io-backends", "epoll,io_uring",
                     "readiness backends to sweep the reactor over; io_uring "
                     "entries auto-skip on kernels without rings");
  flags.DefineBool("assert-io-uring", false,
                   "exit 1 unless io_uring reactor throughput reaches >= 85% "
                   "of the epoll reactor at the largest swept site count "
                   "(noise-tolerant smoke gate; the >= 1x acceptance claim is "
                   "judged on the full bench numbers). No-op (skip, not fail) "
                   "when the kernel lacks io_uring");
  flags.DefineString("json", "BENCH_reactor.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t events = flags.GetInt64("events");
  const StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }

  struct TransportEntry {
    std::string name;
    TransportFactory factory;
    std::string io_backend;
  };
  std::vector<TransportEntry> transports;
  bool io_uring_skipped = false;
  for (const std::string& backend_text :
       SplitCommaList(flags.GetString("io-backends"))) {
    IoBackendKind kind;
    if (!ParseIoBackendKind(backend_text, &kind)) {
      std::cerr << "unknown io backend: " << backend_text << "\n";
      return 1;
    }
    if (kind == IoBackendKind::kIoUring && !IoUringAvailable()) {
      std::cout << "io_uring unavailable on this kernel; skipping the "
                   "reactor-io_uring sweep\n";
      io_uring_skipped = true;
      continue;
    }
    // The epoll rows keep the historical "reactor" name so bench_diff.py
    // compares like against like across commits that predate the sweep.
    const std::string name = kind == IoBackendKind::kEpoll
                                 ? "reactor"
                                 : std::string("reactor-") +
                                       IoBackendKindName(kind);
    transports.push_back(
        {name,
         [kind](int n) { return MakeReactorTransport(n, kind); },
         IoBackendKindName(kind)});
  }

  TablePrinter table("Reactor scaling (" + net->name() + ", " +
                     FormatInstances(events) +
                     " instances): sites vs threads vs throughput");
  table.SetHeader({"sites", "transport", "backend", "threads", "I/O threads",
                   "events/s", "wire MiB"});
  Json records = Json::Array();
  bool gate_failed = false;
  double epoll_at_max_sites = 0.0;
  double io_uring_at_max_sites = 0.0;
  int max_sites = 0;
  for (const std::string& sites_text : SplitCommaList(flags.GetString("site-counts"))) {
    const int sites = std::stoi(sites_text);
    for (const TransportEntry& transport : transports) {
      StatusOr<ScaleRun> run =
          RunOnce(*net, transport.name, transport.io_backend,
                  transport.factory, sites, events, flags.GetDouble("eps"),
                  static_cast<uint64_t>(flags.GetInt64("seed")));
      if (!run.ok()) {
        std::cerr << "sites=" << sites << " " << transport.name << ": "
                  << run.status() << "\n";
        return 1;
      }
      // The io_uring gate compares the two reactor rows at the largest
      // swept site count (the regime the backend exists for).
      if (sites >= max_sites) {
        max_sites = sites;
        if (run->io_backend == "epoll") epoll_at_max_sites = run->events_per_sec;
        if (run->io_backend == "io_uring") {
          io_uring_at_max_sites = run->events_per_sec;
        }
      }
      table.AddRow({std::to_string(run->sites), run->transport,
                    run->io_backend,
                    std::to_string(run->threads_total),
                    std::to_string(run->io_threads),
                    FormatCount(static_cast<int64_t>(run->events_per_sec)),
                    FormatDouble(static_cast<double>(run->wire_bytes) / (1 << 20), 3)});
      Json record = Json::Object();
      record.Add("network", Json::Str(net->name()))
          .Add("sites", Json::Int(run->sites))
          .Add("transport", Json::Str(run->transport))
          .Add("io_backend", Json::Str(run->io_backend))
          .Add("threads_total", Json::Int(run->threads_total))
          .Add("io_threads", Json::Int(run->io_threads))
          .Add("events_per_sec", Json::Double(run->events_per_sec))
          .Add("wire_bytes", Json::Int(static_cast<int64_t>(run->wire_bytes)));
      records.Append(std::move(record));

      if (flags.GetBool("assert-o1-io") && run->transport == "reactor" &&
          run->io_threads > 4) {
        std::cerr << "GATE FAILED: reactor used " << run->io_threads
                  << " I/O threads at " << sites << " sites (O(1) bound: 4)\n";
        gate_failed = true;
      }
    }
  }
  if (flags.GetBool("assert-io-uring") && !io_uring_skipped) {
    if (io_uring_at_max_sites <= 0.0 || epoll_at_max_sites <= 0.0) {
      std::cerr << "GATE FAILED: --assert-io-uring needs both the epoll and "
                   "io_uring reactor rows in --io-backends\n";
      gate_failed = true;
    } else if (io_uring_at_max_sites < 0.85 * epoll_at_max_sites) {
      std::cerr << "GATE FAILED: io_uring reactor "
                << static_cast<int64_t>(io_uring_at_max_sites)
                << " ev/s < 85% of epoll "
                << static_cast<int64_t>(epoll_at_max_sites) << " ev/s at "
                << max_sites << " sites\n";
      gate_failed = true;
    }
  }
  table.Print(std::cout);
  std::cout << "\nI/O threads = process threads minus the k+1 protocol threads "
               "(k SiteNodes + coordinator)\nand the pre-session baseline. "
               "The reactor holds at 2 event loops regardless of k.\n\n";

  if (!flags.GetString("json").empty()) {
    // Cumulative across the whole sweep (the registry is process-global);
    // gives bench_diff.py per-metric series — reactor loop p99, flow-control
    // pauses, queue blocks — alongside the throughput numbers.
    MetricsSnapshot final_metrics = MetricsRegistry::Global().Snapshot();
    final_metrics.captured_nanos = NowNanos();
    Json root = Json::Object();
    root.Add("bench", Json::Str("reactor_scale"))
        .Add("events_per_run", Json::Int(events))
        .Add("epsilon", Json::Double(flags.GetDouble("eps")))
        .Add("seed", Json::Int(flags.GetInt64("seed")))
        .Add("results", std::move(records))
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
