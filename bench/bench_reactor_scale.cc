// Reactor scaling bench: one coordinator serving many concurrent TCP sites
// over the reactor transport — sites vs OS threads vs throughput. The claim
// under test: the reactor serves >= 64 sites with O(1) I/O threads (two
// event loops, total), however many sites connect.
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
  int threads_total = 0;  // Peak process thread count during the run.
  int io_threads = 0;     // threads_total - baseline - protocol threads.
  double events_per_sec = 0.0;
  uint64_t wire_bytes = 0;
};

StatusOr<ScaleRun> RunOnce(const BayesianNetwork& net, int sites,
                           int64_t events, double eps, uint64_t seed) {
  const int baseline_threads = CountThreads();
  SessionBuilder builder(net);
  builder.WithBackend(Backend::kThreads)
      .WithStrategy(TrackingStrategy::kUniform)
      .WithSites(sites)
      .WithEpsilon(eps)
      .WithSeed(seed)
      .WithTransport(MakeReactorTransport);
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
  flags.DefineString("json", "BENCH_reactor.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t events = flags.GetInt64("events");
  const StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }

  TablePrinter table("Reactor scaling (" + net->name() + ", " +
                     FormatInstances(events) +
                     " instances): sites vs threads vs throughput");
  table.SetHeader({"sites", "transport", "threads", "I/O threads",
                   "events/s", "wire MiB"});
  Json records = Json::Array();
  bool gate_failed = false;
  for (const std::string& sites_text : SplitCommaList(flags.GetString("site-counts"))) {
    const int sites = std::stoi(sites_text);
    StatusOr<ScaleRun> run =
        RunOnce(*net, sites, events, flags.GetDouble("eps"),
                static_cast<uint64_t>(flags.GetInt64("seed")));
    if (!run.ok()) {
      std::cerr << "sites=" << sites << " reactor: " << run.status() << "\n";
      return 1;
    }
    table.AddRow({std::to_string(run->sites), "reactor",
                  std::to_string(run->threads_total),
                  std::to_string(run->io_threads),
                  FormatCount(static_cast<int64_t>(run->events_per_sec)),
                  FormatDouble(static_cast<double>(run->wire_bytes) / (1 << 20), 3)});
    Json record = Json::Object();
    // io_backend stays in the record, although epoll is the only loop, so
    // its bench_diff.py key still matches artifacts from earlier commits.
    record.Add("network", Json::Str(net->name()))
        .Add("sites", Json::Int(run->sites))
        .Add("transport", Json::Str("reactor"))
        .Add("io_backend", Json::Str("epoll"))
        .Add("threads_total", Json::Int(run->threads_total))
        .Add("io_threads", Json::Int(run->io_threads))
        .Add("events_per_sec", Json::Double(run->events_per_sec))
        .Add("wire_bytes", Json::Int(static_cast<int64_t>(run->wire_bytes)));
    records.Append(std::move(record));

    if (flags.GetBool("assert-o1-io") && run->io_threads > 4) {
      std::cerr << "GATE FAILED: reactor used " << run->io_threads
                << " I/O threads at " << sites << " sites (O(1) bound: 4)\n";
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
