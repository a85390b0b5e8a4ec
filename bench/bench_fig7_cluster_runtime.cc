// Figure 7: training runtime on the (threaded) cluster vs number of sites,
// for ALARM and HEPAR II. The paper ran EC2 t2.micro machines; this build
// substitutes one thread per site with real message queues (README
// "Substitutions for the paper's setup") — relative runtimes between
// algorithms are the signal.

#include <iostream>

#include "bayes/repository.h"
#include "common/table.h"
#include "dsgm/dsgm.h"
#include "harness/experiment.h"
#include "harness/json_report.h"

namespace dsgm {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 100000,
                    "training instances per run (paper: 500000)");
  flags.DefineString("networks", "alarm,hepar", "comma-separated network list");
  flags.DefineString("site-counts", "2,4,6,8,10", "cluster sizes to sweep");
  flags.DefineString("json", "BENCH_cluster_runtime.json",
                     "machine-readable results file (empty disables)");
  ParseFlagsOrDie(&flags, argc, argv);

  const int64_t events =
      flags.GetBool("full") ? 500000 : flags.GetInt64("events");
  const std::vector<TrackingStrategy> strategies = {
      TrackingStrategy::kExactMle, TrackingStrategy::kBaseline,
      TrackingStrategy::kUniform, TrackingStrategy::kNonUniform};

  Json records = Json::Array();
  for (const std::string& name : SplitCommaList(flags.GetString("networks"))) {
    StatusOr<BayesianNetwork> net = NetworkByName(name);
    if (!net.ok()) {
      std::cerr << net.status() << "\n";
      return 1;
    }
    TablePrinter table("Fig. 7 (" + name + "): cluster runtime (sec) vs sites, " +
                       FormatInstances(events) + " instances");
    std::vector<std::string> header = {"sites"};
    for (TrackingStrategy s : strategies) header.push_back(ToString(s));
    table.SetHeader(header);
    for (const std::string& sites_text : SplitCommaList(flags.GetString("site-counts"))) {
      const int sites = std::stoi(sites_text);
      std::vector<std::string> row = {std::to_string(sites)};
      for (TrackingStrategy strategy : strategies) {
        auto session = SessionBuilder(*net)
                           .WithBackend(Backend::kThreads)
                           .WithStrategy(strategy)
                           .WithSites(sites)
                           .WithEpsilon(flags.GetDouble("eps"))
                           .WithSeed(static_cast<uint64_t>(flags.GetInt64("seed")))
                           .Build();
        if (!session.ok()) {
          std::cerr << session.status() << "\n";
          return 1;
        }
        const Status streamed = (*session)->StreamGroundTruth(events);
        if (!streamed.ok()) {
          std::cerr << streamed << "\n";
          return 1;
        }
        const auto report = (*session)->Finish();
        if (!report.ok()) {
          std::cerr << report.status() << "\n";
          return 1;
        }
        row.push_back(FormatDouble(report->runtime_seconds, 3));
        Json record = RunReportToJson(*report);
        record.Add("network", Json::Str(net->name()))
            .Add("sites", Json::Int(sites))
            .Add("strategy", Json::Str(ToString(strategy)));
        records.Append(std::move(record));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
    std::cout << "\n";
  }

  if (!flags.GetString("json").empty()) {
    Json root = Json::Object();
    root.Add("bench", Json::Str("fig7_cluster_runtime"))
        .Add("events_per_run", Json::Int(events))
        .Add("epsilon", Json::Double(flags.GetDouble("eps")))
        .Add("seed", Json::Int(flags.GetInt64("seed")))
        .Add("results", std::move(records));
    const Status written = WriteJsonReport(flags.GetString("json"), root);
    if (!written.ok()) {
      std::cerr << written << "\n";
      return 1;
    }
    std::cout << "wrote " << flags.GetString("json") << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Main(argc, argv); }
