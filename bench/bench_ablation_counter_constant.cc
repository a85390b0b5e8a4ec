// Ablation: the counter round-schedule safety constant c (README "Counter
// constants") trades communication for approximation error. The paper's
// analysis constants are conservative; this sweep quantifies the practical
// operating curve.

#include <iostream>

#include "bayes/repository.h"
#include "common/table.h"
#include "harness/experiment.h"

namespace dsgm {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  flags.DefineInt64("events", 200000, "training instances");
  flags.DefineString("network", "alarm", "network name");
  flags.DefineString("constants", "0.25,0.5,1.0,2.0,4.0", "safety constant sweep");
  ParseFlagsOrDie(&flags, argc, argv);

  StatusOr<BayesianNetwork> net = NetworkByName(flags.GetString("network"));
  if (!net.ok()) {
    std::cerr << net.status() << "\n";
    return 1;
  }

  TablePrinter table("Ablation (" + flags.GetString("network") +
                     "): counter safety constant c, NONUNIFORM, " +
                     FormatInstances(flags.GetInt64("events")) + " instances");
  table.SetHeader({"c", "total msgs", "mean err-to-MLE", "p90 err-to-MLE"});
  for (const std::string& c_text : SplitCommaList(flags.GetString("constants"))) {
    ExperimentOptions options;
    ApplyCommonFlags(flags, &options);
    options.checkpoints = {flags.GetInt64("events")};
    options.strategies = {TrackingStrategy::kNonUniform};
    options.probability_constant = std::stod(c_text);
    options.test_events = 300;
    const std::vector<Snapshot> snapshots = RunStreamExperiment(*net, options);
    const Snapshot& snap = FindSnapshot(snapshots, TrackingStrategy::kNonUniform,
                                        options.checkpoints[0]);
    table.AddRow({c_text,
                  FormatScientific(static_cast<double>(snap.comm.TotalMessages())),
                  FormatDouble(snap.error_to_mle.Mean()),
                  FormatDouble(snap.error_to_mle.Quantile(0.9))});
  }
  table.Print(std::cout);
  std::cout << "\n(Larger c keeps counters exact longer: more messages, "
               "smaller deviation from the exact MLE.)\n";
  return 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Main(argc, argv); }
