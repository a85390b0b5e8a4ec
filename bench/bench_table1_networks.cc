// Table I: statistics of the benchmark networks. Prints the paper's targets
// next to what the seeded synthetic stand-ins achieve (README "Substitutions
// for the paper's setup").

#include <iostream>

#include "bayes/repository.h"
#include "common/table.h"
#include "harness/experiment.h"

namespace dsgm {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags);
  ParseFlagsOrDie(&flags, argc, argv);

  TablePrinter table("Table I: Bayesian networks used in the experiments");
  table.SetHeader({"dataset", "nodes (paper)", "nodes (ours)", "edges (paper)",
                   "edges (ours)", "params (paper)", "params (ours)",
                   "min CPD entry"});
  const std::vector<NetworkTarget> targets = PaperNetworkTargets();
  const BayesianNetwork networks[4] = {Alarm(), Hepar(), Link(), Munin()};
  for (int i = 0; i < 4; ++i) {
    const NetworkTarget& target = targets[static_cast<size_t>(i)];
    const BayesianNetwork& net = networks[i];
    table.AddRow({target.name, std::to_string(target.nodes),
                  std::to_string(net.num_variables()), std::to_string(target.edges),
                  std::to_string(net.dag().num_edges()), FormatCount(target.params),
                  FormatCount(net.FreeParams()), FormatDouble(net.MinCpdEntry(), 3)});
  }
  table.Print(std::cout);
  std::cout << "\nNEW-ALARM (Section VI-B): " << NewAlarm().FreeParams()
            << " params after inflating 6 domains to 20 values (ALARM: "
            << Alarm().FreeParams() << ").\n";
  return 0;
}

}  // namespace
}  // namespace dsgm

int main(int argc, char** argv) { return dsgm::Main(argc, argv); }
