// Named benchmark networks used throughout tests, benches, and examples.
//
// ALARM / HEPAR II / LINK / MUNIN are seeded synthetic stand-ins whose
// structural statistics match the paper's Table I (see README
// "Substitutions for the paper's setup" for the rationale). The functions
// are deterministic: the same binary always works with the same networks.

#ifndef DSGM_BAYES_REPOSITORY_H_
#define DSGM_BAYES_REPOSITORY_H_

#include <string>
#include <vector>

#include "bayes/generator.h"
#include "bayes/network.h"

namespace dsgm {

/// Target statistics from the paper's Table I.
struct NetworkTarget {
  std::string name;
  int nodes = 0;
  int edges = 0;
  int64_t params = 0;
};

/// The four Table I rows.
std::vector<NetworkTarget> PaperNetworkTargets();

/// Generator specs matched to Table I (used by benches to report achieved
/// statistics next to the targets).
NetworkSpec AlarmSpec();
NetworkSpec HeparSpec();
NetworkSpec LinkSpec();
NetworkSpec MuninSpec();

/// The seeded stand-in networks themselves.
BayesianNetwork Alarm();
BayesianNetwork Hepar();
BayesianNetwork Link();
BayesianNetwork Munin();

/// NEW-ALARM (Section VI-B): ALARM's structure with six domains inflated to
/// 20 values, used to separate UNIFORM from NONUNIFORM.
BayesianNetwork NewAlarm();

/// Looks a repository network up by name ("alarm", "hepar", "link", "munin",
/// "new-alarm", case-insensitive); errors on unknown names.
StatusOr<BayesianNetwork> NetworkByName(const std::string& name);

/// A tiny hand-coded 5-variable network (the classic student network:
/// Difficulty, Intelligence, Grade, SAT, Letter) with exact CPDs; used by
/// unit tests and the quickstart example where inspectable numbers matter.
BayesianNetwork StudentNetwork();

}  // namespace dsgm

#endif  // DSGM_BAYES_REPOSITORY_H_
