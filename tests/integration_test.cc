// End-to-end integration tests: stream -> four trackers -> error and
// communication relationships reported in the paper's evaluation.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bayes/repository.h"
#include "bayes/sampler.h"
#include "common/statistics.h"
#include "core/classifier.h"
#include "core/mle_tracker.h"

namespace dsgm {
namespace {

struct FourTrackers {
  std::unique_ptr<MleTracker> exact;
  std::unique_ptr<MleTracker> baseline;
  std::unique_ptr<MleTracker> uniform;
  std::unique_ptr<MleTracker> nonuniform;
};

FourTrackers MakeTrackers(const BayesianNetwork& net, int sites, double eps) {
  FourTrackers trackers;
  TrackerConfig config;
  config.num_sites = sites;
  config.epsilon = eps;
  config.seed = 4242;
  config.strategy = TrackingStrategy::kExactMle;
  trackers.exact = std::make_unique<MleTracker>(net, config);
  config.strategy = TrackingStrategy::kBaseline;
  trackers.baseline = std::make_unique<MleTracker>(net, config);
  config.strategy = TrackingStrategy::kUniform;
  trackers.uniform = std::make_unique<MleTracker>(net, config);
  config.strategy = TrackingStrategy::kNonUniform;
  trackers.nonuniform = std::make_unique<MleTracker>(net, config);
  return trackers;
}

void StreamToAll(const BayesianNetwork& net, FourTrackers* trackers,
                 int64_t events, int sites) {
  ForwardSampler sampler(net, 1001);
  Rng router(1002);
  Instance x;
  for (int64_t e = 0; e < events; ++e) {
    sampler.Sample(&x);
    const int site = static_cast<int>(router.NextBounded(static_cast<uint64_t>(sites)));
    trackers->exact->Observe(x, site);
    trackers->baseline->Observe(x, site);
    trackers->uniform->Observe(x, site);
    trackers->nonuniform->Observe(x, site);
  }
}

TEST(IntegrationTest, CommunicationOrderingOnAlarm) {
  const BayesianNetwork net = Alarm();
  FourTrackers trackers = MakeTrackers(net, 10, 0.1);
  StreamToAll(net, &trackers, 50000, 10);

  const uint64_t exact = trackers.exact->comm().TotalMessages();
  const uint64_t baseline = trackers.baseline->comm().TotalMessages();
  const uint64_t uniform = trackers.uniform->comm().TotalMessages();
  const uint64_t nonuniform = trackers.nonuniform->comm().TotalMessages();

  // Fig. 6 / Table III ordering: approx algorithms beat EXACTMLE; the
  // variance-analysis algorithms beat BASELINE (whose per-counter epsilon
  // is much smaller).
  EXPECT_LT(baseline, exact);
  EXPECT_LT(uniform, baseline);
  // UNIFORM and NONUNIFORM are close on ALARM (similar cardinalities);
  // allow 20% slack either way but require the same magnitude.
  EXPECT_LT(nonuniform, uniform + uniform / 5);
  EXPECT_GT(nonuniform, uniform / 2);
}

TEST(IntegrationTest, ErrorToMleWithinApproximationBand) {
  const BayesianNetwork net = Alarm();
  FourTrackers trackers = MakeTrackers(net, 10, 0.1);
  StreamToAll(net, &trackers, 50000, 10);

  Rng rng(31337);
  TestEventOptions options;
  options.count = 300;
  const std::vector<TestEvent> events = GenerateTestEvents(net, options, rng);

  // Definition 2 (with the experiment's single-instance, constant-probability
  // setting): the ratio P~/P^ concentrates within e^{±eps}. Check the mean
  // relative deviation is well under eps and the worst case under 3 eps.
  for (const MleTracker* tracker :
       {trackers.baseline.get(), trackers.uniform.get(), trackers.nonuniform.get()}) {
    OnlineStats deviation;
    for (const TestEvent& event : events) {
      const double mle = trackers.exact->JointProbability(event.assignment);
      const double approx = tracker->JointProbability(event.assignment);
      ASSERT_GT(mle, 0.0);
      deviation.Add(std::abs(approx - mle) / mle);
    }
    EXPECT_LT(deviation.mean(), 0.1)
        << "strategy " << ToString(tracker->config().strategy);
    EXPECT_LT(deviation.max(), 0.3)
        << "strategy " << ToString(tracker->config().strategy);
  }
}

TEST(IntegrationTest, ErrorToTruthShrinksWithMoreData) {
  const BayesianNetwork net = Hepar();
  TrackerConfig config;
  config.strategy = TrackingStrategy::kNonUniform;
  config.num_sites = 10;
  config.epsilon = 0.1;
  MleTracker tracker(net, config);

  Rng rng(777);
  TestEventOptions options;
  options.count = 200;
  const std::vector<TestEvent> events = GenerateTestEvents(net, options, rng);

  ForwardSampler sampler(net, 778);
  Rng router(779);
  Instance x;
  auto mean_error = [&]() {
    OnlineStats err;
    for (const TestEvent& event : events) {
      const double estimate = tracker.JointProbability(event.assignment);
      err.Add(std::abs(estimate - event.truth_prob) / event.truth_prob);
    }
    return err.mean();
  };

  for (int64_t e = 0; e < 2000; ++e) {
    sampler.Sample(&x);
    tracker.Observe(x, static_cast<int>(router.NextBounded(10)));
  }
  const double error_small = mean_error();
  for (int64_t e = 0; e < 48000; ++e) {
    sampler.Sample(&x);
    tracker.Observe(x, static_cast<int>(router.NextBounded(10)));
  }
  const double error_large = mean_error();
  // Fig. 1-3 behaviour: statistical error shrinks as the stream grows.
  EXPECT_LT(error_large, error_small);
}

TEST(IntegrationTest, NewAlarmSeparatesNonUniformFromUniform) {
  // Section VI-B: on NEW-ALARM the NONUNIFORM allocation saves messages
  // relative to UNIFORM (the paper reports ~35%; see README "Experiment
  // notes" for the crossover analysis — the separation appears once most
  // counter cells are in the sampled regime, which needs a couple of
  // million events here).
  // All seeds are fixed, so the outcome is deterministic.
  const BayesianNetwork net = NewAlarm();
  TrackerConfig config;
  config.num_sites = 30;
  config.epsilon = 0.1;
  config.seed = 5150;
  config.strategy = TrackingStrategy::kUniform;
  MleTracker uniform(net, config);
  config.strategy = TrackingStrategy::kNonUniform;
  MleTracker nonuniform(net, config);

  ForwardSampler sampler(net, 5151);
  Rng router(5152);
  Instance x;
  for (int64_t e = 0; e < 2000000; ++e) {
    sampler.Sample(&x);
    const int site = static_cast<int>(router.NextBounded(30));
    uniform.Observe(x, site);
    nonuniform.Observe(x, site);
  }
  EXPECT_LT(nonuniform.comm().TotalMessages(), uniform.comm().TotalMessages());
}

TEST(IntegrationTest, ClassificationAccuracyComparableAcrossStrategies) {
  // Table II: prediction error of approximate strategies is very close to
  // EXACTMLE's.
  const BayesianNetwork net = Alarm();
  FourTrackers trackers = MakeTrackers(net, 10, 0.1);
  StreamToAll(net, &trackers, 30000, 10);

  ForwardSampler test_sampler(net, 8888);
  Rng picker(8889);
  Instance x;
  constexpr int kTests = 600;
  int errors[4] = {0, 0, 0, 0};
  const MleTracker* all[4] = {trackers.exact.get(), trackers.baseline.get(),
                              trackers.uniform.get(), trackers.nonuniform.get()};
  for (int t = 0; t < kTests; ++t) {
    test_sampler.Sample(&x);
    const int target = static_cast<int>(
        picker.NextBounded(static_cast<uint64_t>(net.num_variables())));
    const int truth = x[static_cast<size_t>(target)];
    for (int a = 0; a < 4; ++a) {
      errors[a] += (PredictWithTracker(*all[a], target, x) != truth);
    }
  }
  for (int a = 1; a < 4; ++a) {
    EXPECT_LE(std::abs(errors[a] - errors[0]), kTests * 6 / 100)
        << "strategy " << ToString(all[a]->config().strategy);
  }
}

}  // namespace
}  // namespace dsgm
