#include "net/cluster_transport.h"

#include <utility>

#include "common/check.h"

namespace dsgm {
namespace {

// Queue bounds; the reactor transport's inbox capacities default to the
// same values so backpressure behaves identically. The update queue's bound
// is kUpdateQueueCapacity (net/wire.h).
constexpr size_t kEventQueueCapacity = 64;
constexpr size_t kCommandQueueCapacity = 1 << 16;

class LoopbackTransport : public ClusterTransport {
 public:
  explicit LoopbackTransport(int num_sites)
      : num_sites_(num_sites),
        to_coordinator_(kUpdateQueueCapacity),
        update_channel_(&to_coordinator_) {
    for (int s = 0; s < num_sites; ++s) {
      event_queues_.push_back(
          std::make_unique<BoundedQueue<EventBatch>>(kEventQueueCapacity));
      command_queues_.push_back(
          std::make_unique<BoundedQueue<RoundAdvance>>(kCommandQueueCapacity));
      event_channels_.push_back(
          std::make_unique<QueueChannel<EventBatch>>(event_queues_.back().get()));
      command_channels_.push_back(std::make_unique<QueueChannel<RoundAdvance>>(
          command_queues_.back().get()));
    }
  }

  int num_sites() const override { return num_sites_; }

  CoordinatorEndpoints coordinator() override {
    CoordinatorEndpoints endpoints;
    endpoints.updates = &update_channel_;
    for (int s = 0; s < num_sites_; ++s) {
      endpoints.events.push_back(event_channels_[static_cast<size_t>(s)].get());
      endpoints.commands.push_back(command_channels_[static_cast<size_t>(s)].get());
    }
    return endpoints;
  }

  SiteEndpoints site(int s) override {
    DSGM_CHECK_GE(s, 0);
    DSGM_CHECK_LT(s, num_sites_);
    SiteEndpoints endpoints;
    endpoints.events = event_channels_[static_cast<size_t>(s)].get();
    endpoints.commands = command_channels_[static_cast<size_t>(s)].get();
    endpoints.updates = &update_channel_;
    return endpoints;
  }

 private:
  int num_sites_;
  BoundedQueue<UpdateBundle> to_coordinator_;
  QueueChannel<UpdateBundle> update_channel_;
  std::vector<std::unique_ptr<BoundedQueue<EventBatch>>> event_queues_;
  std::vector<std::unique_ptr<BoundedQueue<RoundAdvance>>> command_queues_;
  std::vector<std::unique_ptr<QueueChannel<EventBatch>>> event_channels_;
  std::vector<std::unique_ptr<QueueChannel<RoundAdvance>>> command_channels_;
};

}  // namespace

std::unique_ptr<ClusterTransport> MakeLoopbackTransport(int num_sites) {
  DSGM_CHECK_GT(num_sites, 0);
  return std::make_unique<LoopbackTransport>(num_sites);
}

}  // namespace dsgm
