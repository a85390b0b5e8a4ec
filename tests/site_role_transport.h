// Test-only ClusterTransport with the kLocalTcp backend's wiring: a
// ReactorCoordinator accepts every site over a real listener, and each site
// dials in, sends its hello with SendHelloBlocking, and runs a client-side
// ReactorConnection on an event loop of its own — the per-site shape
// cluster/remote_runner.cc serves a SiteNode through. Lets the conformance
// and cluster suites hold that wiring to the same contract as the in-process
// transports (MakeReactorTransport shares one loop across all sites and
// pairs sockets without the coordinator's accept loop).

#ifndef DSGM_TESTS_SITE_ROLE_TRANSPORT_H_
#define DSGM_TESTS_SITE_ROLE_TRANSPORT_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/cluster_transport.h"
#include "net/reactor.h"
#include "net/reactor_transport.h"
#include "net/tcp_socket.h"

namespace dsgm {

class SiteRoleTransport : public ClusterTransport {
 public:
  explicit SiteRoleTransport(int num_sites)
      : num_sites_(num_sites), coordinator_(num_sites, CoordinatorOptions()) {
    StatusOr<TcpListener> listener = TcpListener::Listen(0, num_sites + 8);
    DSGM_CHECK(listener.ok()) << listener.status();
    // Hellos first (the listen backlog holds the connections), then the
    // coordinator's accept loop pairs them by site id.
    std::vector<TcpSocket> sockets;
    for (int s = 0; s < num_sites; ++s) {
      StatusOr<TcpSocket> socket =
          TcpSocket::Connect("127.0.0.1", listener->port());
      DSGM_CHECK(socket.ok()) << socket.status();
      DSGM_CHECK(SendHelloBlocking(&socket.value(), s).ok());
      sockets.push_back(std::move(socket).value());
    }
    const Status accepted = coordinator_.AcceptSites(&listener.value());
    DSGM_CHECK(accepted.ok()) << accepted;
    ReactorConnection::Options site_options;
    site_options.receive_direction = ProtocolDirection::kCoordinatorToSite;
    for (int s = 0; s < num_sites; ++s) {
      reactors_.push_back(std::make_unique<Reactor>());
      sites_.push_back(std::make_unique<ReactorConnection>(
          reactors_.back().get(), std::move(sockets[static_cast<size_t>(s)]),
          s, site_options));
      reactors_.back()->Start();
      sites_.back()->Start();
    }
  }

  ~SiteRoleTransport() override { Shutdown(); }

  int num_sites() const override { return num_sites_; }

  CoordinatorEndpoints coordinator() override {
    CoordinatorEndpoints endpoints;
    endpoints.updates = coordinator_.updates();
    for (int s = 0; s < num_sites_; ++s) {
      endpoints.events.push_back(coordinator_.events(s));
      endpoints.commands.push_back(coordinator_.commands(s));
    }
    return endpoints;
  }

  SiteEndpoints site(int s) override {
    ReactorConnection* connection = sites_[static_cast<size_t>(s)].get();
    SiteEndpoints endpoints;
    endpoints.events = connection->events();
    endpoints.commands = connection->commands();
    endpoints.updates = connection->updates();
    return endpoints;
  }

  TransportStats stats() const override {
    TransportStats stats;
    stats.measured = true;
    stats.bytes_up = coordinator_.bytes_up();
    stats.bytes_down = coordinator_.bytes_down();
    return stats;
  }

  void Shutdown() override {
    if (shutdown_) return;
    shutdown_ = true;
    coordinator_.Shutdown();
    for (auto& reactor : reactors_) reactor->Stop();
    for (auto& site : sites_) site->ShutdownFromOwner();
  }

 private:
  static ReactorCoordinator::Options CoordinatorOptions() {
    ReactorCoordinator::Options options;
    // The suites drive bare lanes, not heartbeating site processes.
    options.liveness_timeout_ms = 0;
    return options;
  }

  const int num_sites_;
  ReactorCoordinator coordinator_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::unique_ptr<ReactorConnection>> sites_;
  bool shutdown_ = false;
};

inline std::unique_ptr<ClusterTransport> MakeSiteRoleTransport(int num_sites) {
  return std::make_unique<SiteRoleTransport>(num_sites);
}

}  // namespace dsgm

#endif  // DSGM_TESTS_SITE_ROLE_TRANSPORT_H_
