// Pluggable cluster plumbing: a ClusterTransport owns the channels wiring a
// coordinator (plus its event dispatcher) to k sites, hiding whether frames
// cross thread queues or real sockets.
//
// Two implementations ship:
//   - MakeLoopbackTransport: the original in-process BoundedQueues, wrapped
//     in QueueChannels. Zero serialization; the threaded benchmarks
//     (paper Figs. 7-8) run on this unchanged.
//   - MakeReactorTransport: k real localhost TCP connections (one per
//     site) with framed, codec-serialized traffic, served by event loops
//     (net/reactor_transport.h). The roles stay in-process threads, but
//     every byte crosses the kernel socket layer — the honest-bytes
//     substrate, also used by the net throughput benches. The kLocalTcp
//     backend and the multi-process roles run the same ReactorConnection.
//
// Both implementations must pass the shared conformance suite in
// tests/transport_test.cc.

#ifndef DSGM_NET_CLUSTER_TRANSPORT_H_
#define DSGM_NET_CLUSTER_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/channel.h"
#include "net/wire.h"

namespace dsgm {

/// Measured wire traffic, when the transport can observe it. Loopback moves
/// no bytes, so it reports measured = false; the estimated protocol bytes in
/// CommStats remain the comparable metric across transports.
struct TransportStats {
  uint64_t bytes_up = 0;    // sites -> coordinator, incl. framing
  uint64_t bytes_down = 0;  // coordinator -> sites, incl. framing
  bool measured = false;
};

/// Channel endpoints used by the coordinator process: the merged update
/// stream from every site, plus per-site command and event lanes.
struct CoordinatorEndpoints {
  Channel<UpdateBundle>* updates = nullptr;
  std::vector<Channel<EventBatch>*> events;
  std::vector<Channel<RoundAdvance>*> commands;
};

/// Channel endpoints used by one site.
struct SiteEndpoints {
  Channel<EventBatch>* events = nullptr;
  Channel<RoundAdvance>* commands = nullptr;
  Channel<UpdateBundle>* updates = nullptr;
};

class ClusterTransport {
 public:
  virtual ~ClusterTransport() = default;

  virtual int num_sites() const = 0;
  virtual CoordinatorEndpoints coordinator() = 0;
  virtual SiteEndpoints site(int s) = 0;
  virtual TransportStats stats() const { return TransportStats(); }

  /// Tears down I/O threads and sockets. Call after every node using the
  /// endpoints has finished; idempotent, also runs on destruction.
  virtual void Shutdown() {}
};

/// Builds a transport for `num_sites` sites. An empty factory (the default
/// of SessionOptions::transport) means loopback.
using TransportFactory =
    std::function<std::unique_ptr<ClusterTransport>(int num_sites)>;

std::unique_ptr<ClusterTransport> MakeLoopbackTransport(int num_sites);

/// Spins up a localhost listener plus one connected socket pair per site,
/// all within this process, served by TWO reactor event-loop threads total
/// (one owning every coordinator-side connection, one owning every site
/// side) — the transport that lets one coordinator scale to hundreds of
/// sites. Implemented in net/reactor_transport.{h,cc}. Aborts via
/// DSGM_CHECK if localhost sockets are unavailable (an environment
/// problem, not a recoverable input).
std::unique_ptr<ClusterTransport> MakeReactorTransport(int num_sites);

}  // namespace dsgm

#endif  // DSGM_NET_CLUSTER_TRANSPORT_H_
