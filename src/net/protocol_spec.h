// The cluster wire protocol's connection state machine, as data.
//
// Until now the legal-transition rules of the protocol existed only
// implicitly — a stray check in an accept loop here, an "ignore defensively"
// switch arm there. This header makes the contract explicit and machine
// checkable: a connection is in one of four states, every decodable frame is
// one of eight wire inputs, and a dense (state × direction × input) table
// assigns each combination a verdict. Anything the table does not
// explicitly allow is a violation — the table is built allow-list-first, so
// a new frame kind is rejected everywhere until the spec says otherwise.
//
// The two directions are the two receive machines of one connection:
//
//   kSiteToCoordinator   what a coordinator accepts FROM a site
//       hello first; then update bundles and telemetry (kHeartbeat, the
//       one frame carrying liveness, clock samples, health stats and the
//       trace drain). The site may close its update lane (-> Draining),
//       after which only telemetry is legal while it lingers for the
//       coordinator's hangup. No site role sends that close today; the
//       rule keeps a lingering site's telemetry legal if one ever does.
//       Sites never send events, commands, or closes for lanes they do
//       not own. Telemetry names no site: the connection's hello is its
//       only attribution, so a site cannot speak for another's row.
//
//   kCoordinatorToSite   what a site accepts FROM the coordinator
//       event batches and round-advance commands, plus heartbeat echoes
//       (the coordinator reflects each site heartbeat so the site can close
//       the NTP timestamp loop). The handshake is one hello, site to
//       coordinator: the coordinator sends none, so a site's machine starts
//       kActive, no rule leaves kAwaitingHello, and a hello from the
//       coordinator is a violation. The event
//       lane may close while commands continue (dispatcher finishes before
//       the protocol loop); closing the command lane is the coordinator's
//       final word (-> Draining), after which only straggler events, the
//       event-lane close, and heartbeat echoes are legal. Coordinators
//       never send updates or update-lane closes.
//
// A violation is terminal (-> Closed, where everything is a violation), is
// counted on the process-wide `net.protocol.violations` counter, and makes
// the transport drop the connection. tests/protocol_spec_test.cc
// model-checks the table by exhaustive enumeration: totality, hello before
// anything (site to coordinator), nothing after close, directional
// ownership, reachability.

#ifndef DSGM_NET_PROTOCOL_SPEC_H_
#define DSGM_NET_PROTOCOL_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/codec.h"

namespace dsgm {

/// Per-connection receive states.
enum class ProtocolState : uint8_t {
  kAwaitingHello = 0,  // nothing received yet; only a hello is legal
  kActive = 1,         // handshake done; data and control flow freely
  kDraining = 2,       // the sender closed its terminal lane; linger only
  kClosed = 3,         // terminal; every further frame is a violation
};
inline constexpr size_t kNumProtocolStates = 4;
inline constexpr ProtocolState kAllProtocolStates[kNumProtocolStates] = {
    ProtocolState::kAwaitingHello, ProtocolState::kActive,
    ProtocolState::kDraining, ProtocolState::kClosed};

/// Which half of the connection this machine validates (who is RECEIVING).
enum class ProtocolDirection : uint8_t {
  kSiteToCoordinator = 0,  // coordinator validating a site's frames
  kCoordinatorToSite = 1,  // site validating the coordinator's frames
};
inline constexpr size_t kNumProtocolDirections = 2;
inline constexpr ProtocolDirection
    kAllProtocolDirections[kNumProtocolDirections] = {
        ProtocolDirection::kSiteToCoordinator,
        ProtocolDirection::kCoordinatorToSite};

/// Every distinct input a decoded frame can present to the state machine.
/// kChannelClose fans out per closed lane: closing the update lane is a
/// terminal act, closing the event lane is not, so they cannot share a row.
enum class WireInput : uint8_t {
  kInUpdateBundle = 0,
  kInRoundAdvance = 1,
  kInEventBatch = 2,
  kInCloseUpdates = 3,   // kChannelClose(kUpdateBundle)
  kInCloseCommands = 4,  // kChannelClose(kRoundAdvance)
  kInCloseEvents = 5,    // kChannelClose(kEventBatch)
  kInHello = 6,
  kInHeartbeat = 7,  // telemetry (and, to a site, its echo)
};
inline constexpr size_t kNumWireInputs = 8;
inline constexpr WireInput kAllWireInputs[kNumWireInputs] = {
    WireInput::kInUpdateBundle, WireInput::kInRoundAdvance,
    WireInput::kInEventBatch,   WireInput::kInCloseUpdates,
    WireInput::kInCloseCommands, WireInput::kInCloseEvents,
    WireInput::kInHello,        WireInput::kInHeartbeat};

enum class ProtocolVerdict : uint8_t {
  kAccept = 0,
  kViolation = 1,
  /// Only from ProtocolConformance::OnFrame, for a first hello whose version
  /// is not kProtocolVersion: counted as a violation, but the
  /// transport surfaces it as a deployment error (FailedPrecondition)
  /// instead of dropping it as line noise.
  kVersionMismatch = 2,
};

struct FrameRule {
  ProtocolVerdict verdict = ProtocolVerdict::kViolation;
  ProtocolState next = ProtocolState::kClosed;
};

/// Where a fresh connection's machine starts: a coordinator awaits the
/// site's hello (kAwaitingHello); a site starts kActive, because its own
/// hello is the whole handshake and the coordinator sends none.
constexpr ProtocolState InitialProtocolState(ProtocolDirection direction) {
  return direction == ProtocolDirection::kSiteToCoordinator
             ? ProtocolState::kAwaitingHello
             : ProtocolState::kActive;
}

/// The table lookup itself.
const FrameRule& LookupRule(ProtocolState state, ProtocolDirection direction,
                            WireInput input);

/// Classifies a decoded frame (kChannelClose fans out by frame.channel).
WireInput WireInputOf(const Frame& frame);

const char* ProtocolStateName(ProtocolState state);
const char* ProtocolDirectionName(ProtocolDirection direction);
const char* WireInputName(WireInput input);

/// The process-wide counter every conformance violation increments.
inline constexpr char kProtocolViolationsMetric[] = "net.protocol.violations";

/// Per-connection validator over the table. Single-threaded by contract:
/// each connection consults it from the one thread that decodes its frames
/// (the reactor loop, or the owner during the blocking handshake read,
/// which runs before the connection joins the loop).
class ProtocolConformance {
 public:
  /// Every hello must claim kProtocolVersion; any other version is a
  /// kVersionMismatch for the first hello and a violation afterwards.
  /// Starts in InitialProtocolState(direction).
  explicit ProtocolConformance(ProtocolDirection direction);
  /// Starts in `initial`. The coordinator's transport passes kActive: its
  /// accept loop reads the hello before the connection exists.
  ProtocolConformance(ProtocolDirection direction, ProtocolState initial);

  /// Feeds one decoded frame through the table; advances the state. On
  /// kViolation/kVersionMismatch the state is kClosed and the caller must
  /// drop the connection.
  ProtocolVerdict OnFrame(const Frame& frame);

  /// A frame that failed to decode at all (bad bytes on the protocol port)
  /// breaks the contract just as much as an out-of-state one: counted and
  /// terminal.
  ProtocolVerdict OnMalformedFrame();

  /// Orderly end of the byte stream (EOF, owner shutdown). Not a violation.
  void MarkClosed();

  ProtocolState state() const { return state_; }
  ProtocolDirection direction() const { return direction_; }
  /// Violations charged to THIS connection (the metric is process-wide).
  uint64_t violations() const { return violations_; }

 private:
  ProtocolVerdict CountViolation(ProtocolVerdict verdict);

  const ProtocolDirection direction_;
  ProtocolState state_;
  uint64_t violations_ = 0;
  Counter* const violations_metric_;
};

/// A conformance-checked framed stream parser: the framing rule of the
/// transports' read paths (u32-LE length prefix, kMaxFramePayload cap,
/// DecodeFramePayload) fused with a ProtocolConformance. Used by the
/// fuzz_protocol_stream harness to pound the accept/read contract with
/// adversarial byte streams, and unit-testable without sockets.
class ProtocolStreamChecker {
 public:
  explicit ProtocolStreamChecker(ProtocolDirection direction);
  ProtocolStreamChecker(ProtocolDirection direction, ProtocolState initial);

  /// Appends bytes and parses every complete frame. The first framing,
  /// codec, or conformance error is sticky — like a transport, the checker
  /// drops the connection rather than resynchronizing.
  Status Append(const uint8_t* data, size_t size);

  const ProtocolConformance& conformance() const { return conformance_; }
  uint64_t frames_accepted() const { return frames_accepted_; }
  const Status& error() const { return error_; }

 private:
  ProtocolConformance conformance_;
  std::vector<uint8_t> buffer_;
  size_t parse_offset_ = 0;
  uint64_t frames_accepted_ = 0;
  Status error_;
};

}  // namespace dsgm

#endif  // DSGM_NET_PROTOCOL_SPEC_H_
