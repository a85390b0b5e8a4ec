#include "net/protocol_spec.h"

#include <array>
#include <string>

#include "common/check.h"

namespace dsgm {
namespace {

// One allow-list row of the protocol spec. The table below is THE protocol:
// every (state, direction, input) combination not covered by a row is a
// violation.
struct AllowRow {
  ProtocolState state;
  ProtocolDirection direction;
  WireInput input;
  ProtocolState next;
};

constexpr ProtocolDirection kS2C = ProtocolDirection::kSiteToCoordinator;
constexpr ProtocolDirection kC2S = ProtocolDirection::kCoordinatorToSite;

constexpr AllowRow kAllowedTransitions[] = {
    // --- coordinator receiving from a site -------------------------------
    // Handshake: exactly one hello, before anything else.
    {ProtocolState::kAwaitingHello, kS2C, WireInput::kInHello,
     ProtocolState::kActive},
    // The update lane: bundles flow until the site closes it. Closing the
    // update lane is the site's terminal act — its data is done, only
    // liveness traffic may follow.
    {ProtocolState::kActive, kS2C, WireInput::kInUpdateBundle,
     ProtocolState::kActive},
    {ProtocolState::kActive, kS2C, WireInput::kInCloseUpdates,
     ProtocolState::kDraining},
    // Telemetry (liveness, clock samples, health stats, trace drain) may
    // linger through Draining: the site waits for the coordinator's hangup.
    {ProtocolState::kActive, kS2C, WireInput::kInHeartbeat,
     ProtocolState::kActive},
    {ProtocolState::kDraining, kS2C, WireInput::kInHeartbeat,
     ProtocolState::kDraining},

    // --- site receiving from the coordinator -----------------------------
    // A site's machine starts kActive (InitialProtocolState): its own hello
    // is the handshake, and no coordinator frame is legal before it.
    {ProtocolState::kActive, kC2S, WireInput::kInEventBatch,
     ProtocolState::kActive},
    {ProtocolState::kActive, kC2S, WireInput::kInRoundAdvance,
     ProtocolState::kActive},
    // The coordinator owns two lanes with independent lifetimes: the event
    // dispatcher can finish (close events) while round commands continue,
    // and on abort the command lane can close first while event stragglers
    // are still in flight. Closing the command lane is the terminal act.
    {ProtocolState::kActive, kC2S, WireInput::kInCloseEvents,
     ProtocolState::kActive},
    {ProtocolState::kActive, kC2S, WireInput::kInCloseCommands,
     ProtocolState::kDraining},
    {ProtocolState::kDraining, kC2S, WireInput::kInEventBatch,
     ProtocolState::kDraining},
    {ProtocolState::kDraining, kC2S, WireInput::kInCloseEvents,
     ProtocolState::kDraining},
    // Heartbeat echoes: the coordinator reflects each site heartbeat so the
    // site can close the NTP timestamp loop. They follow the site's
    // heartbeats, so they may arrive any time after the handshake —
    // including while the coordinator's command lane is closed.
    {ProtocolState::kActive, kC2S, WireInput::kInHeartbeat,
     ProtocolState::kActive},
    {ProtocolState::kDraining, kC2S, WireInput::kInHeartbeat,
     ProtocolState::kDraining},
};

// Dense verdict table, built once from the allow rows.
//   index = (state * kNumProtocolDirections + direction) * kNumWireInputs
//           + input
struct ProtocolTable {
  std::array<FrameRule,
             kNumProtocolStates * kNumProtocolDirections * kNumWireInputs>
      rules;  // default FrameRule{} = {kViolation, kClosed}

  static constexpr size_t IndexOf(ProtocolState state,
                                  ProtocolDirection direction,
                                  WireInput input) {
    return (static_cast<size_t>(state) * kNumProtocolDirections +
            static_cast<size_t>(direction)) *
               kNumWireInputs +
           static_cast<size_t>(input);
  }

  constexpr ProtocolTable() : rules() {
    for (const AllowRow& row : kAllowedTransitions) {
      rules[IndexOf(row.state, row.direction, row.input)] =
          FrameRule{ProtocolVerdict::kAccept, row.next};
    }
  }
};

constexpr ProtocolTable kProtocolTable{};

}  // namespace

const FrameRule& LookupRule(ProtocolState state, ProtocolDirection direction,
                            WireInput input) {
  return kProtocolTable.rules[ProtocolTable::IndexOf(state, direction, input)];
}

WireInput WireInputOf(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kUpdateBundle:
      return WireInput::kInUpdateBundle;
    case FrameType::kRoundAdvance:
      return WireInput::kInRoundAdvance;
    case FrameType::kEventBatch:
      return WireInput::kInEventBatch;
    case FrameType::kChannelClose:
      switch (frame.channel) {
        case FrameType::kUpdateBundle:
          return WireInput::kInCloseUpdates;
        case FrameType::kRoundAdvance:
          return WireInput::kInCloseCommands;
        case FrameType::kEventBatch:
          return WireInput::kInCloseEvents;
        default:
          break;  // unreachable: the codec validates the channel tag
      }
      break;
    case FrameType::kHello:
      return WireInput::kInHello;
    case FrameType::kHeartbeat:
      return WireInput::kInHeartbeat;
  }
  DSGM_CHECK(false) << "WireInputOf: frame type "
                    << static_cast<int>(frame.type)
                    << " escaped codec validation";
  return WireInput::kInHello;  // unreachable
}

const char* ProtocolStateName(ProtocolState state) {
  switch (state) {
    case ProtocolState::kAwaitingHello:
      return "awaiting_hello";
    case ProtocolState::kActive:
      return "active";
    case ProtocolState::kDraining:
      return "draining";
    case ProtocolState::kClosed:
      return "closed";
  }
  return "unknown";
}

const char* ProtocolDirectionName(ProtocolDirection direction) {
  switch (direction) {
    case ProtocolDirection::kSiteToCoordinator:
      return "site_to_coordinator";
    case ProtocolDirection::kCoordinatorToSite:
      return "coordinator_to_site";
  }
  return "unknown";
}

const char* WireInputName(WireInput input) {
  switch (input) {
    case WireInput::kInUpdateBundle:
      return "update_bundle";
    case WireInput::kInRoundAdvance:
      return "round_advance";
    case WireInput::kInEventBatch:
      return "event_batch";
    case WireInput::kInCloseUpdates:
      return "close_updates";
    case WireInput::kInCloseCommands:
      return "close_commands";
    case WireInput::kInCloseEvents:
      return "close_events";
    case WireInput::kInHello:
      return "hello";
    case WireInput::kInHeartbeat:
      return "heartbeat";
  }
  return "unknown";
}

ProtocolConformance::ProtocolConformance(ProtocolDirection direction)
    : ProtocolConformance(direction, InitialProtocolState(direction)) {}

ProtocolConformance::ProtocolConformance(ProtocolDirection direction,
                                         ProtocolState initial)
    : direction_(direction),
      state_(initial),
      violations_metric_(
          MetricsRegistry::Global().GetCounter(kProtocolViolationsMetric)) {}

ProtocolVerdict ProtocolConformance::CountViolation(ProtocolVerdict verdict) {
  ++violations_;
  violations_metric_->Increment();
  state_ = ProtocolState::kClosed;
  return verdict;
}

ProtocolVerdict ProtocolConformance::OnFrame(const Frame& frame) {
  const WireInput input = WireInputOf(frame);
  const FrameRule& rule = LookupRule(state_, direction_, input);
  if (rule.verdict != ProtocolVerdict::kAccept) {
    return CountViolation(ProtocolVerdict::kViolation);
  }
  // A hello the table allows (only ever a first one) must still claim our
  // version. One that does not is reported as a mismatch, so transports
  // can surface a deployment error instead of a generic drop.
  if (input == WireInput::kInHello &&
      frame.protocol_version != kProtocolVersion) {
    return CountViolation(ProtocolVerdict::kVersionMismatch);
  }
  state_ = rule.next;
  return ProtocolVerdict::kAccept;
}

ProtocolVerdict ProtocolConformance::OnMalformedFrame() {
  return CountViolation(ProtocolVerdict::kViolation);
}

void ProtocolConformance::MarkClosed() { state_ = ProtocolState::kClosed; }

ProtocolStreamChecker::ProtocolStreamChecker(ProtocolDirection direction)
    : conformance_(direction) {}

ProtocolStreamChecker::ProtocolStreamChecker(ProtocolDirection direction,
                                             ProtocolState initial)
    : conformance_(direction, initial) {}

Status ProtocolStreamChecker::Append(const uint8_t* data, size_t size) {
  if (!error_.ok()) return error_;
  buffer_.insert(buffer_.end(), data, data + size);
  while (buffer_.size() - parse_offset_ >= 4) {
    const uint32_t length = DecodeLengthPrefix(buffer_.data() + parse_offset_);
    if (length > kMaxFramePayload) {
      conformance_.OnMalformedFrame();
      error_ = InvalidArgumentError("stream: frame payload exceeds limit");
      return error_;
    }
    if (buffer_.size() - parse_offset_ - 4 < length) break;
    Frame frame;
    Status decoded =
        DecodeFramePayload(buffer_.data() + parse_offset_ + 4, length, &frame);
    parse_offset_ += 4 + static_cast<size_t>(length);
    if (!decoded.ok()) {
      conformance_.OnMalformedFrame();
      error_ = decoded;
      return error_;
    }
    const ProtocolVerdict verdict = conformance_.OnFrame(frame);
    if (verdict != ProtocolVerdict::kAccept) {
      error_ = verdict == ProtocolVerdict::kVersionMismatch
                   ? FailedPreconditionError("stream: protocol version mismatch")
                   : InvalidArgumentError(
                         std::string("stream: protocol violation: ") +
                         WireInputName(WireInputOf(frame)) + " in state " +
                         ProtocolStateName(conformance_.state()));
      return error_;
    }
    ++frames_accepted_;
    // Compact once the consumed prefix dominates the buffer, so a long
    // adversarial stream costs O(bytes) total, not O(bytes^2).
    if (parse_offset_ >= 4096 && parse_offset_ * 2 >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<ptrdiff_t>(parse_offset_));
      parse_offset_ = 0;
    }
  }
  return Status::Ok();
}

}  // namespace dsgm
