// Model-checks the protocol conformance table of net/protocol_spec.h by
// exhaustive enumeration: the state space is tiny (4 states x 2 directions
// x 8 inputs = 64 cells), so instead of sampling behaviors we iterate all
// of them and prove the contract's load-bearing properties — totality,
// hello-before-anything, nothing-after-close, directional ownership, and
// reachability of every state. Below that, unit tests drive the
// ProtocolConformance validator (including the version check) and the
// ProtocolStreamChecker through legal and adversarial sequences.

#include "net/protocol_spec.h"

#include <cstdint>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "net/codec.h"

namespace dsgm {
namespace {

// --- Table enumeration ----------------------------------------------------

TEST(ProtocolSpecTable, EveryTripleHasADefinedVerdict) {
  int cells = 0;
  for (ProtocolState state : kAllProtocolStates) {
    for (ProtocolDirection direction : kAllProtocolDirections) {
      for (WireInput input : kAllWireInputs) {
        const FrameRule& rule = LookupRule(state, direction, input);
        // Totality: the verdict is one of the two table outcomes (the
        // kVersionMismatch refinement exists only in OnFrame), and a
        // violation always lands in the terminal state.
        EXPECT_TRUE(rule.verdict == ProtocolVerdict::kAccept ||
                    rule.verdict == ProtocolVerdict::kViolation)
            << ProtocolStateName(state) << " x "
            << ProtocolDirectionName(direction) << " x "
            << WireInputName(input);
        if (rule.verdict == ProtocolVerdict::kViolation) {
          EXPECT_EQ(rule.next, ProtocolState::kClosed)
              << "violations must be terminal: " << ProtocolStateName(state)
              << " x " << WireInputName(input);
        }
        ++cells;
      }
    }
  }
  EXPECT_EQ(cells, 4 * 2 * 8);
}

TEST(ProtocolSpecTable, HelloBeforeAnything) {
  // Only a site sends a hello: a coordinator's machine takes it first and
  // nothing before it. A site's machine starts kActive, so its
  // kAwaitingHello row accepts nothing at all.
  EXPECT_EQ(InitialProtocolState(ProtocolDirection::kSiteToCoordinator),
            ProtocolState::kAwaitingHello);
  EXPECT_EQ(InitialProtocolState(ProtocolDirection::kCoordinatorToSite),
            ProtocolState::kActive);
  for (ProtocolDirection direction : kAllProtocolDirections) {
    for (WireInput input : kAllWireInputs) {
      const FrameRule& rule =
          LookupRule(ProtocolState::kAwaitingHello, direction, input);
      if (direction == ProtocolDirection::kSiteToCoordinator &&
          input == WireInput::kInHello) {
        EXPECT_EQ(rule.verdict, ProtocolVerdict::kAccept);
        EXPECT_EQ(rule.next, ProtocolState::kActive);
      } else {
        EXPECT_EQ(rule.verdict, ProtocolVerdict::kViolation)
            << WireInputName(input) << " accepted awaiting a hello ("
            << ProtocolDirectionName(direction) << ")";
      }
    }
  }
}

TEST(ProtocolSpecTable, NothingAfterClose) {
  constexpr ProtocolDirection kS2C = ProtocolDirection::kSiteToCoordinator;
  constexpr ProtocolDirection kC2S = ProtocolDirection::kCoordinatorToSite;
  for (ProtocolDirection direction : kAllProtocolDirections) {
    for (WireInput input : kAllWireInputs) {
      EXPECT_EQ(LookupRule(ProtocolState::kClosed, direction, input).verdict,
                ProtocolVerdict::kViolation)
          << WireInputName(input) << " accepted in the terminal state";
    }
  }
  // After the site's terminal update-lane close only telemetry may follow:
  // the site lingers for the coordinator's hangup, and its heartbeat, stats
  // and trace drain are one frame.
  for (WireInput input : kAllWireInputs) {
    const FrameRule& rule =
        LookupRule(ProtocolState::kDraining, kS2C, input);
    if (input == WireInput::kInHeartbeat) {
      EXPECT_EQ(rule.verdict, ProtocolVerdict::kAccept);
      EXPECT_EQ(rule.next, ProtocolState::kDraining);
    } else {
      EXPECT_EQ(rule.verdict, ProtocolVerdict::kViolation)
          << WireInputName(input) << " after the update-lane close";
    }
  }
  // After the coordinator's command-lane close, event stragglers and
  // heartbeat echoes stay legal.
  for (WireInput input : {WireInput::kInEventBatch, WireInput::kInHeartbeat}) {
    EXPECT_EQ(LookupRule(ProtocolState::kDraining, kC2S, input).verdict,
              ProtocolVerdict::kAccept)
        << WireInputName(input) << " after the command-lane close";
  }
}

TEST(ProtocolSpecTable, CoordinatorNeverSendsACompressionEnvelope) {
  // v7 retired v6's compression envelope (tag 9 | varint raw size | LZ
  // block), so the table has no input for it. A coordinator stream that
  // wraps an event batch in one is malformed on a site's connection,
  // before and after the command-lane close, even though the cargo is
  // legal raw; the connection then accepts nothing more.
  std::vector<uint8_t> raw;
  AppendFrame(MakeFrame(EventBatch{}), &raw);
  const std::vector<uint8_t> cargo(raw.begin() + 4, raw.end());
  std::vector<uint8_t> wrapped = {
      static_cast<uint8_t>(cargo.size() + 3), 0, 0, 0, 9,
      static_cast<uint8_t>(cargo.size()),
      static_cast<uint8_t>(cargo.size() << 4)};
  wrapped.insert(wrapped.end(), cargo.begin(), cargo.end());
  for (ProtocolState state : {ProtocolState::kActive, ProtocolState::kDraining}) {
    SCOPED_TRACE(ProtocolStateName(state));
    ProtocolStreamChecker checker(ProtocolDirection::kCoordinatorToSite, state);
    ASSERT_TRUE(checker.Append(raw.data(), raw.size()).ok());
    EXPECT_FALSE(checker.Append(wrapped.data(), wrapped.size()).ok());
    EXPECT_EQ(checker.conformance().state(), ProtocolState::kClosed);
    EXPECT_EQ(checker.conformance().violations(), 1u);
    EXPECT_FALSE(checker.Append(raw.data(), raw.size()).ok());
    EXPECT_EQ(checker.frames_accepted(), 1u);
  }
}

TEST(ProtocolSpecTable, ExactlyOneHelloEver) {
  // A hello is legal in a coordinator's kAwaitingHello (checked above) and
  // nowhere else. A site's machine starts kActive (its own hello is the
  // whole handshake), so a hello from the coordinator is a violation at
  // every point of a real connection.
  for (ProtocolState state :
       {ProtocolState::kActive, ProtocolState::kDraining,
        ProtocolState::kClosed}) {
    for (ProtocolDirection direction : kAllProtocolDirections) {
      EXPECT_EQ(LookupRule(state, direction, WireInput::kInHello).verdict,
                ProtocolVerdict::kViolation)
          << "duplicate hello accepted in " << ProtocolStateName(state)
          << " (" << ProtocolDirectionName(direction) << ")";
    }
  }
}

TEST(ProtocolSpecTable, DirectionalOwnership) {
  constexpr ProtocolDirection kS2C = ProtocolDirection::kSiteToCoordinator;
  constexpr ProtocolDirection kC2S = ProtocolDirection::kCoordinatorToSite;
  // Frame kinds only the coordinator sends must never be accepted FROM a
  // site, in any state — and vice versa. Heartbeats are not on either list:
  // sites send them and the coordinator echoes them.
  const WireInput never_from_site[] = {
      WireInput::kInRoundAdvance, WireInput::kInEventBatch,
      WireInput::kInCloseCommands, WireInput::kInCloseEvents};
  const WireInput never_from_coordinator[] = {WireInput::kInUpdateBundle,
                                             WireInput::kInCloseUpdates};
  for (ProtocolState state : kAllProtocolStates) {
    for (WireInput input : never_from_site) {
      EXPECT_EQ(LookupRule(state, kS2C, input).verdict,
                ProtocolVerdict::kViolation)
          << "a site may not send " << WireInputName(input);
    }
    for (WireInput input : never_from_coordinator) {
      EXPECT_EQ(LookupRule(state, kC2S, input).verdict,
                ProtocolVerdict::kViolation)
          << "the coordinator may not send " << WireInputName(input);
    }
  }
}

TEST(ProtocolSpecTable, OutOfRangeVersionsRejectEverything) {
  // The table has no version axis; the hello's version claim is checked on
  // top of it. A hello claiming a version outside the one this build speaks
  // (the previous one and the next included) is never accepted — on a fresh
  // connection or on a running one — and the connection it arrives on
  // accepts nothing afterwards.
  for (uint8_t version :
       {uint8_t{0}, static_cast<uint8_t>(kProtocolVersion - 1),
        static_cast<uint8_t>(kProtocolVersion + 1), uint8_t{200},
        uint8_t{255}}) {
    for (ProtocolDirection direction : kAllProtocolDirections) {
      for (ProtocolState initial :
           {InitialProtocolState(direction), ProtocolState::kActive}) {
        SCOPED_TRACE(::testing::Message()
                     << "hello v" << int(version) << " "
                     << ProtocolDirectionName(direction) << " in "
                     << ProtocolStateName(initial));
        ProtocolConformance conformance(direction, initial);
        Frame hello = MakeHello(1);
        hello.protocol_version = version;
        EXPECT_NE(conformance.OnFrame(hello), ProtocolVerdict::kAccept);
        ASSERT_EQ(conformance.state(), ProtocolState::kClosed);
        for (WireInput input : kAllWireInputs) {
          EXPECT_EQ(LookupRule(conformance.state(), direction, input).verdict,
                    ProtocolVerdict::kViolation)
              << WireInputName(input);
        }
      }
    }
  }
}

TEST(ProtocolSpecTable, NoUnreachableStates) {
  // Fixed-point reachability from each direction's initial state: accept
  // edges plus the implicit violation edge to kClosed. Every state must be
  // reachable — an unreachable state would be dead spec — except
  // kAwaitingHello on a site's machine, which starts kActive because the
  // coordinator sends no hello.
  for (ProtocolDirection direction : kAllProtocolDirections) {
    std::set<ProtocolState> reached = {InitialProtocolState(direction)};
    bool grew = true;
    while (grew) {
      grew = false;
      for (ProtocolState state : kAllProtocolStates) {
        if (reached.count(state) == 0) continue;
        for (WireInput input : kAllWireInputs) {
          const FrameRule& rule = LookupRule(state, direction, input);
          if (reached.insert(rule.next).second) grew = true;
        }
      }
    }
    const bool hello_state =
        direction == ProtocolDirection::kSiteToCoordinator;
    EXPECT_EQ(reached.size(), kNumProtocolStates - (hello_state ? 0 : 1))
        << ProtocolDirectionName(direction) << " leaves states unreachable";
    EXPECT_EQ(reached.count(ProtocolState::kAwaitingHello) == 1, hello_state)
        << ProtocolDirectionName(direction);
    // And specifically: the happy path reaches Draining via an ACCEPT, not
    // just via violations.
    const WireInput terminal_close =
        direction == ProtocolDirection::kSiteToCoordinator
            ? WireInput::kInCloseUpdates
            : WireInput::kInCloseCommands;
    const FrameRule& rule =
        LookupRule(ProtocolState::kActive, direction, terminal_close);
    EXPECT_EQ(rule.verdict, ProtocolVerdict::kAccept);
    EXPECT_EQ(rule.next, ProtocolState::kDraining);
  }
}

TEST(ProtocolSpecTable, WireInputOfCoversEveryFrameKind) {
  EXPECT_EQ(WireInputOf(MakeFrame(UpdateBundle{})), WireInput::kInUpdateBundle);
  EXPECT_EQ(WireInputOf(MakeFrame(RoundAdvance{})), WireInput::kInRoundAdvance);
  EXPECT_EQ(WireInputOf(MakeFrame(EventBatch{})), WireInput::kInEventBatch);
  EXPECT_EQ(WireInputOf(MakeChannelClose(FrameType::kUpdateBundle)),
            WireInput::kInCloseUpdates);
  EXPECT_EQ(WireInputOf(MakeChannelClose(FrameType::kRoundAdvance)),
            WireInput::kInCloseCommands);
  EXPECT_EQ(WireInputOf(MakeChannelClose(FrameType::kEventBatch)),
            WireInput::kInCloseEvents);
  EXPECT_EQ(WireInputOf(MakeHello(0)), WireInput::kInHello);
  EXPECT_EQ(WireInputOf(MakeHeartbeat({})), WireInput::kInHeartbeat);
}

// --- ProtocolConformance --------------------------------------------------

TEST(ProtocolConformanceTest, HappyPathSiteToCoordinator) {
  MetricsRegistry::Global().ResetForTest();
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  EXPECT_EQ(conformance.state(), ProtocolState::kAwaitingHello);

  EXPECT_EQ(conformance.OnFrame(MakeHello(2)), ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.state(), ProtocolState::kActive);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(UpdateBundle{})),
            ProtocolVerdict::kAccept);
  SiteStatsReport stats;
  stats.events_processed = 9;
  TraceChunk chunk;
  chunk.events.push_back(TraceEvent{1, TraceEventType::kHeartbeat, 2, 1});
  EXPECT_EQ(conformance.OnFrame(MakeHeartbeat({}, stats, chunk)),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.OnFrame(MakeChannelClose(FrameType::kUpdateBundle)),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.state(), ProtocolState::kDraining);
  // Telemetry keeps flowing while the site lingers.
  EXPECT_EQ(conformance.OnFrame(MakeHeartbeat({}, stats, chunk)),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.violations(), 0u);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter(kProtocolViolationsMetric)
                ->Value(),
            0u);
}

TEST(ProtocolConformanceTest, UpdateAfterCloseIsAViolation) {
  MetricsRegistry::Global().ResetForTest();
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  ASSERT_EQ(conformance.OnFrame(MakeHello(0)), ProtocolVerdict::kAccept);
  ASSERT_EQ(conformance.OnFrame(MakeChannelClose(FrameType::kUpdateBundle)),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(UpdateBundle{})),
            ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.violations(), 1u);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter(kProtocolViolationsMetric)
                ->Value(),
            1u);
}

TEST(ProtocolConformanceTest, DuplicateHelloIsAViolation) {
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  ASSERT_EQ(conformance.OnFrame(MakeHello(0)), ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.OnFrame(MakeHello(0)), ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.violations(), 1u);
}

TEST(ProtocolConformanceTest, VersionMismatchIsDistinctButCounted) {
  MetricsRegistry::Global().ResetForTest();
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  Frame hello = MakeHello(0);
  hello.protocol_version = kProtocolVersion + 1;
  EXPECT_EQ(conformance.OnFrame(hello), ProtocolVerdict::kVersionMismatch);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.violations(), 1u);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter(kProtocolViolationsMetric)
                ->Value(),
            1u);
}

TEST(ProtocolConformanceTest, SiteConnectionStartsActiveAndDrains) {
  // The site's machine starts kActive: its own hello was the handshake.
  ProtocolConformance conformance(ProtocolDirection::kCoordinatorToSite);
  EXPECT_EQ(conformance.state(), ProtocolState::kActive);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(EventBatch{})),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(RoundAdvance{})),
            ProtocolVerdict::kAccept);
  // The coordinator's terminal act; event stragglers stay legal after it.
  EXPECT_EQ(conformance.OnFrame(MakeChannelClose(FrameType::kRoundAdvance)),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.state(), ProtocolState::kDraining);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(EventBatch{})),
            ProtocolVerdict::kAccept);
  EXPECT_EQ(conformance.OnFrame(MakeChannelClose(FrameType::kEventBatch)),
            ProtocolVerdict::kAccept);
  // But commands after the command-lane close are a violation.
  EXPECT_EQ(conformance.OnFrame(MakeFrame(RoundAdvance{})),
            ProtocolVerdict::kViolation);
}

TEST(ProtocolConformanceTest, MalformedFrameIsTerminal) {
  MetricsRegistry::Global().ResetForTest();
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator,
                                  ProtocolState::kActive);
  EXPECT_EQ(conformance.OnMalformedFrame(), ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(UpdateBundle{})),
            ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.violations(), 2u);
  EXPECT_EQ(MetricsRegistry::Global()
                .GetCounter(kProtocolViolationsMetric)
                ->Value(),
            2u);
}

TEST(ProtocolConformanceTest, MarkClosedIsNotAViolation) {
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator,
                                  ProtocolState::kActive);
  conformance.MarkClosed();
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.violations(), 0u);
  // But traffic after an orderly close still violates.
  EXPECT_EQ(conformance.OnFrame(MakeHeartbeat({})),
            ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.violations(), 1u);
}

// --- Versions ------------------------------------------------------------

TEST(ProtocolConformanceTest, AnyOtherHelloVersionIsAVersionMismatch) {
  // One wire version: a first hello claiming any other — older or newer —
  // is the same deployment error, counted and terminal.
  for (uint8_t version :
       {static_cast<uint8_t>(kProtocolVersion - 1), uint8_t{4}, uint8_t{0},
        uint8_t{255}, static_cast<uint8_t>(kProtocolVersion + 1)}) {
    SCOPED_TRACE(::testing::Message() << "hello v" << int(version));
    ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
    Frame hello = MakeHello(1);
    hello.protocol_version = version;
    EXPECT_EQ(conformance.OnFrame(hello), ProtocolVerdict::kVersionMismatch);
    EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
    EXPECT_EQ(conformance.violations(), 1u);
  }
}

TEST(ProtocolConformanceTest, TooOldHelloIsStillAVersionMismatch) {
  // v3 changed frame bodies, so a v3 hello is the same deployment error it
  // always was: reported as a mismatch, not dropped as line noise.
  ProtocolConformance conformance(ProtocolDirection::kSiteToCoordinator);
  Frame hello = MakeHello(0);
  hello.protocol_version = 3;
  EXPECT_EQ(conformance.OnFrame(hello), ProtocolVerdict::kVersionMismatch);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
}

TEST(ProtocolConformanceTest, CoordinatorHelloIsAViolationOnASiteConnection) {
  // The coordinator sends no hello. One arriving on a site's connection is
  // an ordinary violation, whatever version it claims (it is not a
  // deployment error to report), before and after the command-lane close.
  for (uint8_t version : {kProtocolVersion, uint8_t{6}}) {
    for (bool draining : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "hello v" << int(version)
                                        << (draining ? " draining" : ""));
      ProtocolConformance conformance(ProtocolDirection::kCoordinatorToSite,
                                      ProtocolState::kActive);
      if (draining) {
        ASSERT_EQ(
            conformance.OnFrame(MakeChannelClose(FrameType::kRoundAdvance)),
            ProtocolVerdict::kAccept);
      }
      Frame hello = MakeHello(0);
      hello.protocol_version = version;
      EXPECT_EQ(conformance.OnFrame(hello), ProtocolVerdict::kViolation);
      EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
      EXPECT_EQ(conformance.violations(), 1u);
    }
  }
}

TEST(ProtocolConformanceTest, ReplyHelloClaimingAncientVersionIsTerminal) {
  // v6's coordinator answered a site's hello with a reply-hello; v7's sends
  // none. One claiming an ancient version is an ordinary violation, not a
  // version mismatch, and the site's connection accepts nothing after it.
  ProtocolConformance conformance(ProtocolDirection::kCoordinatorToSite,
                                  ProtocolState::kActive);
  Frame hello = MakeHello(0);
  hello.protocol_version = 2;
  EXPECT_EQ(conformance.OnFrame(hello), ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.state(), ProtocolState::kClosed);
  EXPECT_EQ(conformance.OnFrame(MakeFrame(EventBatch{})),
            ProtocolVerdict::kViolation);
  EXPECT_EQ(conformance.violations(), 2u);
}

TEST(ProtocolConformanceTest, ForgedCompressedFlagFromV4PeerIsTerminal) {
  // A v4 peer's hello inside v6's compression envelope (tag 9, retired in
  // v7) is a malformed first frame: an ordinary violation, not a version
  // mismatch the transport would report as a deployment error. Terminal:
  // the peer's next, well-formed hello is rejected too.
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  const std::vector<uint8_t> v4_hello = {
      static_cast<uint8_t>(FrameType::kHello), 4,
      static_cast<uint8_t>(ZigzagEncode(1))};
  std::vector<uint8_t> wrapped = {6, 0, 0, 0, 9, 3, 0x30};
  wrapped.insert(wrapped.end(), v4_hello.begin(), v4_hello.end());
  const Status status = checker.Append(wrapped.data(), wrapped.size());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_EQ(checker.conformance().state(), ProtocolState::kClosed);
  EXPECT_EQ(checker.conformance().violations(), 1u);
  std::vector<uint8_t> hello;
  AppendFrame(MakeHello(1), &hello);
  EXPECT_FALSE(checker.Append(hello.data(), hello.size()).ok());
  EXPECT_EQ(checker.frames_accepted(), 0u);
}

// --- ProtocolStreamChecker ------------------------------------------------

std::vector<uint8_t> EncodeStream(const std::vector<Frame>& frames) {
  std::vector<uint8_t> bytes;
  for (const Frame& frame : frames) AppendFrame(frame, &bytes);
  return bytes;
}

TEST(ProtocolStreamCheckerTest, AcceptsALegalSiteStream) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  bundle.site = 1;
  bundle.round = 3;
  bundle.reports.push_back({7, 42});
  SiteStatsReport stats;
  stats.events_processed = 64;
  TraceChunk chunk;
  chunk.events.push_back(
      TraceEvent{/*t_nanos=*/123, TraceEventType::kHeartbeat, 1, 0});
  const std::vector<uint8_t> bytes = EncodeStream(
      {MakeHello(1), MakeFrame(bundle), MakeHeartbeat({}),
       MakeHeartbeat({}, stats), MakeHeartbeat({}, stats, chunk),
       MakeChannelClose(FrameType::kUpdateBundle), MakeHeartbeat({})});

  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  // Feed byte-by-byte: frame boundaries must not matter.
  for (uint8_t byte : bytes) ASSERT_TRUE(checker.Append(&byte, 1).ok());
  EXPECT_EQ(checker.frames_accepted(), 7u);
  EXPECT_EQ(checker.conformance().state(), ProtocolState::kDraining);
  EXPECT_EQ(checker.conformance().violations(), 0u);
}

TEST(ProtocolStreamCheckerTest, RejectsSyncBeforeHello) {
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kSync;
  const std::vector<uint8_t> bytes = EncodeStream({MakeFrame(bundle)});
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  const Status status = checker.Append(bytes.data(), bytes.size());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(checker.conformance().violations(), 1u);
  // The first error is sticky: more bytes do not resurrect the stream.
  const std::vector<uint8_t> more = EncodeStream({MakeHello(0)});
  EXPECT_FALSE(checker.Append(more.data(), more.size()).ok());
  EXPECT_EQ(checker.frames_accepted(), 0u);
}

TEST(ProtocolStreamCheckerTest, RejectsMalformedBytes) {
  // A length prefix promising 5 bytes of an unknown frame type.
  const std::vector<uint8_t> bytes = {5, 0, 0, 0, 99, 1, 2, 3, 4};
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  EXPECT_FALSE(checker.Append(bytes.data(), bytes.size()).ok());
  EXPECT_EQ(checker.conformance().violations(), 1u);
}

TEST(ProtocolStreamCheckerTest, RejectsOversizedLengthPrefix) {
  const std::vector<uint8_t> bytes = {0xff, 0xff, 0xff, 0xff};
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  const Status status = checker.Append(bytes.data(), bytes.size());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(checker.conformance().state(), ProtocolState::kClosed);
}

TEST(ProtocolStreamCheckerTest, ReportsVersionMismatchDistinctly) {
  Frame hello = MakeHello(0);
  hello.protocol_version = 9;
  const std::vector<uint8_t> bytes = EncodeStream({hello});
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  EXPECT_EQ(checker.Append(bytes.data(), bytes.size()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProtocolStreamCheckerTest, LongStreamStaysLinear) {
  // Exercises the internal compaction: many small frames through a checker
  // must all be parsed (the test bound is correctness; the compaction keeps
  // it from going quadratic).
  ProtocolStreamChecker checker(ProtocolDirection::kSiteToCoordinator);
  std::vector<uint8_t> bytes = EncodeStream({MakeHello(0)});
  ASSERT_TRUE(checker.Append(bytes.data(), bytes.size()).ok());
  UpdateBundle bundle;
  bundle.kind = UpdateBundle::Kind::kReports;
  bundle.site = 0;
  bytes = EncodeStream({MakeFrame(bundle)});
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(checker.Append(bytes.data(), bytes.size()).ok());
  }
  EXPECT_EQ(checker.frames_accepted(), 20001u);
}

}  // namespace
}  // namespace dsgm
