// Handler-level unit tests of TwoBitProcess: messages are injected directly
// through a mock NetworkContext and every send is inspected. This pins the
// per-line behaviour of Fig. 1 (parking, R1 forward sets, R2 catch-ups,
// parked-read release) without a simulator in the loop.
#include <gtest/gtest.h>

#include "core/twobit_process.hpp"

namespace tbr {
namespace {

class MockContext final : public NetworkContext {
 public:
  MockContext(ProcessId self, std::uint32_t n) : self_(self), n_(n) {}

  void send(ProcessId to, const Message& msg) override {
    TBR_ENSURE(to < n_ && to != self_, "mock: bad destination");
    sent.push_back({to, msg});
  }
  ProcessId self() const override { return self_; }
  std::uint32_t process_count() const override { return n_; }
  Tick now() const override { return 0; }

  struct Sent {
    ProcessId to;
    Message msg;
  };
  std::vector<Sent> sent;

  std::vector<Sent> take() {
    auto out = std::move(sent);
    sent.clear();
    return out;
  }

 private:
  ProcessId self_;
  std::uint32_t n_;
};

GroupConfig cfg5() {
  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

Message write_frame(SeqNo index, std::int64_t value) {
  Message msg;
  msg.type = static_cast<std::uint8_t>(index % 2 == 0 ? TwoBitType::kWrite0
                                                      : TwoBitType::kWrite1);
  msg.has_value = true;
  msg.value = Value::from_int64(value);
  msg.debug_index = index;
  return msg;
}

Message control_frame(TwoBitType type) {
  Message msg;
  msg.type = static_cast<std::uint8_t>(type);
  return msg;
}

// ---- write path -----------------------------------------------------------------

TEST(TwoBitUnit, WriterFirstWriteBroadcastsToAll) {
  MockContext net(0, 5);
  TwoBitProcess writer(cfg5(), 0);
  bool done = false;
  writer.start_write(net, Value::from_int64(7), [&] { done = true; });
  EXPECT_FALSE(done);  // quorum is 3; only self so far
  const auto sent = net.take();
  ASSERT_EQ(sent.size(), 4u);  // line 2: everyone at wsn-1
  for (const auto& s : sent) {
    EXPECT_EQ(s.msg.type, static_cast<std::uint8_t>(TwoBitType::kWrite1));
    EXPECT_EQ(s.msg.value.to_int64(), 7);
  }
  EXPECT_EQ(writer.wsync(0), 1);
}

TEST(TwoBitUnit, WriteCompletesOnEchoQuorum) {
  MockContext net(0, 5);
  TwoBitProcess writer(cfg5(), 0);
  bool done = false;
  writer.start_write(net, Value::from_int64(7), [&] { done = true; });
  net.take();
  // Echoes arrive from p1 and p2: with self that is the n-t = 3 quorum.
  writer.on_message(net, 1, write_frame(1, 7));
  EXPECT_FALSE(done);
  writer.on_message(net, 2, write_frame(1, 7));
  EXPECT_TRUE(done);
  EXPECT_EQ(writer.wsync(1), 1);
  EXPECT_EQ(writer.wsync(2), 1);
  EXPECT_EQ(writer.wsync(3), 0);  // no echo from p3/p4 yet
}

TEST(TwoBitUnit, SecondWriteOnlyTargetsCaughtUpPeers) {
  MockContext net(0, 5);
  TwoBitProcess writer(cfg5(), 0);
  bool done = false;
  writer.start_write(net, Value::from_int64(1), [&] { done = true; });
  net.take();
  writer.on_message(net, 1, write_frame(1, 1));
  writer.on_message(net, 2, write_frame(1, 1));
  ASSERT_TRUE(done);
  net.take();  // (no sends expected, but clear anyway)

  writer.start_write(net, Value::from_int64(2), [] {});
  const auto sent = net.take();
  // line 2: only p1 and p2 are at wsn-1 = 1; p3/p4 never echoed value 1.
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0].to, 1u);
  EXPECT_EQ(sent[1].to, 2u);
  EXPECT_EQ(sent[0].msg.type, static_cast<std::uint8_t>(TwoBitType::kWrite0));
}

// ---- reception: R1 forwarding ------------------------------------------------------

TEST(TwoBitUnit, FirstValueForwardedToAllIncludingSender) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(1, 7));
  const auto sent = net.take();
  // Line 15: every ℓ with w_sync[ℓ] = 0 — that is p0 (the echo/ack), p2,
  // p3, p4. Four frames.
  ASSERT_EQ(sent.size(), 4u);
  std::vector<ProcessId> dests;
  for (const auto& s : sent) dests.push_back(s.to);
  EXPECT_EQ(dests, (std::vector<ProcessId>{0, 2, 3, 4}));
  EXPECT_EQ(p1.wsync(1), 1);
  EXPECT_EQ(p1.wsync(0), 1);  // line 18
  EXPECT_EQ(p1.history().back().to_int64(), 7);
}

TEST(TwoBitUnit, DuplicateValueNotForwardedAgain) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(1, 7));
  net.take();
  // p2 forwards the same value: wsn == w_sync[self], no R1, no R2.
  p1.on_message(net, 2, write_frame(1, 7));
  EXPECT_TRUE(net.take().empty());
  EXPECT_EQ(p1.wsync(2), 1);  // line 18 still ran
}

// ---- reception: line 11 parking -----------------------------------------------------

TEST(TwoBitUnit, OutOfParityFrameParksUntilPredecessor) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  // Value #2 (WRITE0) overtakes value #1 (WRITE1) on the channel from p0.
  p1.on_message(net, 0, write_frame(2, 20));
  EXPECT_TRUE(p1.has_parked_write(0));
  EXPECT_EQ(p1.wsync(0), 0);  // nothing processed yet
  EXPECT_TRUE(net.take().empty());

  // The predecessor arrives: both process, in order.
  p1.on_message(net, 0, write_frame(1, 10));
  EXPECT_FALSE(p1.has_parked_write(0));
  EXPECT_EQ(p1.wsync(0), 2);
  EXPECT_EQ(p1.wsync(1), 2);
  const auto hist = p1.history();
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[1].to_int64(), 10);
  EXPECT_EQ(hist[2].to_int64(), 20);
  // Forwards went out for both values — but with view-scoped fan-out:
  // value 1 to the four peers at level 0; value 2 only to p0, the single
  // peer p1 believes has value 1 (the rest catch up via R2 later).
  const auto sent = net.take();
  ASSERT_EQ(sent.size(), 5u);
  int value2_frames = 0;
  for (const auto& s : sent) {
    if (s.msg.debug_index == 2) {
      ++value2_frames;
      EXPECT_EQ(s.to, 0u);
    }
  }
  EXPECT_EQ(value2_frames, 1);
}

TEST(TwoBitUnit, DoubleBypassViolatesP1AndIsCaught) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(2, 20));  // parked
  // A third frame with the same wrong parity cannot occur under the
  // alternating-bit discipline; injecting one must trip the P1 contract.
  EXPECT_THROW(p1.on_message(net, 0, write_frame(4, 40)), ContractViolation);
}

// ---- reception: R2 catch-up -----------------------------------------------------------

TEST(TwoBitUnit, LaggingSenderGetsItsNextValue) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  // p1 learns values 1..3 from p0.
  for (SeqNo k = 1; k <= 3; ++k) {
    p1.on_message(net, 0, write_frame(k, k * 10));
  }
  net.take();
  // p4 only now echoes value 1 (it lags): R2 answers with value 2 only.
  p1.on_message(net, 4, write_frame(1, 10));
  const auto sent = net.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, 4u);
  EXPECT_EQ(sent[0].msg.debug_index, 2);
  EXPECT_EQ(sent[0].msg.value.to_int64(), 20);
  EXPECT_EQ(p1.wsync(4), 1);  // line 18
}

TEST(TwoBitUnit, CatchUpChainWalksTheWholeHistory) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  for (SeqNo k = 1; k <= 4; ++k) {
    p1.on_message(net, 0, write_frame(k, k * 10));
  }
  net.take();
  // p4 echoes 1, 2, 3 in turn; each R2 reply hands it the next value.
  for (SeqNo k = 1; k <= 3; ++k) {
    p1.on_message(net, 4, write_frame(k, k * 10));
    const auto sent = net.take();
    ASSERT_EQ(sent.size(), 1u) << "k=" << k;
    EXPECT_EQ(sent[0].msg.debug_index, k + 1);
  }
  EXPECT_EQ(p1.wsync(4), 3);
}

// ---- READ / PROCEED ----------------------------------------------------------------------

TEST(TwoBitUnit, FreshReaderGetsImmediateProceed) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(1, 10));
  net.take();
  // p0 is known fresh (w_sync[0] = 1 = our own level): PROCEED at once.
  p1.on_message(net, 0, control_frame(TwoBitType::kRead));
  const auto sent = net.take();
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].to, 0u);
  EXPECT_EQ(sent[0].msg.type, static_cast<std::uint8_t>(TwoBitType::kProceed));
}

TEST(TwoBitUnit, StaleReaderParksUntilItCatchesUp) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(1, 10));
  net.take();
  // p3 (whose view we hold at 0) asks to read: freshness says wait.
  p1.on_message(net, 3, control_frame(TwoBitType::kRead));
  EXPECT_TRUE(net.take().empty());
  EXPECT_EQ(p1.parked_read_count(), 1u);
  // p3's echo of value 1 arrives: the parked READ releases.
  p1.on_message(net, 3, write_frame(1, 10));
  const auto sent = net.take();
  EXPECT_EQ(p1.parked_read_count(), 0u);
  ASSERT_FALSE(sent.empty());
  bool proceed_to_p3 = false;
  for (const auto& s : sent) {
    if (s.to == 3 &&
        s.msg.type == static_cast<std::uint8_t>(TwoBitType::kProceed)) {
      proceed_to_p3 = true;
    }
  }
  EXPECT_TRUE(proceed_to_p3);
}

TEST(TwoBitUnit, ProceedIncrementsRsync) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  EXPECT_EQ(p1.rsync(2), 0);
  p1.on_message(net, 2, control_frame(TwoBitType::kProceed));
  EXPECT_EQ(p1.rsync(2), 1);
  p1.on_message(net, 2, control_frame(TwoBitType::kProceed));
  EXPECT_EQ(p1.rsync(2), 2);
}

TEST(TwoBitUnit, ReadRunsTwoStagesAgainstQuorum) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_message(net, 0, write_frame(1, 10));
  net.take();

  Value seen;
  SeqNo idx = -1;
  bool done = false;
  p1.start_read(net, [&](const Value& v, SeqNo i) {
    seen = v;
    idx = i;
    done = true;
  });
  const auto reads = net.take();
  ASSERT_EQ(reads.size(), 4u);  // line 6: READ to everyone else
  // Two PROCEEDs complete stage 1 (self + 2 = quorum 3); stage 2 needs
  // n-t processes with w_sync >= 1 — currently only self and p0.
  p1.on_message(net, 0, control_frame(TwoBitType::kProceed));
  p1.on_message(net, 2, control_frame(TwoBitType::kProceed));
  EXPECT_FALSE(done);
  // p2's echo of value 1 raises w_sync[2] to 1: stage 2 quorum complete.
  p1.on_message(net, 2, write_frame(1, 10));
  ASSERT_TRUE(done);
  EXPECT_EQ(seen.to_int64(), 10);
  EXPECT_EQ(idx, 1);
}

TEST(TwoBitUnit, ReadOfInitialValueNeedsNoWrites) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  bool done = false;
  p1.start_read(net, [&](const Value& v, SeqNo i) {
    EXPECT_EQ(v.to_int64(), 0);
    EXPECT_EQ(i, 0);
    done = true;
  });
  net.take();
  p1.on_message(net, 0, control_frame(TwoBitType::kProceed));
  EXPECT_FALSE(done);
  p1.on_message(net, 2, control_frame(TwoBitType::kProceed));
  // Stage 2 for sn = 0 is trivially satisfied by everyone.
  EXPECT_TRUE(done);
}

TEST(TwoBitUnit, ReadValueOutlivesAReentrantWriteAndRead) {
  // The value a read hands its callback must hold for the whole callback,
  // even when the callback writes and reads again at the same process. A
  // lone writer with fast reads completes both synchronously, inside it.
  GroupConfig cfg;
  cfg.n = 1;
  cfg.t = 0;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(7);
  cfg.writer_fast_read = true;
  MockContext net(0, 1);
  TwoBitProcess p(cfg, 0);
  std::int64_t inner = -1;
  std::int64_t outer_after = -1;
  p.start_read(net, [&](const Value& v, SeqNo) {
    bool wrote = false;
    p.start_write(net, Value::from_int64(8), [&] { wrote = true; });
    ASSERT_TRUE(wrote);
    p.start_read(net, [&](const Value& w, SeqNo) { inner = w.to_int64(); });
    outer_after = v.to_int64();
  });
  EXPECT_EQ(inner, 8);
  EXPECT_EQ(outer_after, 7);
}

// ---- misc ------------------------------------------------------------------------------------

TEST(TwoBitUnit, CrashedProcessRejectsDeliveries) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  p1.on_crash();
  EXPECT_TRUE(p1.crashed());
  EXPECT_THROW(p1.on_message(net, 0, write_frame(1, 10)), ContractViolation);
}

TEST(TwoBitUnit, MessagesFromSelfRejected) {
  MockContext net(1, 5);
  TwoBitProcess p1(cfg5(), 1);
  EXPECT_THROW(p1.on_message(net, 1, write_frame(1, 10)), ContractViolation);
}

TEST(TwoBitUnit, WriteFramesCountedPerDestination) {
  MockContext net(0, 5);
  TwoBitProcess writer(cfg5(), 0);
  writer.start_write(net, Value::from_int64(1), [] {});
  EXPECT_EQ(writer.write_frames_sent_to(1), 1);
  EXPECT_EQ(writer.write_frames_sent_to(4), 1);
  writer.on_message(net, 1, write_frame(1, 1));
  writer.on_message(net, 2, write_frame(1, 1));
  writer.start_write(net, Value::from_int64(2), [] {});
  EXPECT_EQ(writer.write_frames_sent_to(1), 2);
  EXPECT_EQ(writer.write_frames_sent_to(4), 1);  // p4 still at value 0
}

}  // namespace
}  // namespace tbr
