// Trace tests: the recorded protocol events must reproduce the paper's
// dissemination pattern exactly (Theorem 2's counting, hop by hop).
#include <gtest/gtest.h>

#include "core/twobit_codec.hpp"
#include "sim/trace.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = 1000;

SimRegisterGroup make_group(std::uint32_t n) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = (n - 1) / 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_constant_delay(kDelta);
  return SimRegisterGroup(std::move(opt));
}

TEST(TraceTest, WriteDisseminationPattern) {
  auto group = make_group(3);
  TraceLog trace;
  group.net().set_trace(&trace);
  group.client().write_sync(Value::from_int64(10));
  group.settle();

  const auto sends = trace.of_kind(TraceEvent::Kind::kSend);
  // n(n-1) = 6 WRITE frames, all for value #1, all parity WRITE1.
  ASSERT_EQ(sends.size(), 6u);
  for (const auto& e : sends) {
    EXPECT_EQ(e.type, static_cast<std::uint8_t>(TwoBitType::kWrite1));
    EXPECT_EQ(e.debug_index, 1);
    EXPECT_TRUE(e.has_value);
  }
  // Hop 1: the writer's two frames at t=0; hop 2: the four forwards at Δ.
  EXPECT_EQ(sends[0].at, 0);
  EXPECT_EQ(sends[0].from, 0u);
  EXPECT_EQ(sends[1].at, 0);
  EXPECT_EQ(sends[1].from, 0u);
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(sends[i].at, kDelta);
    EXPECT_NE(sends[i].from, 0u);
  }
  // Every frame is delivered (no drops), by 2Δ.
  const auto delivers = trace.of_kind(TraceEvent::Kind::kDeliver);
  ASSERT_EQ(delivers.size(), 6u);
  EXPECT_TRUE(trace.of_kind(TraceEvent::Kind::kDrop).empty());
  EXPECT_EQ(delivers.back().at, 2 * kDelta);
}

TEST(TraceTest, ParityAlternatesAcrossWrites) {
  auto group = make_group(3);
  TraceLog trace;
  group.net().set_trace(&trace);
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  group.client().write_sync(Value::from_int64(2));
  group.settle();
  group.client().write_sync(Value::from_int64(3));
  group.settle();

  for (const auto& e : trace.of_kind(TraceEvent::Kind::kSend)) {
    if (e.type > 1) continue;  // only WRITE frames carry parity
    // WRITE1 for odd indices, WRITE0 for even: the alternating bit.
    EXPECT_EQ(e.type, static_cast<std::uint8_t>(e.debug_index % 2))
        << "value #" << e.debug_index;
  }
}

TEST(TraceTest, ReadHandshakeSequence) {
  auto group = make_group(3);
  TraceLog trace;
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  group.net().set_trace(&trace);
  group.client().read_sync(2);
  group.settle();

  const auto sends = trace.of_kind(TraceEvent::Kind::kSend);
  ASSERT_EQ(sends.size(), 4u);  // 2 READ out, 2 PROCEED back
  EXPECT_EQ(sends[0].type, static_cast<std::uint8_t>(TwoBitType::kRead));
  EXPECT_EQ(sends[1].type, static_cast<std::uint8_t>(TwoBitType::kRead));
  EXPECT_EQ(sends[2].type, static_cast<std::uint8_t>(TwoBitType::kProceed));
  EXPECT_EQ(sends[3].type, static_cast<std::uint8_t>(TwoBitType::kProceed));
  for (const auto& e : sends) EXPECT_FALSE(e.has_value);
}

TEST(TraceTest, CrashAndDropRecorded) {
  auto group = make_group(3);
  TraceLog trace;
  group.net().set_trace(&trace);
  group.crash(2);
  group.client().write_sync(Value::from_int64(1));
  group.settle();

  const auto crashes = trace.of_kind(TraceEvent::Kind::kCrash);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].from, 2u);
  // Frames addressed to the dead process are recorded as drops.
  EXPECT_FALSE(trace.of_kind(TraceEvent::Kind::kDrop).empty());
}

TEST(TraceTest, RenderBlamesOnlyCrashDropsOnTheCrash) {
  // A drop at a crashed receiver names the crash.
  {
    auto group = make_group(3);
    TraceLog trace;
    group.net().set_trace(&trace);
    group.crash(2);
    group.client().write_sync(Value::from_int64(1));
    group.settle();
    const auto text = trace.render(twobit_codec(), kDelta);
    EXPECT_NE(text.find("-> p2  WRITE1 (receiver crashed)"),
              std::string::npos)
        << text;
  }
  // Out-of-model loss drops frames at live receivers: no crash to blame.
  {
    SimRegisterGroup::Options opt;
    opt.cfg.n = 3;
    opt.cfg.t = 1;
    opt.cfg.writer = 0;
    opt.cfg.initial = Value::from_int64(0);
    opt.algo = Algorithm::kTwoBit;
    opt.loss_rate = 0.5;
    opt.seed = 3;
    SimRegisterGroup group(std::move(opt));
    TraceLog trace;
    group.net().set_trace(&trace);
    group.client().write(Value::from_int64(1), [](const OpResult&) {});
    (void)group.net().run(10000);
    ASSERT_EQ(group.net().crash_count(), 0u);
    ASSERT_GT(group.net().frames_lost(), 0u);
    const auto text = trace.render(twobit_codec(), kDelta);
    EXPECT_NE(text.find("(dropped)"), std::string::npos) << text;
    EXPECT_EQ(text.find("receiver crashed"), std::string::npos) << text;
  }
}

TEST(TraceTest, RenderContainsTypeNamesAndTimes) {
  auto group = make_group(3);
  TraceLog trace;
  group.net().set_trace(&trace);
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  const auto text = trace.render(twobit_codec(), kDelta);
  EXPECT_NE(text.find("WRITE1"), std::string::npos);
  EXPECT_NE(text.find("send"), std::string::npos);
  EXPECT_NE(text.find("deliver"), std::string::npos);
  EXPECT_NE(text.find("[value #1]"), std::string::npos);
  EXPECT_NE(text.find("1.00D"), std::string::npos);
}

TEST(TraceTest, DetachStopsRecording) {
  auto group = make_group(3);
  TraceLog trace;
  group.net().set_trace(&trace);
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  const auto before = trace.size();
  group.net().set_trace(nullptr);
  group.client().write_sync(Value::from_int64(2));
  group.settle();
  EXPECT_EQ(trace.size(), before);
}

}  // namespace
}  // namespace tbr
