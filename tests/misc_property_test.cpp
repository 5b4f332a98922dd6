// Cross-cutting property tests: codec fuzzing (malformed frames must throw,
// valid frames must round-trip), non-default writer placement, larger
// groups, and empty-payload values end to end.
#include <gtest/gtest.h>

#include "abd/phased_codec.hpp"
#include "common/rng.hpp"
#include "core/twobit_codec.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

// ---- codec fuzz -------------------------------------------------------------

class CodecFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, GarbageNeverCrashesTwoBitDecode) {
  Rng rng(GetParam());
  const auto& codec = twobit_codec();
  for (int trial = 0; trial < 2000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 64));
    std::string bytes(len, '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.uniform(0, 255));
    try {
      const Message msg = codec.decode(bytes);
      // If it parsed, it must re-encode to the same bytes (canonical form).
      EXPECT_EQ(codec.encode(msg), bytes);
    } catch (const ContractViolation&) {
      // rejected: fine
    }
  }
}

TEST_P(CodecFuzz, GarbageNeverCrashesPhasedDecode) {
  Rng rng(GetParam());
  const PhasedCodec codec(abd_unbounded_spec(), 5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform(0, 80));
    std::string bytes(len, '\0');
    for (auto& c : bytes) c = static_cast<char>(rng.uniform(0, 255));
    try {
      (void)codec.decode(bytes);
    } catch (const ContractViolation&) {
    }
  }
}

TEST_P(CodecFuzz, RandomValidTwoBitFramesRoundTrip) {
  Rng rng(GetParam());
  const auto& codec = twobit_codec();
  for (int trial = 0; trial < 500; ++trial) {
    Message msg;
    msg.type = static_cast<std::uint8_t>(rng.uniform(0, 3));
    if (msg.type <= 1) {
      msg.has_value = true;
      msg.value =
          Value::filler(static_cast<std::size_t>(rng.uniform(0, 300)),
                        static_cast<std::uint8_t>(rng.uniform(0, 255)));
    }
    const Message back = codec.decode(codec.encode(msg));
    EXPECT_EQ(back.type, msg.type);
    EXPECT_EQ(back.has_value, msg.has_value);
    EXPECT_EQ(back.value, msg.value);
  }
}

TEST_P(CodecFuzz, RandomValidPhasedFramesRoundTrip) {
  Rng rng(GetParam());
  const PhasedCodec codec(attiya_spec(), 7);
  for (int trial = 0; trial < 500; ++trial) {
    Message msg;
    msg.type = static_cast<std::uint8_t>(rng.uniform(0, 3));
    msg.aux = rng.uniform(0, 1'000'000);
    msg.seq = rng.uniform(0, 1'000'000);
    if (rng.chance(0.5)) {
      msg.has_value = true;
      msg.value =
          Value::filler(static_cast<std::size_t>(rng.uniform(0, 100)));
    }
    const Message back = codec.decode(codec.encode(msg));
    EXPECT_EQ(back.type, msg.type);
    EXPECT_EQ(back.aux, msg.aux);
    EXPECT_EQ(back.seq, msg.seq);
    EXPECT_EQ(back.has_value, msg.has_value);
    EXPECT_EQ(back.value, msg.value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, testing::Range<std::uint64_t>(0, 4));

// ---- writer placement ------------------------------------------------------------

class WriterPlacement : public testing::TestWithParam<ProcessId> {};

TEST_P(WriterPlacement, AnyProcessCanBeTheWriter) {
  const ProcessId writer = GetParam();
  SimRegisterGroup::Options engine;
  engine.cfg.n = 5;
  engine.cfg.t = 2;
  engine.cfg.writer = writer;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = 11 + writer;
  WorkloadOptions opt;
  opt.ops_per_process = 10;
  opt.invariant_checks = true;
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  // Only the configured writer wrote.
  for (const auto& op : result.ops) {
    if (op.kind == OpRecord::Kind::kWrite) {
      EXPECT_EQ(op.proc, writer);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, WriterPlacement,
                         testing::Values(0u, 2u, 4u));

// ---- scale ------------------------------------------------------------------------

TEST(Scale, TwentyOneProcessesStayAtomicAndLive) {
  SimRegisterGroup::Options engine;
  engine.cfg.n = 21;
  engine.cfg.t = 10;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = 5;
  WorkloadOptions opt;
  opt.ops_per_process = 6;
  opt.crashes = 10;  // the full fault budget
  opt.crash_horizon = 30'000;
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Scale, MessageBudgetScalesQuadraticallyAtN33) {
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 33;
  gopt.cfg.t = 16;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.algo = Algorithm::kTwoBit;
  SimRegisterGroup group(std::move(gopt));
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  const auto before = group.net().stats().snapshot();
  group.client().write_sync(Value::from_int64(2));
  group.settle();
  EXPECT_EQ(group.net().stats().diff_since(before).total_sent(),
            33ull * 32ull);
}

// ---- value payload edges --------------------------------------------------------------

TEST(PayloadEdges, EmptyValuesFlowThroughEveryAlgorithm) {
  for (const auto algo : all_algorithms()) {
    SimRegisterGroup::Options gopt;
    gopt.cfg.n = 3;
    gopt.cfg.t = 1;
    gopt.cfg.writer = 0;
    gopt.cfg.initial = Value();  // empty initial value
    gopt.algo = algo;
    SimRegisterGroup group(std::move(gopt));
    EXPECT_TRUE(group.client().read_sync(1).value.empty()) << algorithm_name(algo);
    group.client().write_sync(Value());  // writing an empty value is legal
    const auto out = group.client().read_sync(2);
    EXPECT_TRUE(out.value.empty()) << algorithm_name(algo);
    EXPECT_EQ(out.version, 1) << algorithm_name(algo);
  }
}

TEST(PayloadEdges, LargePayloadsAccountedInDataPlane) {
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 3;
  gopt.cfg.t = 1;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.algo = Algorithm::kTwoBit;
  SimRegisterGroup group(std::move(gopt));
  group.client().write_sync(Value::filler(100'000));
  group.settle();
  // Control stays 2 bits regardless of payload size.
  EXPECT_EQ(group.net().stats().max_control_bits_per_msg(), 2u);
  EXPECT_GT(group.net().stats().total_data_bits(), 6ull * 100'000 * 8);
}

// ---- cross-algorithm determinism --------------------------------------------------------

TEST(Determinism, WholeWorkloadsAreSeedDeterministicPerAlgorithm) {
  for (const auto algo : all_algorithms()) {
    const auto run = [algo] {
      SimRegisterGroup::Options engine;
      engine.cfg.n = 5;
      engine.cfg.t = 2;
      engine.cfg.writer = 0;
      engine.cfg.initial = Value::from_int64(0);
      engine.algo = algo;
      engine.seed = 77;
      WorkloadOptions opt;
      opt.ops_per_process = 6;
      return run_workload(std::move(engine), opt);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.duration, b.duration) << algorithm_name(algo);
    EXPECT_EQ(a.stats.total_sent(), b.stats.total_sent())
        << algorithm_name(algo);
  }
}

}  // namespace
}  // namespace tbr
