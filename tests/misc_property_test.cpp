// Cross-cutting property tests: codec fuzzing (malformed frames must throw
// or round-trip) and each codec's declared frame overhead, non-default
// writer placement, larger groups, and empty-payload values end to end.
#include <gtest/gtest.h>

#include <algorithm>

#include "abd/phased_codec.hpp"
#include "abd/specs.hpp"
#include "common/rng.hpp"
#include "core/twobit_codec.hpp"
#include "fastread/fastread_codec.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

// ---- codec fuzz -------------------------------------------------------------

// A well-formed frame: random fields in `msg`, kept only once the codec's
// own encoder accepts them, so one generator serves every codec.
std::string random_valid_frame(const Codec& codec, Rng& rng, Message& msg) {
  for (;;) {
    msg = Message();
    msg.type = static_cast<std::uint8_t>(rng.uniform(0, 6));
    msg.seq = rng.chance(0.5) ? 0 : rng.uniform(0, 1'000'000);
    msg.aux = rng.chance(0.5) ? 0 : rng.uniform(0, 1'000'000);
    msg.has_value = rng.chance(0.5);
    if (msg.has_value) {
      msg.value = Value::filler(static_cast<std::size_t>(rng.uniform(0, 40)),
                                static_cast<std::uint8_t>(rng.uniform(0, 255)));
    }
    try {
      return codec.encode(msg);
    } catch (const ContractViolation&) {
      // not a frame this codec sends; draw again
    }
  }
}

// Every codec in the tree, the phased one under each spec. A codec is
// canonical (re-encoding gives a decoded frame back byte for byte) unless
// its frames carry a bounded label: the phased codec skips that padding
// unread and re-encodes zeros.
struct CodecCase {
  const char* name;
  const Codec& codec;
  bool canonical;
};

template <typename Fn>
void for_each_codec(Fn&& fn) {
  const PhasedCodec abd(abd_unbounded_spec(), 5);
  const PhasedCodec regular(abd_regular_spec(), 5);
  const PhasedCodec bounded(abd_bounded_spec(), 3);
  const PhasedCodec attiya(attiya_spec(), 3);
  const CodecCase cases[] = {{"two-bit", twobit_codec(), true},
                             {"phased abd", abd, true},
                             {"phased abd-regular", regular, true},
                             {"phased abd-bounded", bounded, false},
                             {"phased attiya", attiya, false},
                             {"oh-ram", ohram_codec(), true},
                             {"time-efficient", time_efficient_codec(), true}};
  for (const CodecCase& c : cases) {
    SCOPED_TRACE(c.name);
    fn(c);
  }
}

// Every valid frame fits its value plus the codec's value_frame_overhead(),
// and some frame needs all of it: the socket engine refuses any write
// larger than FrameBuffer::kMaxFrame less that overhead.
TEST(CodecOverhead, EveryFrameFitsItsValuePlusTheDeclaredOverhead) {
  Rng rng(77);
  for_each_codec([&rng](const CodecCase& c) {
    std::size_t widest = 0;
    for (int trial = 0; trial < 1000; ++trial) {
      Message msg;
      const std::string bytes = random_valid_frame(c.codec, rng, msg);
      ASSERT_LE(bytes.size(),
                msg.value.size() + c.codec.value_frame_overhead())
          << "type " << int{msg.type};
      widest = std::max(widest, bytes.size() - msg.value.size());
    }
    EXPECT_EQ(widest, c.codec.value_frame_overhead());
  });
}

class CodecFuzz : public testing::TestWithParam<std::uint64_t> {};

// Random bytes and single-bit flips of valid frames, into every codec: each
// input must be rejected with ContractViolation or decode to a message whose
// re-encoding decodes to the same fields (the same bytes on a canonical
// codec).
TEST_P(CodecFuzz, MalformedFramesThrowOrRoundTripOnEveryCodec) {
  Rng rng(GetParam());
  for_each_codec([&rng](const CodecCase& c) {
    for (int trial = 0; trial < 2000; ++trial) {
      std::string bytes;
      if (trial % 2 == 0) {
        bytes.resize(static_cast<std::size_t>(rng.uniform(0, 80)));
        for (auto& b : bytes) b = static_cast<char>(rng.uniform(0, 255));
      } else {
        Message valid;
        bytes = random_valid_frame(c.codec, rng, valid);
        const auto bit = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(bytes.size()) * 8 - 1));
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      Message msg;
      try {
        msg = c.codec.decode(bytes);
      } catch (const ContractViolation&) {
        continue;  // rejected: fine
      }
      std::string again;
      ASSERT_NO_THROW(again = c.codec.encode(msg))
          << "trial " << trial << ": decoded a frame its encoder refuses";
      if (c.canonical) {
        EXPECT_EQ(again, bytes) << "trial " << trial;
      }
      const Message back = c.codec.decode(again);
      EXPECT_EQ(back.type, msg.type) << "trial " << trial;
      EXPECT_EQ(back.seq, msg.seq) << "trial " << trial;
      EXPECT_EQ(back.aux, msg.aux) << "trial " << trial;
      EXPECT_EQ(back.has_value, msg.has_value) << "trial " << trial;
      EXPECT_EQ(back.value, msg.value) << "trial " << trial;
    }
  });
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
