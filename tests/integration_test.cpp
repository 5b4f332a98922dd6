// Cross-module integration: the four algorithms side by side on identical
// workloads, Table-1 relationships between them, and end-to-end behaviour
// that no single-module test covers.
#include <gtest/gtest.h>

#include "abd/phased_process.hpp"
#include "common/bits.hpp"
#include "core/twobit_process.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = 1000;

SimRegisterGroup make_group(Algorithm algo, std::uint32_t n, std::uint32_t t) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = t;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = algo;
  opt.delay = make_constant_delay(kDelta);
  return SimRegisterGroup(std::move(opt));
}

// All four algorithms produce identical answers on the same op sequence.
TEST(Integration, AllAlgorithmsAgreeOnValues) {
  std::vector<std::vector<std::int64_t>> answers;
  for (const auto algo : all_algorithms()) {
    auto group = make_group(algo, 5, 2);
    std::vector<std::int64_t> seen;
    for (int k = 1; k <= 6; ++k) {
      group.client().write_sync(Value::from_int64(k * 3));
      seen.push_back(group.client().read_sync(static_cast<ProcessId>(k % 5)).value.to_int64());
    }
    answers.push_back(std::move(seen));
  }
  for (std::size_t i = 1; i < answers.size(); ++i) {
    EXPECT_EQ(answers[i], answers[0]);
  }
}

// Table 1 line 3, cross-algorithm: twobit(2) << attiya(n^3) << bounded(n^5),
// and unbounded sits at Θ(log writes) + tags.
TEST(Integration, ControlBitOrderingMatchesTable1) {
  const std::uint32_t n = 5;
  std::map<Algorithm, std::uint64_t> max_bits;
  for (const auto algo : all_algorithms()) {
    auto group = make_group(algo, n, 2);
    for (int k = 1; k <= 8; ++k) group.client().write_sync(Value::from_int64(k));
    group.client().read_sync(2);
    group.settle();
    max_bits[algo] = group.net().stats().max_control_bits_per_msg();
  }
  EXPECT_EQ(max_bits[Algorithm::kTwoBit], 2u);
  EXPECT_LT(max_bits[Algorithm::kTwoBit], max_bits[Algorithm::kAbdUnbounded]);
  EXPECT_LT(max_bits[Algorithm::kAbdUnbounded], max_bits[Algorithm::kAttiya]);
  EXPECT_LT(max_bits[Algorithm::kAttiya], max_bits[Algorithm::kAbdBounded]);
  EXPECT_GE(max_bits[Algorithm::kAttiya], pow_saturating(n, 3));
  EXPECT_GE(max_bits[Algorithm::kAbdBounded], pow_saturating(n, 5));
}

// Table 1 lines 5-6, cross-algorithm, one test: the proposed algorithm ties
// unbounded ABD and strictly beats both bounded baselines.
TEST(Integration, TimingOrderingMatchesTable1) {
  std::map<Algorithm, std::pair<Tick, Tick>> latencies;
  for (const auto algo : all_algorithms()) {
    auto group = make_group(algo, 5, 2);
    const Tick w = group.client().write_sync(Value::from_int64(1)).latency;
    group.settle();
    const Tick r = group.client().read_sync(3).latency;
    latencies[algo] = {w, r};
  }
  EXPECT_EQ(latencies[Algorithm::kTwoBit].first, 2 * kDelta);
  // Writes tie unbounded ABD exactly; steady-state reads tie or beat it
  // (2Δ here — the paper's 4Δ is the worst-case alignment, measured in
  // tests/twobit_timing_test.cpp and bench_table1).
  EXPECT_EQ(latencies[Algorithm::kTwoBit].first,
            latencies[Algorithm::kAbdUnbounded].first);
  EXPECT_LE(latencies[Algorithm::kTwoBit].second,
            latencies[Algorithm::kAbdUnbounded].second);
  EXPECT_LT(latencies[Algorithm::kTwoBit].first,
            latencies[Algorithm::kAbdBounded].first);
  EXPECT_LT(latencies[Algorithm::kTwoBit].second,
            latencies[Algorithm::kAbdBounded].second);
  EXPECT_LT(latencies[Algorithm::kAbdBounded].first,
            latencies[Algorithm::kAttiya].first);
}

// Read-message asymmetry (the paper's conclusion: reads are O(n) for twobit
// and attiya/unbounded, O(n^2) for bounded ABD; writes are O(n^2) for twobit).
TEST(Integration, MessageAsymmetryMatchesTable1) {
  const std::uint32_t n = 9;
  std::map<Algorithm, std::pair<std::uint64_t, std::uint64_t>> msgs;
  for (const auto algo : all_algorithms()) {
    auto group = make_group(algo, n, 4);
    auto before = group.net().stats().snapshot();
    group.client().write_sync(Value::from_int64(1));
    group.settle();
    const auto wmsgs =
        group.net().stats().diff_since(before).total_sent();
    before = group.net().stats().snapshot();
    group.client().read_sync(n - 1);
    group.settle();
    const auto rmsgs =
        group.net().stats().diff_since(before).total_sent();
    msgs[algo] = {wmsgs, rmsgs};
  }
  // twobit: write n(n-1) = O(n^2), read 2(n-1) = O(n).
  EXPECT_EQ(msgs[Algorithm::kTwoBit].first, std::uint64_t{n} * (n - 1));
  EXPECT_EQ(msgs[Algorithm::kTwoBit].second, 2ull * (n - 1));
  // twobit reads strictly cheaper than its writes (read-dominated claim).
  EXPECT_LT(msgs[Algorithm::kTwoBit].second, msgs[Algorithm::kTwoBit].first);
  // bounded ABD pays O(n^2) even for reads.
  EXPECT_GT(msgs[Algorithm::kAbdBounded].second,
            msgs[Algorithm::kTwoBit].second * (n / 2));
}

// Identical workload, all algorithms: atomicity + liveness + traffic sanity.
TEST(Integration, SharedWorkloadAllAlgorithmsAtomic) {
  for (const auto algo : all_algorithms()) {
    SimRegisterGroup::Options engine;
    engine.cfg.n = 7;
    engine.cfg.t = 3;
    engine.cfg.writer = 0;
    engine.cfg.initial = Value::from_int64(0);
    engine.algo = algo;
    engine.seed = 99;
    WorkloadOptions opt;
    opt.ops_per_process = 10;
    opt.writer_read_fraction = 0.2;
    opt.crashes = 2;
    opt.crash_horizon = 25'000;
    const auto result = run_workload(std::move(engine), opt);
    EXPECT_TRUE(result.drained) << algorithm_name(algo);
    const auto check = result.check_atomicity();
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << algorithm_name(algo);
  }
}

// The two-bit register's value payload flows through unchanged regardless of
// size (framing is data-plane): 0 bytes to 64 KiB.
TEST(Integration, PayloadSizesRoundTrip) {
  auto group = make_group(Algorithm::kTwoBit, 3, 1);
  std::size_t sizes[] = {0, 1, 7, 256, 4096, 65536};
  SeqNo expect_idx = 0;
  for (const auto size : sizes) {
    group.client().write_sync(Value::filler(size, static_cast<std::uint8_t>(size % 251)));
    ++expect_idx;
    const auto out = group.client().read_sync(2);
    EXPECT_EQ(out.version, expect_idx);
    EXPECT_EQ(out.value.size(), size);
    EXPECT_EQ(out.value,
              Value::filler(size, static_cast<std::uint8_t>(size % 251)));
  }
}

// Long-haul: a thousand operations through one group, atomic throughout.
TEST(Integration, LongHaulThousandOps) {
  SimRegisterGroup::Options engine;
  engine.cfg.n = 5;
  engine.cfg.t = 2;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = 7;
  WorkloadOptions opt;
  opt.ops_per_process = 200;
  opt.think_time_max = 100;
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  EXPECT_EQ(result.ops.size(), 1000u);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

// Memory-cost contrast (Table 1 line 4): after many writes the two-bit
// process's history dwarfs unbounded-ABD's O(1) replica state.
TEST(Integration, MemoryContrastTwoBitVsAbd) {
  auto twobit = make_group(Algorithm::kTwoBit, 3, 1);
  auto abd = make_group(Algorithm::kAbdUnbounded, 3, 1);
  for (int k = 1; k <= 300; ++k) {
    twobit.client().write_sync(Value::from_int64(k));
    abd.client().write_sync(Value::from_int64(k));
  }
  twobit.settle();
  abd.settle();
  const auto twobit_mem = twobit.process(1).local_memory_bytes();
  const auto abd_mem = abd.process(1).local_memory_bytes();
  EXPECT_GT(twobit_mem, 300u * 8u);
  EXPECT_LT(abd_mem, 200u);
  EXPECT_GT(twobit_mem, abd_mem * 10);
}

}  // namespace
}  // namespace tbr
