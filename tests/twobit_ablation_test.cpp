// Wait-ablation suite: each `wait` in Fig. 1 maps to a specific atomicity
// claim. Removing a wait must (a) leave the other claims intact and
// (b) demonstrably break its own claim on adversarial schedules. The
// violation-counting checker (SwmrChecker::analyze) measures both.
//
//   line 9  (reader's second quorum)  -> Claim 3 (no new/old inversion)
//   line 20 (responder freshness)     -> Claim 2 (no stale read)
//   ABD read write-back phase         -> Claim 3 for the ABD baseline
#include <gtest/gtest.h>

#include "abd/phased_process.hpp"
#include "core/twobit_process.hpp"
#include "workload/adversarial.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

CheckStats run_and_analyze(const ProcessFactory& factory,
                           std::uint64_t seed, std::uint32_t n = 5) {
  SimRegisterGroup::Options engine;
  engine.cfg.n = n;
  engine.cfg.t = (n - 1) / 2;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.seed = seed;
  engine.process_factory = factory;
  switch (seed % 3) {
    case 0:
      engine.delay = make_uniform_delay(1, 1500);
      break;
    case 1:
      engine.delay = make_flipflop_delay(3, 2200, n);
      break;
    default:
      engine.delay = make_exponential_delay(400, 9000);
  }
  WorkloadOptions opt;
  opt.ops_per_process = 24;
  opt.think_time_max = 120;  // hot: reads race the write pipeline
  const auto result = run_workload(std::move(engine), opt);
  EXPECT_TRUE(result.drained);
  return SwmrChecker::analyze(result.ops, result.initial);
}

ProcessFactory twobit_factory(TwoBitOptions options) {
  return [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
}

CheckStats sweep(const ProcessFactory& factory, int seeds,
                 std::uint32_t n = 5) {
  CheckStats total;
  for (int s = 0; s < seeds; ++s) {
    const auto stats =
        run_and_analyze(factory, static_cast<std::uint64_t>(s), n);
    total.model += stats.model;
    total.c0 += stats.c0;
    total.c1 += stats.c1;
    total.c2 += stats.c2;
    total.c3 += stats.c3;
    total.reads_checked += stats.reads_checked;
    if (total.first_error.empty()) total.first_error = stats.first_error;
  }
  return total;
}

TEST(WaitAblation, FaithfulAlgorithmHasZeroViolations) {
  const auto stats = sweep(twobit_factory({}), 12);
  EXPECT_EQ(stats.total(), 0u) << stats.first_error;
  EXPECT_GT(stats.reads_checked, 500u);
}

// Random schedules rarely align two sequential reads inside one write's
// dissemination window, so the "breaks its claim" direction uses the
// targeted adversarial scenarios (src/workload/adversarial.hpp); the random
// sweeps then confirm the *other* claims stay intact under the ablation.

TEST(WaitAblation, DroppingLine9CausesInversionOnTargetedSchedule) {
  TwoBitOptions ablated;
  ablated.skip_read_second_wait = true;
  const auto outcome = run_twobit_inversion_scenario(ablated);
  ASSERT_TRUE(outcome.both_completed);
  EXPECT_EQ(outcome.first_read_index, 2);   // fresh side saw the new value
  EXPECT_EQ(outcome.second_read_index, 1);  // stale side then read the old
  EXPECT_TRUE(outcome.inverted());
  EXPECT_GT(outcome.stats.c3, 0u) << outcome.stats.first_error;
  EXPECT_EQ(outcome.stats.c2, 0u);  // Claim 2 rests on lines 7/20: intact
}

TEST(WaitAblation, FaithfulLine9PreventsInversionOnSameSchedule) {
  const auto outcome = run_twobit_inversion_scenario(TwoBitOptions{});
  ASSERT_TRUE(outcome.both_completed);
  // Line 9 holds the fresh read open until the stale side catches up, so
  // the two reads overlap and no real-time order is violated.
  EXPECT_EQ(outcome.stats.total(), 0u) << outcome.stats.first_error;
}

TEST(WaitAblation, DroppingLine9OtherClaimsSurviveRandomSweep) {
  TwoBitOptions options;
  options.skip_read_second_wait = true;
  const auto stats = sweep(twobit_factory(options), 20);
  // The other claims rest on lines 7/20 and Lemma 2, which are untouched.
  EXPECT_EQ(stats.model, 0u);
  EXPECT_EQ(stats.c0, 0u);
  EXPECT_EQ(stats.c1, 0u);
  EXPECT_EQ(stats.c2, 0u) << stats.first_error;
}

TEST(WaitAblation, DroppingLine20CausesStaleReadOnTargetedSchedule) {
  TwoBitOptions ablated;
  ablated.eager_proceed = true;
  const auto outcome = run_twobit_stale_read_scenario(ablated);
  ASSERT_TRUE(outcome.both_completed);
  EXPECT_EQ(outcome.second_read_index, 1)
      << "the read should have missed the completed write";
  EXPECT_GT(outcome.stats.c2, 0u) << outcome.stats.first_error;
}

TEST(WaitAblation, FaithfulLine20PreventsStaleReadOnSameSchedule) {
  const auto outcome = run_twobit_stale_read_scenario(TwoBitOptions{});
  ASSERT_TRUE(outcome.both_completed);
  EXPECT_EQ(outcome.second_read_index, 2);
  EXPECT_EQ(outcome.stats.total(), 0u) << outcome.stats.first_error;
}

TEST(WaitAblation, DroppingLine20OtherClaimsSurviveRandomSweep) {
  TwoBitOptions options;
  options.eager_proceed = true;
  const auto stats = sweep(twobit_factory(options), 20);
  EXPECT_EQ(stats.model, 0u);
  EXPECT_EQ(stats.c0, 0u);
  EXPECT_EQ(stats.c1, 0u);
}

TEST(WaitAblation, RegularAbdInvertsOnTargetedSchedule) {
  const auto outcome = run_abd_inversion_scenario(/*regular=*/true);
  ASSERT_TRUE(outcome.both_completed);
  EXPECT_EQ(outcome.first_read_index, 2);
  EXPECT_EQ(outcome.second_read_index, 1);
  EXPECT_GT(outcome.stats.c3, 0u) << outcome.stats.first_error;
  EXPECT_EQ(outcome.stats.c2, 0u);  // regular: still never stale
}

TEST(WaitAblation, FaithfulAbdWriteBackPreventsInversion) {
  const auto outcome = run_abd_inversion_scenario(/*regular=*/false);
  ASSERT_TRUE(outcome.both_completed);
  EXPECT_EQ(outcome.stats.total(), 0u) << outcome.stats.first_error;
}

TEST(WaitAblation, RegularAbdIsRegularOnRandomSweep) {
  const ProcessFactory factory = [](const GroupConfig& cfg, ProcessId pid) {
    return make_abd_regular_process(cfg, pid);
  };
  const auto stats = sweep(factory, 20);
  // Lamport-regular: never stale, never from the future.
  EXPECT_EQ(stats.model, 0u);
  EXPECT_EQ(stats.c0, 0u);
  EXPECT_EQ(stats.c1, 0u);
  EXPECT_EQ(stats.c2, 0u) << stats.first_error;
}

TEST(WaitAblation, FullAbdSweepStaysAtomic) {
  const ProcessFactory factory = [](const GroupConfig& cfg, ProcessId pid) {
    return make_abd_unbounded_process(cfg, pid);
  };
  const auto stats = sweep(factory, 12);
  EXPECT_EQ(stats.total(), 0u) << stats.first_error;
}

TEST(WaitAblation, RegularAbdStillSatisfiesRegularPredicate) {
  const ProcessFactory factory = [](const GroupConfig& cfg, ProcessId pid) {
    return make_abd_regular_process(cfg, pid);
  };
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto stats = run_and_analyze(factory, s);
    EXPECT_TRUE(stats.regular()) << stats.first_error;
  }
}

TEST(WaitAblation, AnalyzeCountsMatchCheckVerdict) {
  // analyze() and check() must agree on the faithful algorithm and on the
  // broken variants.
  TwoBitOptions broken;
  broken.skip_read_second_wait = true;
  for (std::uint64_t s = 0; s < 6; ++s) {
    SimRegisterGroup::Options engine;
    engine.cfg.n = 5;
    engine.cfg.t = 2;
    engine.cfg.writer = 0;
    engine.cfg.initial = Value::from_int64(0);
    engine.seed = s;
    engine.process_factory = twobit_factory(broken);
    engine.delay = make_flipflop_delay(3, 2200, 5);
    WorkloadOptions opt;
    opt.ops_per_process = 20;
    opt.think_time_max = 120;
    const auto result = run_workload(std::move(engine), opt);
    const auto stats = SwmrChecker::analyze(result.ops, result.initial);
    const auto verdict = result.check_atomicity();
    EXPECT_EQ(stats.atomic(), verdict.ok);
    if (!verdict.ok) {
      EXPECT_EQ(verdict.error, stats.first_error);
    }
  }
}

}  // namespace
}  // namespace tbr
