// SwmrChecker sweeps for the fast-path read engines: the same adversarial
// battery the two-bit algorithm and the ABD baselines face — crash plans,
// writer crashes and rotating delay models. The contention in these
// schedules drives the Oh-RAM read down both of its completion paths:
// 1.5-round fast when acks agree, write-back fallback when a concurrent
// write splits them (tests/fastread_test.cpp asserts both paths fire).
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace tbr {
namespace {

struct FastReadLinCase {
  Algorithm algo;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  bool allow_writer_crash;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<FastReadLinCase>& info) {
  const auto& c = info.param;
  std::string name = algorithm_name(c.algo);
  name += "_n" + std::to_string(c.n) + "t" + std::to_string(c.t) + "c" +
          std::to_string(c.crashes);
  if (c.allow_writer_crash) name += "w";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class FastReadLinearizability
    : public testing::TestWithParam<FastReadLinCase> {};

TEST_P(FastReadLinearizability, HistoryIsAtomic) {
  const auto& c = GetParam();
  SimRegisterGroup::Options engine;
  engine.cfg.n = c.n;
  engine.cfg.t = c.t;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = c.algo;
  engine.seed = c.seed;
  // Rotate through delay models by seed so the sweep covers them all.
  switch (c.seed % 3) {
    case 0:
      engine.delay = make_uniform_delay(1, 1200);
      break;
    case 1:
      engine.delay = make_flipflop_delay(3, 2000, c.n);
      break;
    default:
      engine.delay = make_exponential_delay(250, 8000);
  }
  WorkloadOptions opt;
  opt.ops_per_process = 14;
  opt.writer_read_fraction = 0.25;
  opt.think_time_max = 500;
  opt.crashes = c.crashes;
  opt.allow_writer_crash = c.allow_writer_crash;
  opt.crash_horizon = 40'000;

  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  }
}

std::vector<FastReadLinCase> cases() {
  std::vector<FastReadLinCase> out;
  std::uint64_t seed = 1;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {2, 0}, {3, 1}, {5, 2}, {7, 3}};
  for (const auto algo : fastread_algorithms()) {
    for (const auto& [n, t] : sizes) {
      for (int s = 0; s < 3; ++s) out.push_back({algo, n, t, 0, false, seed++});
      if (t > 0) out.push_back({algo, n, t, t, false, seed++});
    }
    // Writer-crash runs: a mid-write crash leaves a value adopted by some
    // processes only; readers must still converge on one order (Oh-RAM
    // acks disagree → fallback; time-efficient readers re-echo the max).
    for (int s = 0; s < 4; ++s) {
      out.push_back({algo, 5, 2, 2, true, 500 + seed++});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastReadLinearizability,
                         testing::ValuesIn(cases()), case_name);

}  // namespace
}  // namespace tbr
