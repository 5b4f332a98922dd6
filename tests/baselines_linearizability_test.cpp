// The baselines must linearize too: the same adversarial-schedule battery
// the two-bit algorithm faces, across all three ABD-family implementations.
// (If the emulations were structurally right but semantically wrong, this
// suite is what would catch it.)
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace tbr {
namespace {

struct BaselineLinCase {
  Algorithm algo;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  bool allow_writer_crash;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<BaselineLinCase>& info) {
  const auto& c = info.param;
  std::string name = algorithm_name(c.algo);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_n" + std::to_string(c.n) + "t" + std::to_string(c.t) + "c" +
          std::to_string(c.crashes);
  if (c.allow_writer_crash) name += "w";
  name += "_s" + std::to_string(c.seed);
  return name;
}

class BaselineLinearizability
    : public testing::TestWithParam<BaselineLinCase> {};

TEST_P(BaselineLinearizability, HistoryIsAtomic) {
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

std::vector<BaselineLinCase> cases() {
  std::vector<BaselineLinCase> out;
  std::uint64_t seed = 1;
  const std::vector<Algorithm> algos = {
      Algorithm::kAbdUnbounded, Algorithm::kAbdBounded, Algorithm::kAttiya};
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {2, 0}, {3, 1}, {5, 2}, {7, 3}};
  for (const auto algo : algos) {
    for (const auto& [n, t] : sizes) {
      for (int s = 0; s < 3; ++s) out.push_back({algo, n, t, 0, false, seed++});
      if (t > 0) out.push_back({algo, n, t, t, false, seed++});
    }
    // Writer-crash runs.
    for (int s = 0; s < 4; ++s) {
      out.push_back({algo, 5, 2, 2, true, 500 + seed++});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BaselineLinearizability,
                         testing::ValuesIn(cases()), case_name);

}  // namespace
}  // namespace tbr
