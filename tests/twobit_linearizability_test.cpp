// The headline property suite: atomicity (Lemma 10 / Theorem 1) of the
// two-bit register under hundreds of seeded adversarial schedules —
// randomized delays, forced channel reordering, stragglers, minority
// crashes, writer crashes, and read-heavy contention.
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace tbr {
namespace {

struct LinCase {
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  bool allow_writer_crash;
  const char* delay;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<LinCase>& info) {
  const auto& c = info.param;
  std::string name = "n" + std::to_string(c.n) + "t" + std::to_string(c.t) +
                     "c" + std::to_string(c.crashes);
  if (c.allow_writer_crash) name += "w";
  name += std::string("_") + c.delay + "_s" + std::to_string(c.seed);
  return name;
}

std::unique_ptr<DelayModel> make_delay(const std::string& kind,
                                       const GroupConfig& cfg) {
  if (kind == "const") return make_constant_delay(100);
  if (kind == "uniform") return make_uniform_delay(1, 1500);
  if (kind == "expo") return make_exponential_delay(300, 10'000);
  if (kind == "flipflop") return make_flipflop_delay(3, 2500, cfg.n);
  if (kind == "straggler") return make_straggler_delay(1, 4000, 5);
  TBR_ENSURE(false, "unknown delay kind");
  return nullptr;
}

class TwoBitLinearizability : public testing::TestWithParam<LinCase> {};

TEST_P(TwoBitLinearizability, HistoryIsAtomic) {
  const auto& c = GetParam();
  SimRegisterGroup::Options engine;
  engine.cfg.n = c.n;
  engine.cfg.t = c.t;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = c.seed;
  engine.delay = make_delay(c.delay, engine.cfg);
  WorkloadOptions opt;
  opt.ops_per_process = 20;
  opt.writer_read_fraction = 0.3;
  opt.think_time_max = 400;
  opt.crashes = c.crashes;
  opt.allow_writer_crash = c.allow_writer_crash;
  opt.crash_horizon = 30'000;

  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained) << "simulation hit the event budget";
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << "liveness: all ops of correct processes must finish";
  }
}

std::vector<LinCase> lin_cases() {
  std::vector<LinCase> cases;
  std::uint64_t seed = 1;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {2, 0}, {3, 1}, {4, 1}, {5, 2}, {6, 2}, {7, 3}, {9, 4}, {11, 5}};
  const std::vector<const char*> delays = {"uniform", "flipflop", "expo"};
  // Failure-free sweeps: every size x delay model, 3 seeds each.
  for (const auto& [n, t] : sizes) {
    for (const auto* delay : delays) {
      for (int s = 0; s < 3; ++s) cases.push_back({n, t, 0, false, delay, seed++});
    }
  }
  // Crashy sweeps: reader crashes up to t.
  for (const auto& [n, t] : sizes) {
    if (t == 0) continue;
    for (const auto* delay : delays) {
      cases.push_back({n, t, t, false, delay, seed++});
    }
  }
  // Writer-crash sweeps.
  for (std::uint64_t s = 0; s < 12; ++s) {
    cases.push_back({5, 2, 2, true, "uniform", 1000 + s});
    cases.push_back({7, 3, 2, true, "flipflop", 2000 + s});
  }
  // Straggler-heavy runs (exercises Rule R2 catch-up aggressively).
  for (std::uint64_t s = 0; s < 8; ++s) {
    cases.push_back({5, 2, 0, false, "straggler", 3000 + s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoBitLinearizability,
                         testing::ValuesIn(lin_cases()), case_name);

// Read-dominated contention: many readers hammering while the writer
// streams values — the workload the paper's conclusion markets the
// algorithm for (O(n) reads).
class TwoBitReadDominated : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoBitReadDominated, AtomicUnderReadHammer) {
  SimRegisterGroup::Options engine;
  engine.cfg.n = 9;
  engine.cfg.t = 4;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = GetParam();
  engine.delay = make_uniform_delay(1, 600);
  WorkloadOptions opt;
  opt.ops_per_process = 30;
  opt.think_time_max = 50;  // hot loop
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoBitReadDominated,
                         testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace tbr
