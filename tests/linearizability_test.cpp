// The atomicity battery (Lemma 10 / Theorem 1) for every register protocol:
// hundreds of seeded adversarial schedules — randomized delays, forced
// channel reordering, stragglers, minority crashes, writer crashes and
// read-heavy contention — each checked by SwmrChecker, plus liveness when
// nobody crashed. Two-bit runs its own battery; the three ABD-family
// baselines and the two fast-path read engines share another (if an
// emulation were structurally right but semantically wrong, this is what
// would catch it). The contention in these schedules drives the Oh-RAM
// read down both of its completion paths (tests/fastread_test.cpp asserts
// both fire).
//
// Each protocol family is instantiated under its own prefix (`twobit`,
// `baselines`, `fastread`); tests/CMakeLists.txt registers the binary once
// per family as `<family>_linearizability_test`.
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace tbr {
namespace {

/// A battery's op mix, crash horizon and delay-model parameters.
struct Battery {
  std::uint32_t ops_per_process;
  double writer_read_fraction;
  Tick think_time_max;
  Tick crash_horizon;
  Tick uniform_max;    ///< uniform(1, uniform_max)
  Tick flipflop_slow;  ///< flipflop(3, flipflop_slow, n)
  Tick expo_mean;
  Tick expo_cap;
};

constexpr Battery kTwoBitBattery{20, 0.3, 400, 30'000, 1500, 2500, 300, 10'000};
constexpr Battery kQuorumBattery{14, 0.25, 500, 40'000, 1200, 2000, 250, 8'000};
/// Read-dominated contention: many readers hammering while the writer
/// streams values — the workload the paper's conclusion markets the
/// two-bit algorithm for (O(n) reads).
constexpr Battery kHammerBattery{30, 0.0, 50, 50'000, 600, 0, 0, 0};

struct LinCase {
  Algorithm algo;
  const Battery* battery;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  bool allow_writer_crash;
  const char* delay;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<LinCase>& info) {
  const auto& c = info.param;
  std::string name = algorithm_name(c.algo);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  if (c.battery == &kHammerBattery) name += "_hammer";
  name += "_n" + std::to_string(c.n) + "t" + std::to_string(c.t) + "c" +
          std::to_string(c.crashes);
  if (c.allow_writer_crash) name += "w";
  name += std::string("_") + c.delay + "_s" + std::to_string(c.seed);
  return name;
}

std::unique_ptr<DelayModel> make_delay(const std::string& kind,
                                       const Battery& b, std::uint32_t n) {
  if (kind == "uniform") return make_uniform_delay(1, b.uniform_max);
  if (kind == "flipflop") return make_flipflop_delay(3, b.flipflop_slow, n);
  if (kind == "expo") return make_exponential_delay(b.expo_mean, b.expo_cap);
  if (kind == "straggler") return make_straggler_delay(1, 4000, 5);
  TBR_ENSURE(false, "unknown delay kind");
  return nullptr;
}

class Linearizability : public testing::TestWithParam<LinCase> {};

TEST_P(Linearizability, HistoryIsAtomic) {
  const auto& c = GetParam();
  const Battery& b = *c.battery;
  SimRegisterGroup::Options engine;
  engine.cfg.n = c.n;
  engine.cfg.t = c.t;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = c.algo;
  engine.seed = c.seed;
  engine.delay = make_delay(c.delay, b, c.n);
  WorkloadOptions opt;
  opt.ops_per_process = b.ops_per_process;
  opt.writer_read_fraction = b.writer_read_fraction;
  opt.think_time_max = b.think_time_max;
  opt.crashes = c.crashes;
  opt.allow_writer_crash = c.allow_writer_crash;
  opt.crash_horizon = b.crash_horizon;

  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained) << "simulation hit the event budget";
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << "liveness: all ops of correct processes must finish";
  }
}

std::vector<LinCase> twobit_cases() {
  std::vector<LinCase> out;
  const auto add = [&out](std::uint32_t n, std::uint32_t t,
                          std::uint32_t crashes, bool writer_crash,
                          const char* delay, std::uint64_t seed) {
    out.push_back({Algorithm::kTwoBit, &kTwoBitBattery, n, t, crashes,
                   writer_crash, delay, seed});
  };
  std::uint64_t seed = 1;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {2, 0}, {3, 1}, {4, 1}, {5, 2}, {6, 2}, {7, 3}, {9, 4}, {11, 5}};
  const std::vector<const char*> delays = {"uniform", "flipflop", "expo"};
  // Failure-free sweeps: every size x delay model, 3 seeds each.
  for (const auto& [n, t] : sizes) {
    for (const auto* delay : delays) {
      for (int s = 0; s < 3; ++s) add(n, t, 0, false, delay, seed++);
    }
  }
  // Crashy sweeps: reader crashes up to t.
  for (const auto& [n, t] : sizes) {
    if (t == 0) continue;
    for (const auto* delay : delays) add(n, t, t, false, delay, seed++);
  }
  // Writer-crash sweeps.
  for (std::uint64_t s = 0; s < 12; ++s) {
    add(5, 2, 2, true, "uniform", 1000 + s);
    add(7, 3, 2, true, "flipflop", 2000 + s);
  }
  // Straggler-heavy runs (exercises Rule R2 catch-up aggressively).
  for (std::uint64_t s = 0; s < 8; ++s) {
    add(5, 2, 0, false, "straggler", 3000 + s);
  }
  for (std::uint64_t s = 0; s < 8; ++s) {
    out.push_back(
        {Algorithm::kTwoBit, &kHammerBattery, 9, 4, 0, false, "uniform", s});
  }
  return out;
}

/// One protocol family's quorum battery; the delay model rotates with the
/// seed so the sweep covers them all. Seeds restart at 1 per family.
std::vector<LinCase> quorum_cases(const std::vector<Algorithm>& algos) {
  std::vector<LinCase> out;
  const auto add = [&out](Algorithm algo, std::uint32_t n, std::uint32_t t,
                          std::uint32_t crashes, bool writer_crash,
                          std::uint64_t seed) {
    static constexpr const char* kRotation[] = {"uniform", "flipflop", "expo"};
    out.push_back({algo, &kQuorumBattery, n, t, crashes, writer_crash,
                   kRotation[seed % 3], seed});
  };
  std::uint64_t seed = 1;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {2, 0}, {3, 1}, {5, 2}, {7, 3}};
  for (const auto algo : algos) {
    for (const auto& [n, t] : sizes) {
      for (int s = 0; s < 3; ++s) add(algo, n, t, 0, false, seed++);
      if (t > 0) add(algo, n, t, t, false, seed++);
    }
    // Writer-crash runs: a mid-write crash leaves a value adopted by some
    // processes only; readers must still converge on one order (Oh-RAM
    // acks disagree → fallback; time-efficient readers re-echo the max).
    for (int s = 0; s < 4; ++s) add(algo, 5, 2, 2, true, 500 + seed++);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(twobit, Linearizability,
                         testing::ValuesIn(twobit_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(
    baselines, Linearizability,
    testing::ValuesIn(quorum_cases({Algorithm::kAbdUnbounded,
                                    Algorithm::kAbdBounded,
                                    Algorithm::kAttiya})),
    case_name);
INSTANTIATE_TEST_SUITE_P(fastread, Linearizability,
                         testing::ValuesIn(quorum_cases(fastread_algorithms())),
                         case_name);

}  // namespace
}  // namespace tbr
