// Property suite: the paper's Lemmas 1-5 and Properties P1/P2, checked as
// executable invariants after *every* simulator event, across a sweep of
// group sizes, delay models (including the adversarial flip-flop reorderer)
// and crash patterns — on faithful groups and on bounded-history groups,
// where the same predicate also checks GC soundness.
#include <gtest/gtest.h>

#include <functional>

#include "core/invariants.hpp"
#include "sim/fault_plan.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

struct InvariantCase {
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  const char* delay;
  std::uint64_t seed;
};

std::string case_name(const testing::TestParamInfo<InvariantCase>& info) {
  const auto& c = info.param;
  return "n" + std::to_string(c.n) + "t" + std::to_string(c.t) + "c" +
         std::to_string(c.crashes) + "_" + c.delay + "_s" +
         std::to_string(c.seed);
}

std::unique_ptr<DelayModel> make_delay(const std::string& kind,
                                       const GroupConfig& cfg) {
  if (kind == "const") return make_constant_delay(100);
  if (kind == "uniform") return make_uniform_delay(1, 1000);
  if (kind == "expo") return make_exponential_delay(200, 5000);
  if (kind == "flipflop") return make_flipflop_delay(5, 2000, cfg.n);
  if (kind == "straggler") {
    return make_straggler_delay(cfg.n - 1, 3000, 10);
  }
  TBR_ENSURE(false, "unknown delay kind");
  return nullptr;
}

class TwoBitInvariantSweep : public testing::TestWithParam<InvariantCase> {};

TEST_P(TwoBitInvariantSweep, LemmasHoldOnEveryEvent) {
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
  opt.ops_per_process = 12;
  opt.writer_read_fraction = 0.25;
  opt.think_time_max = 500;
  opt.crashes = c.crashes;
  opt.crash_horizon = 20'000;
  opt.invariant_checks = true;

  const auto result = run_workload(std::move(engine), opt);
  EXPECT_TRUE(result.drained) << "simulation did not drain";
  EXPECT_GT(result.invariant_checks, 0u);
  // Liveness (Lemmas 8/9): every never-crashed process finished its quota.
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  // And the history is atomic, while we are at it.
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

std::vector<InvariantCase> invariant_cases() {
  std::vector<InvariantCase> cases;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {1, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 2}, {7, 3}, {9, 4}};
  const std::vector<const char*> delays = {"const", "uniform", "flipflop"};
  std::uint64_t seed = 1;
  for (const auto& [n, t] : sizes) {
    for (const auto* delay : delays) {
      cases.push_back({n, t, 0, delay, seed++});
    }
  }
  // Crashy runs (faulty minority), all delay models.
  const std::vector<const char*> all_delays = {"const", "uniform", "expo",
                                               "flipflop", "straggler"};
  for (const auto* delay : all_delays) {
    cases.push_back({5, 2, 2, delay, seed++});
    cases.push_back({7, 3, 3, delay, seed++});
  }
  // Seed diversity on the nastiest configuration.
  for (std::uint64_t s = 100; s < 112; ++s) {
    cases.push_back({6, 2, 2, "flipflop", s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TwoBitInvariantSweep,
                         testing::ValuesIn(invariant_cases()), case_name);

// Writer-crash runs: the writer dying mid-write must leave every invariant
// and atomicity intact (the final write may hang in limbo).
class TwoBitWriterCrashSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TwoBitWriterCrashSweep, WriterCrashKeepsInvariants) {
  SimRegisterGroup::Options engine;
  engine.cfg.n = 5;
  engine.cfg.t = 2;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.algo = Algorithm::kTwoBit;
  engine.seed = GetParam();
  engine.delay = make_uniform_delay(1, 800);
  WorkloadOptions opt;
  opt.ops_per_process = 10;
  opt.think_time_max = 300;
  opt.crashes = 2;
  opt.allow_writer_crash = true;
  opt.crash_horizon = 8'000;
  opt.invariant_checks = true;

  const auto result = run_workload(std::move(engine), opt);
  EXPECT_TRUE(result.drained);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoBitWriterCrashSweep,
                         testing::Range<std::uint64_t>(0, 10));

// Bounded-history groups (known-prefix GC) under the observer: GC soundness
// joins the lemmas after every event, and every run must reclaim history,
// so the predicate is exercised while the watermark moves. Crashes land
// after the first 5,000 ticks; a crashed process then pins the watermark.
class BoundedInvariantSweep : public testing::TestWithParam<InvariantCase> {};

TEST_P(BoundedInvariantSweep, LemmasAndGcSoundnessHoldOnEveryEvent) {
  const auto& c = GetParam();
  SimRegisterGroup::Options engine;
  engine.cfg.n = c.n;
  engine.cfg.t = c.t;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.seed = c.seed;
  engine.delay = make_delay(c.delay, engine.cfg);
  engine.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions o;
    o.bounded_history = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, o);
  };
  SimRegisterGroup group(std::move(engine));
  SimNetwork& net = group.net();
  TwoBitInvariantObserver observer(group.config());
  net.set_post_event_hook(std::ref(observer));
  Rng rng(c.seed);
  FaultPlan plan = FaultPlan::random(rng, group.config(), c.crashes, 20'000,
                                     /*allow_writer=*/false);
  for (CrashEvent& crash : plan.crashes) crash.at += 5'000;
  plan.install(net);

  // Closed loop: every process runs 24 operations after random think
  // times, the writer writing and the others reading; a crash ends a loop.
  std::vector<int> left(c.n, 24);
  std::int64_t written = 0;
  std::function<void(ProcessId)> next = [&](ProcessId pid) {
    if (left[pid]-- == 0) return;
    net.schedule_after(rng.uniform(0, 500), [&, pid] {
      if (net.crashed(pid)) return;
      if (pid == 0) {
        group.client().write(Value::from_int64(++written),
                             [&next](const OpResult&) { next(0); });
      } else {
        group.client().read(pid, [&next, pid](const OpResult& r) {
          if (r.status.ok()) next(pid);  // a crash ends the loop
        });
      }
    });
  };
  for (ProcessId pid = 0; pid < c.n; ++pid) next(pid);
  ASSERT_TRUE(net.run());
  EXPECT_GT(observer.checks_run(), 0u);
  const auto& writer = net.process_as<TwoBitProcess>(0);
  EXPECT_EQ(written, 24);
  EXPECT_GT(writer.gc_reclaimed_count(), 0u);
  EXPECT_GT(writer.history_base(), 0);
}

std::vector<InvariantCase> bounded_cases() {
  std::vector<InvariantCase> cases;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> sizes = {
      {3, 1}, {5, 2}, {7, 3}};
  const std::vector<const char*> delays = {"uniform", "expo", "flipflop",
                                           "straggler"};
  for (const auto& [n, t] : sizes) {
    for (const auto* delay : delays) {
      for (const std::uint32_t crashes : {0u, t}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          cases.push_back({n, t, crashes, delay, seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Bounded, BoundedInvariantSweep,
                         testing::ValuesIn(bounded_cases()), case_name);

}  // namespace
}  // namespace tbr
