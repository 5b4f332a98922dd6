// Tests of the workload driver itself: determinism, quotas, crash plumbing,
// histogram collection, the SimRegisterGroup facade, and the one
// linearizability sweep that runs the same driver over the sim, threaded
// and socket engines.
#include <gtest/gtest.h>

#include "workload/workload.hpp"

namespace tbr {
namespace {

GroupConfig make_cfg(std::uint32_t n, std::uint32_t t) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

SimRegisterGroup::Options sim_engine(std::uint64_t seed = 1,
                                     Algorithm algo = Algorithm::kTwoBit) {
  SimRegisterGroup::Options engine;
  engine.cfg = make_cfg(5, 2);
  engine.algo = algo;
  engine.seed = seed;
  return engine;
}

WorkloadOptions base_options() {
  WorkloadOptions opt;
  opt.ops_per_process = 8;
  opt.think_time_max = 300;
  return opt;
}

WorkloadResult run_sim(std::uint64_t seed = 1,
                       const WorkloadOptions& opt = base_options()) {
  return run_workload(sim_engine(seed), opt);
}

TEST(WorkloadTest, CompletesAllOpsWithoutCrashes) {
  const auto result = run_sim();
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  EXPECT_EQ(result.quota_of_correct, 5u * 8u);
  EXPECT_EQ(result.ops.size(), 5u * 8u);
  EXPECT_EQ(result.crashes, 0u);
}

TEST(WorkloadTest, DeterministicForSameSeed) {
  const auto a = run_sim(42);
  const auto b = run_sim(42);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.stats.total_sent(), b.stats.total_sent());
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].start.tick, b.ops[i].start.tick);
    EXPECT_EQ(a.ops[i].index, b.ops[i].index);
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  EXPECT_NE(run_sim(1).duration, run_sim(2).duration);
}

TEST(WorkloadTest, WriterWritesReadersRead) {
  const auto result = run_sim();
  for (const auto& op : result.ops) {
    if (op.kind == OpRecord::Kind::kWrite) {
      EXPECT_EQ(op.proc, 0u);
    } else {
      EXPECT_NE(op.proc, 0u);  // writer_read_fraction = 0 here
    }
  }
}

TEST(WorkloadTest, WriterReadFractionMixesOps) {
  auto opt = base_options();
  opt.writer_read_fraction = 0.5;
  opt.ops_per_process = 30;
  const auto result = run_sim(1, opt);
  int writer_reads = 0;
  int writer_writes = 0;
  for (const auto& op : result.ops) {
    if (op.proc != 0) continue;
    (op.kind == OpRecord::Kind::kRead ? writer_reads : writer_writes)++;
  }
  EXPECT_GT(writer_reads, 0);
  EXPECT_GT(writer_writes, 0);
}

TEST(WorkloadTest, CrashesReduceCompletions) {
  auto opt = base_options();
  opt.crashes = 2;
  opt.crash_horizon = 5'000;
  opt.ops_per_process = 10;
  const auto result = run_sim(1, opt);
  EXPECT_TRUE(result.drained);
  EXPECT_EQ(result.crashes, 2u);
  EXPECT_EQ(result.quota_of_correct, 3u * 10u);
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
      << "correct processes must still finish everything";
}

TEST(WorkloadTest, RejectsOverBudgetCrashes) {
  auto opt = base_options();
  opt.crashes = 3;  // t = 2
  EXPECT_THROW((void)run_sim(1, opt), ContractViolation);
}

TEST(WorkloadTest, LatencyHistogramsFilled) {
  const auto result = run_sim();
  EXPECT_EQ(result.write_latency.count(), 8u);
  EXPECT_EQ(result.read_latency.count(), 4u * 8u);
  EXPECT_GT(result.write_latency.min(), 0);
}

TEST(WorkloadTest, InvariantChecksOnlyForTwoBit) {
  auto opt = base_options();
  opt.invariant_checks = true;
  EXPECT_THROW(
      (void)run_workload(sim_engine(1, Algorithm::kAbdUnbounded), opt),
      ContractViolation);
}

TEST(WorkloadTest, InvariantChecksOnlyOnTheSim) {
  auto opt = base_options();
  opt.invariant_checks = true;
  ThreadNetwork::Options engine;
  engine.cfg = make_cfg(3, 1);
  EXPECT_THROW((void)run_workload(std::move(engine), opt), ContractViolation);
}

TEST(WorkloadTest, WorksForEveryAlgorithm) {
  for (const auto algo : all_algorithms()) {
    auto opt = base_options();
    opt.ops_per_process = 4;
    const auto result = run_workload(sim_engine(1, algo), opt);
    EXPECT_TRUE(result.drained) << algorithm_name(algo);
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
        << algorithm_name(algo);
    const auto check = result.check_atomicity();
    EXPECT_TRUE(check.ok) << algorithm_name(algo) << ": " << check.error;
  }
}

TEST(WorkloadTest, ZeroOpsDrainsImmediately) {
  auto opt = base_options();
  opt.ops_per_process = 0;
  const auto result = run_sim(1, opt);
  EXPECT_TRUE(result.drained);
  EXPECT_TRUE(result.ops.empty());
  EXPECT_EQ(result.stats.total_sent(), 0u);
}

// ---- one linearizability sweep, every engine ---------------------------------

enum class Engine { kSim, kThreaded, kSocket };

struct EngineLinCase {
  Engine engine;
  Algorithm algo;
  std::uint32_t n;
  std::uint32_t t;
  std::uint32_t crashes;
  std::uint64_t seed;
  std::uint32_t loops = 0;  ///< socket only; 0 = auto
};

std::string case_name(const testing::TestParamInfo<EngineLinCase>& info) {
  const auto& c = info.param;
  static constexpr const char* kEngine[] = {"sim", "thread", "socket"};
  std::string name = std::string(kEngine[static_cast<int>(c.engine)]) + "_" +
                     algorithm_name(c.algo);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_n" + std::to_string(c.n) + "c" + std::to_string(c.crashes) +
          "_s" + std::to_string(c.seed);
  if (c.loops != 0) name += "_l" + std::to_string(c.loops);
  return name;
}

WorkloadResult run_case(const EngineLinCase& c) {
  WorkloadOptions opt;
  opt.ops_per_process = 24;
  opt.crashes = c.crashes;
  if (c.engine != Engine::kSim) {
    opt.think_time_max = 200'000;    // 200 us
    opt.crash_horizon = 5'000'000;   // crashes land within the first 5 ms
  }
  switch (c.engine) {
    case Engine::kSim: {
      SimRegisterGroup::Options engine;
      engine.cfg = make_cfg(c.n, c.t);
      engine.algo = c.algo;
      engine.seed = c.seed;
      return run_workload(std::move(engine), opt);
    }
    case Engine::kThreaded: {
      ThreadNetwork::Options engine;
      engine.cfg = make_cfg(c.n, c.t);
      engine.algo = c.algo;
      engine.seed = c.seed;
      engine.max_delay_us = 250;
      return run_workload(std::move(engine), opt);
    }
    case Engine::kSocket: {
      SocketNetwork::Options engine;
      engine.cfg = make_cfg(c.n, c.t);
      engine.algo = c.algo;
      engine.loops = c.loops;
      return run_workload(std::move(engine), opt);
    }
  }
  return {};
}

class EngineLinearizability : public testing::TestWithParam<EngineLinCase> {};

TEST_P(EngineLinearizability, ConcurrentHistoryIsAtomic) {
  const auto& c = GetParam();
  const auto result = run_case(c);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  if (c.crashes == 0) {
    EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
  }
  EXPECT_GT(result.stats.total_sent(), 0u);
}

std::vector<EngineLinCase> lin_cases() {
  using A = Algorithm;
  struct Row {
    A algo;
    std::uint32_t n, t, crashes;
    std::uint64_t seed;
  };
  const std::vector<Row> threaded = {
      {A::kTwoBit, 3, 1, 0, 1},       {A::kTwoBit, 5, 2, 0, 2},
      {A::kTwoBit, 5, 2, 0, 3},       {A::kTwoBit, 7, 3, 0, 4},
      {A::kTwoBit, 5, 2, 2, 5},       {A::kTwoBit, 7, 3, 3, 6},
      {A::kTwoBit, 9, 4, 4, 11},      {A::kAbdUnbounded, 5, 2, 0, 7},
      {A::kAbdUnbounded, 5, 2, 2, 8}, {A::kAbdUnbounded, 7, 3, 3, 12},
      {A::kAbdBounded, 3, 1, 0, 9},   {A::kAbdBounded, 5, 2, 2, 13},
      {A::kAttiya, 3, 1, 0, 10},      {A::kAttiya, 5, 2, 2, 14}};
  const std::vector<EngineLinCase> socket = {
      {Engine::kSocket, A::kTwoBit, 3, 1, 0, 1},
      {Engine::kSocket, A::kTwoBit, 5, 2, 0, 2},
      {Engine::kSocket, A::kTwoBit, 5, 2, 2, 3},
      {Engine::kSocket, A::kTwoBit, 7, 3, 3, 4},
      {Engine::kSocket, A::kAbdUnbounded, 5, 2, 0, 5},
      {Engine::kSocket, A::kAbdUnbounded, 5, 2, 2, 6},
      {Engine::kSocket, A::kAttiya, 3, 1, 0, 7},
      {Engine::kSocket, A::kAbdBounded, 3, 1, 0, 8},
      // Multi-loop rows: the same histories must stay atomic when
      // processes are sharded pid % loops across event loops (cross-loop
      // frames and crashes).
      {Engine::kSocket, A::kTwoBit, 5, 2, 0, 9, 2},
      {Engine::kSocket, A::kTwoBit, 5, 2, 2, 10, 4},
      {Engine::kSocket, A::kTwoBit, 7, 3, 3, 11, 4},
      {Engine::kSocket, A::kAbdUnbounded, 5, 2, 2, 12, 2}};

  std::vector<EngineLinCase> out;
  for (const Engine engine : {Engine::kSim, Engine::kThreaded}) {
    for (const Row& r : threaded) {
      out.push_back({engine, r.algo, r.n, r.t, r.crashes, r.seed});
    }
  }
  out.insert(out.end(), socket.begin(), socket.end());
  // The fast-path read engines on every engine, with and without crashes.
  std::uint64_t seed = 20;
  for (const Engine engine : {Engine::kSim, Engine::kThreaded, Engine::kSocket}) {
    for (const A algo : fastread_algorithms()) {
      out.push_back({engine, algo, 5, 2, 0, seed++});
      out.push_back({engine, algo, 5, 2, 2, seed++});
      out.push_back({engine, algo, 7, 3, 3, seed++});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineLinearizability,
                         testing::ValuesIn(lin_cases()), case_name);

// ---- SimRegisterGroup facade edge cases ------------------------------------------

TEST(SimRegisterGroupTest, WriteOnCrashedWriterReportsCrashed) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(3, 1);
  SimRegisterGroup group(std::move(opt));
  group.crash(0);
  EXPECT_EQ(group.client().write_sync(Value::from_int64(1)).status.code(),
            StatusCode::kCrashed);
}

TEST(SimRegisterGroupTest, ReadOnCrashedReaderReportsCrashed) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(3, 1);
  SimRegisterGroup group(std::move(opt));
  group.crash(2);
  EXPECT_EQ(group.client().read_sync(2).status.code(), StatusCode::kCrashed);
}

TEST(SimRegisterGroupTest, WriteBlockedByMajorityCrashFailsLoudly) {
  // With more than t crashes the quorum is unreachable: the write must
  // fail by Status, not hang (the sim drains and reports liveness loss).
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(3, 1);
  SimRegisterGroup group(std::move(opt));
  group.crash(1);
  group.crash(2);  // beyond t: model violated on purpose
  EXPECT_EQ(group.client().write_sync(Value::from_int64(1)).status.code(),
            StatusCode::kLivenessLost);
}

}  // namespace
}  // namespace tbr
