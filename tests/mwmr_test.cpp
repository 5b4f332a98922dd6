// Tests for the MWMR extension: multi-writer ABD over the simulator, with
// the timestamp checker on every run and Wing-Gong cross-validation on
// small histories.
#include <gtest/gtest.h>

#include "checker/mwmr_checker.hpp"
#include "checker/wg_checker.hpp"
#include "mwmr/mwmr_process.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_network.hpp"

namespace tbr {
namespace {

GroupConfig make_cfg(std::uint32_t n, std::uint32_t t) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.writer = 0;  // unused by MWMR; required by GroupConfig
  cfg.initial = Value::from_int64(0);
  return cfg;
}

struct MwmrGroup {
  explicit MwmrGroup(std::uint32_t n, std::uint32_t t, std::uint64_t seed = 1,
                     std::unique_ptr<DelayModel> delay = nullptr) {
    cfg = make_cfg(n, t);
    std::vector<std::unique_ptr<ProcessBase>> procs;
    for (ProcessId pid = 0; pid < n; ++pid) {
      procs.push_back(make_mwmr_process(cfg, pid));
    }
    SimNetwork::Options opt;
    opt.seed = seed;
    opt.delay = delay ? std::move(delay) : make_constant_delay(1000);
    net = std::make_unique<SimNetwork>(std::move(procs), std::move(opt));
  }

  MwmrProcess& proc(ProcessId pid) {
    return net->process_as<MwmrProcess>(pid);
  }

  SeqNo write(ProcessId pid, std::int64_t v) {
    SeqNo ts = -1;
    proc(pid).start_write(net->context(pid), Value::from_int64(v),
                          [&ts](SeqNo t) { ts = t; });
    TBR_ENSURE(net->run_until([&] { return ts >= 0; }), "write stuck");
    return ts;
  }

  std::pair<std::int64_t, SeqNo> read(ProcessId pid) {
    std::optional<std::pair<std::int64_t, SeqNo>> out;
    proc(pid).start_read(net->context(pid),
                         [&out](const Value& v, SeqNo ts) {
                           out = {v.to_int64(), ts};
                         });
    TBR_ENSURE(net->run_until([&] { return out.has_value(); }), "read stuck");
    return *out;
  }

  GroupConfig cfg;
  std::unique_ptr<SimNetwork> net;
};

// ---- timestamp packing -------------------------------------------------------

TEST(MwmrTimestamps, PackPreservesLexicographicOrder) {
  EXPECT_LT(pack_ts(1, 5), pack_ts(2, 0));
  EXPECT_LT(pack_ts(1, 0), pack_ts(1, 1));
  EXPECT_EQ(ts_seq(pack_ts(7, 3)), 7);
  EXPECT_EQ(ts_writer(pack_ts(7, 3)), 3u);
}

// ---- functional ----------------------------------------------------------------

TEST(MwmrBasic, AnyProcessCanWrite) {
  MwmrGroup g(5, 2);
  g.write(3, 30);
  EXPECT_EQ(g.read(1).first, 30);
  g.write(4, 40);
  EXPECT_EQ(g.read(0).first, 40);
  g.write(0, 50);
  EXPECT_EQ(g.read(2).first, 50);
}

TEST(MwmrBasic, TimestampsGrowAcrossWriters) {
  MwmrGroup g(5, 2);
  const SeqNo a = g.write(1, 10);
  const SeqNo b = g.write(2, 20);
  const SeqNo c = g.write(1, 30);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(ts_writer(a), 1u);
  EXPECT_EQ(ts_writer(b), 2u);
}

TEST(MwmrBasic, InitialValueReadable) {
  MwmrGroup g(3, 1);
  const auto [v, ts] = g.read(2);
  EXPECT_EQ(v, 0);
  EXPECT_EQ(ts, 0);
}

TEST(MwmrBasic, SurvivesMinorityCrash) {
  MwmrGroup g(5, 2);
  g.write(1, 11);
  g.net->crash_now(3);
  g.net->crash_now(4);
  g.write(2, 22);
  EXPECT_EQ(g.read(0).first, 22);
}

TEST(MwmrBasic, LastWriterWinsOnConcurrentWrites) {
  // Two concurrent writes: the register converges on the higher timestamp.
  MwmrGroup g(5, 2);
  SeqNo ts1 = -1, ts2 = -1;
  g.proc(1).start_write(g.net->context(1), Value::from_int64(100),
                        [&](SeqNo t) { ts1 = t; });
  g.proc(2).start_write(g.net->context(2), Value::from_int64(200),
                        [&](SeqNo t) { ts2 = t; });
  ASSERT_TRUE(g.net->run());
  ASSERT_GE(ts1, 0);
  ASSERT_GE(ts2, 0);
  EXPECT_NE(ts1, ts2);  // packed timestamps never collide
  const auto [v, ts] = g.read(0);
  EXPECT_EQ(ts, std::max(ts1, ts2));
  EXPECT_EQ(v, ts == ts1 ? 100 : 200);
}

TEST(MwmrBasic, SequentialContractEnforced) {
  MwmrGroup g(3, 1);
  g.proc(1).start_write(g.net->context(1), Value::from_int64(1),
                        [](SeqNo) {});
  EXPECT_THROW(
      g.proc(1).start_read(g.net->context(1), [](const Value&, SeqNo) {}),
      ContractViolation);
}

// ---- checker unit behaviour ------------------------------------------------------

TEST(MwmrCheckerTest, AcceptsCleanHistory) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, pack_ts(1, 1));
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(10), pack_ts(1, 1));
  EXPECT_TRUE(MwmrChecker::check(log.ops(), Value::from_int64(0)).ok);
}

TEST(MwmrCheckerTest, RejectsStaleRead) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, pack_ts(1, 1));
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(0), 0);  // returns the initial value
  const auto verdict = MwmrChecker::check(log.ops(), Value::from_int64(0));
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("W-R"), std::string::npos);
}

TEST(MwmrCheckerTest, RejectsInversion) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 5, pack_ts(1, 1));
  auto w2 = log.begin_write_unindexed(1, 10, Value::from_int64(20));
  log.end_write_indexed(w2, 100, pack_ts(2, 1));  // long write, overlaps reads
  // Hmm: w2 [10,100]; r1 [20,30] sees new, r2 [40,50] sees old.
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(20), pack_ts(2, 1));
  auto r2 = log.begin_read(3, 40);
  log.end_read(r2, 50, Value::from_int64(10), pack_ts(1, 1));
  const auto verdict = MwmrChecker::check(log.ops(), Value::from_int64(0));
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("R-R"), std::string::npos);
}

TEST(MwmrCheckerTest, RejectsWriteBehindObservedRead) {
  HistoryLog log;
  auto r1 = log.begin_read(2, 0);
  log.end_read(r1, 10, Value::from_int64(10), pack_ts(5, 1));
  // The read observed ts (5,1); a later write installing a smaller ts is
  // impossible under timestamp order.
  auto w = log.begin_write_unindexed(3, 20, Value::from_int64(10));
  log.end_write_indexed(w, 30, pack_ts(5, 1 - 1));
  const auto verdict = MwmrChecker::check(log.ops(), Value::from_int64(0));
  EXPECT_FALSE(verdict.ok);
}

TEST(MwmrCheckerTest, AllowsReadOfIncompleteWriteByValue) {
  HistoryLog log;
  (void)log.begin_write_unindexed(1, 0, Value::from_int64(10));  // crashes
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(10), pack_ts(1, 1));
  EXPECT_TRUE(MwmrChecker::check(log.ops(), Value::from_int64(0)).ok);
}

TEST(MwmrCheckerTest, RejectsDuplicateTimestamps) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, pack_ts(1, 1));
  auto w2 = log.begin_write_unindexed(2, 20, Value::from_int64(20));
  log.end_write_indexed(w2, 30, pack_ts(1, 1));
  EXPECT_FALSE(MwmrChecker::check(log.ops(), Value::from_int64(0)).ok);
}

// ---- property: random concurrent workloads ------------------------------------------

struct MwmrDriver {
  MwmrGroup& g;
  HistoryLog log;
  Rng rng;
  std::vector<std::uint32_t> remaining;
  std::int64_t next_value = 1;

  MwmrDriver(MwmrGroup& group, std::uint64_t seed, std::uint32_t quota)
      : g(group), rng(seed), remaining(group.cfg.n, quota) {}

  void kick(ProcessId pid) {
    g.net->schedule_after(rng.uniform(0, 400), [this, pid] { issue(pid); });
  }

  void issue(ProcessId pid) {
    if (g.net->crashed(pid) || remaining[pid] == 0) return;
    remaining[pid] -= 1;
    const Tick now = g.net->now();
    if (rng.chance(0.4)) {
      const std::int64_t v = next_value++;
      const auto id = log.begin_write_unindexed(pid, now,
                                                Value::from_int64(v));
      g.proc(pid).start_write(g.net->context(pid), Value::from_int64(v),
                              [this, pid, id](SeqNo ts) {
                                log.end_write_indexed(id, g.net->now(), ts);
                                kick(pid);
                              });
    } else {
      const auto id = log.begin_read(pid, now);
      g.proc(pid).start_read(g.net->context(pid),
                             [this, pid, id](const Value& v, SeqNo ts) {
                               log.end_read(id, g.net->now(), v, ts);
                               kick(pid);
                             });
    }
  }
};

class MwmrLinearizability : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MwmrLinearizability, ConcurrentMultiWriterHistoryIsAtomic) {
  const auto seed = GetParam();
  MwmrGroup g(5, 2, seed, make_uniform_delay(1, 1200));
  MwmrDriver driver(g, seed ^ 0xABCD, 14);
  for (ProcessId pid = 0; pid < 5; ++pid) driver.kick(pid);
  if (seed % 2 == 0) {
    Rng fault_rng(seed ^ 0xFA117);
    FaultPlan::random(fault_rng, g.cfg, 2, 20'000, true).install(*g.net);
  }
  ASSERT_TRUE(g.net->run());
  const auto verdict =
      MwmrChecker::check(driver.log.ops(), Value::from_int64(0));
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwmrLinearizability,
                         testing::Range<std::uint64_t>(0, 24));

// ---- Wing-Gong cross-validation on small histories -----------------------------------

class MwmrWgCrossval : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MwmrWgCrossval, SmallHistoriesAgreeWithOracle) {
  const auto seed = GetParam();
  MwmrGroup g(3, 1, seed, make_uniform_delay(1, 900));
  MwmrDriver driver(g, seed ^ 0x5EED, 3);  // <= 9 ops total
  for (ProcessId pid = 0; pid < 3; ++pid) driver.kick(pid);
  ASSERT_TRUE(g.net->run());
  const auto ops = driver.log.ops();
  const auto verdict = MwmrChecker::check(ops, Value::from_int64(0));
  ASSERT_LE(ops.size(), 18u);
  const bool oracle = wg_linearizable(ops, Value::from_int64(0));
  EXPECT_TRUE(verdict.ok) << verdict.error;
  EXPECT_TRUE(oracle);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwmrWgCrossval,
                         testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace tbr
