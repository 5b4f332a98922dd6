// Per-register atomicity of the sharded engine: run_sharded_workload drives
// pipelining client threads through the real store (shard workers,
// batching windows) and checks every (shard, slot) register's history with
// MwmrChecker, with write coalescing off (every put is one protocol write)
// and on (absorbed puts are dropped once they name a surviving version).
// The drop rule is also checked on a hand-made history, and one tiny
// coalesced history goes through the exhaustive Wing-Gong checker, an
// oracle independent of both the drop rule and MwmrChecker.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>
#include <vector>

#include "checker/wg_checker.hpp"
#include "workload/sharded_workload.hpp"

namespace tbr {
namespace {

ShardedKvStore::Options store_options(std::uint64_t seed, bool coalesce) {
  ShardedKvStore::Options opt;
  opt.shards = 4;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 16;
  opt.seed = seed;
  opt.coalesce_writes = coalesce;
  return opt;
}

void expect_every_register_atomic(bool coalesce) {
  KvOpMix mix;
  mix.keys = 256;
  mix.read_fraction = 0.9;
  mix.total_ops = 8000;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ShardedWorkloadResult r =
        run_sharded_workload(store_options(seed, coalesce), mix,
                             /*client_threads=*/4, /*client_pipeline=*/64);
    const CheckResult check = r.check_atomicity();
    EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.error;
    EXPECT_EQ(r.ops_failed, 0u) << "seed " << seed;
    EXPECT_EQ(r.ops_completed, mix.total_ops) << "seed " << seed;
    std::set<std::uint32_t> shards;
    for (const KvRegisterHistory& reg : r.registers) shards.insert(reg.shard);
    EXPECT_EQ(shards.size(), 4u) << "histories span every shard";
    if (coalesce) {
      EXPECT_GT(r.batch.absorbed_writes, 0u) << "seed " << seed;
    } else {
      EXPECT_EQ(r.batch.absorbed_writes, 0u) << "seed " << seed;
    }
  }
}

TEST(ShardedLinearizability, EveryRegisterAtomicWithoutCoalescing) {
  expect_every_register_atomic(/*coalesce=*/false);
}

TEST(ShardedLinearizability, EveryRegisterAtomicWithCoalescing) {
  expect_every_register_atomic(/*coalesce=*/true);
}

// The drop rule on a hand-made history: put 1 is absorbed by put 2, which
// lands as version 1, and a read returns it.
TEST(ShardedLinearizability, CheckHoldsAbsorbedPutsToTheirSurvivor) {
  HistoryLog log;
  const auto absorbed = log.begin_write_unindexed(0, 0, Value::from_int64(1));
  const auto survivor = log.begin_write_unindexed(1, 0, Value::from_int64(2));
  log.end_write_indexed(absorbed, 10, 1);
  log.end_write_indexed(survivor, 10, 1);
  const auto read = log.begin_read(2, 20);
  log.end_read(read, 30, Value::from_int64(2), 1);
  KvRegisterHistory reg{0, 3, log.ops(), {absorbed}};
  EXPECT_TRUE(check_kv_histories({reg}, Value()).ok);

  const auto error = [](const KvRegisterHistory& h) {
    return check_kv_histories({h}, Value()).error;
  };
  KvRegisterHistory bad = reg;
  bad.ops[absorbed].index = 2;
  EXPECT_EQ(error(bad), "shard 0 slot 3: an absorbed put names version 2, "
                        "which no surviving put carries");
  bad = reg;
  bad.ops[survivor].index = 2;
  EXPECT_EQ(error(bad), "shard 0 slot 3: surviving put versions are not 1..1");
  bad = reg;
  bad.ops[read].value = Value::from_int64(1);  // the absorbed put's value
  EXPECT_NE(error(bad).find("C0"), std::string::npos) << error(bad);
}

TEST(ShardedLinearizability, TinyCoalescedHistoryPassesWingGong) {
  // One register, one client pipelining 15 ops; the min_batch floor holds
  // the worker's window open until all 15 are queued, so runs of puts
  // collapse last-write-wins.
  ShardedKvStore::Options opt = store_options(/*seed=*/3, /*coalesce=*/true);
  opt.shards = 1;
  opt.slots_per_shard = 1;
  opt.min_batch = 15;
  opt.min_batch_wait = std::chrono::seconds(10);
  KvOpMix mix;
  mix.keys = 1;
  mix.read_fraction = 0.4;
  mix.total_ops = 15;
  const ShardedWorkloadResult r = run_sharded_workload(
      opt, mix, /*client_threads=*/1, /*client_pipeline=*/15);
  const CheckResult check = r.check_atomicity();
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(r.ops_completed, 15u);
  EXPECT_GT(r.batch.absorbed_writes, 0u);
  // One store window, split into one replica batch per replica it touches.
  EXPECT_EQ(r.batch.windows, 1u);
  EXPECT_EQ(r.batch.batches, 3u);
  ASSERT_EQ(r.registers.size(), 1u);

  const KvRegisterHistory& reg = r.registers.front();
  EXPECT_EQ(reg.absorbed.size(), r.batch.absorbed_writes);
  std::vector<OpRecord> survivors_and_reads;
  for (std::size_t k = 0; k < reg.ops.size(); ++k) {
    const bool absorbed = std::find(reg.absorbed.begin(), reg.absorbed.end(),
                                    k) != reg.absorbed.end();
    if (!absorbed) survivors_and_reads.push_back(reg.ops[k]);
  }
  EXPECT_TRUE(wg_linearizable(survivors_and_reads, r.initial));
}

}  // namespace
}  // namespace tbr
