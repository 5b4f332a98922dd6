// Threaded-runtime tests: real concurrency, the unified client and crash
// semantics. Linearizability under genuine thread interleavings is swept
// in workload_test, alongside the sim and socket engines.
#include <gtest/gtest.h>

#include "runtime/thread_network.hpp"

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

ThreadNetwork::Options net_options(Algorithm algo, std::uint32_t n,
                                   std::uint32_t t) {
  ThreadNetwork::Options opt;
  opt.cfg = make_cfg(n, t);
  opt.algo = algo;
  opt.min_delay_us = 0;
  opt.max_delay_us = 100;
  return opt;
}

TEST(ThreadNetworkTest, WriteThenReadEverywhere) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(77)).status.ok());
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const OpResult out = net.client().read_sync(pid);
    EXPECT_EQ(out.value.to_int64(), 77) << "process " << pid;
    EXPECT_EQ(out.version, 1);
  }
  net.stop();
}

TEST(ThreadNetworkTest, SequentialWritesVisibleInOrder) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  for (int k = 1; k <= 25; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    const OpResult out =
        net.client().read_sync(static_cast<ProcessId>(k % 3));
    EXPECT_EQ(out.value.to_int64(), k);
  }
  net.stop();
}

TEST(ThreadNetworkTest, LatenciesArePositive) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  const OpResult w = net.client().write_sync(Value::from_int64(1));
  EXPECT_GT(w.latency, 0);
  const OpResult r = net.client().read_sync(2);
  EXPECT_GT(r.latency, 0);
  net.stop();
}

TEST(ThreadNetworkTest, CrashedProcessRejectsOps) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 5, 2));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.crash(4);
  // Wait until the crash marker has been consumed.
  while (!net.crashed(4)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(4).status.code(), StatusCode::kCrashed);
  // The rest of the group keeps working.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(2)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 2);
  net.stop();
}

TEST(ThreadNetworkTest, StatsAccumulate) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  const auto stats = net.stats_snapshot();
  EXPECT_GT(stats.total_sent(), 0u);
  EXPECT_EQ(stats.max_control_bits_per_msg(), 2u);
  net.stop();
}

TEST(ThreadNetworkTest, StopIsIdempotentAndDestructorSafe) {
  ThreadNetwork net(net_options(Algorithm::kTwoBit, 3, 1));
  net.start();
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(1)).status.ok());
  net.stop();
  net.stop();  // second stop is a no-op
}

TEST(ThreadNetworkTest, BaselinesRunOnThreadsToo) {
  for (const auto algo :
       {Algorithm::kAbdUnbounded, Algorithm::kAbdBounded, Algorithm::kAttiya}) {
    ThreadNetwork net(net_options(algo, 3, 1));
    net.start();
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
    EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 11)
        << algorithm_name(algo);
    net.stop();
  }
}

}  // namespace
}  // namespace tbr
