// Threaded-runtime tests: real concurrency, the unified client and crash
// semantics, and the mailbox's wake-ups. Linearizability under genuine
// thread interleavings is swept in workload_test, alongside the sim and
// socket engines.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "runtime/mailbox.hpp"
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

// ---- MailboxT wake-ups ----------------------------------------------------------
//
// A push notifies only a consumer parked on the mailbox. These check that a
// parked consumer still wakes: each consumer parks first (the sleeps give it
// time to), and a lost wake-up would leave it asleep past the deadline.

using namespace std::chrono_literals;

constexpr auto kParkTime = 50ms;
constexpr auto kWakeDeadline = 5s;

/// Poll `flag` until it is set or `deadline` passes.
bool wait_for_flag(const std::atomic<bool>& flag,
                   std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(MailboxWake, MinItemsWindowOpensOnTheLastPush) {
  MailboxT<int> box;
  std::vector<int> out;
  std::atomic<bool> returned{false};
  const auto start = std::chrono::steady_clock::now();
  std::jthread consumer([&](std::stop_token st) {
    box.pop_all(st, out, /*max_items=*/0, /*min_items=*/4,
                /*min_wait=*/10s);
    returned.store(true, std::memory_order_release);
  });
  for (int k = 1; k <= 3; ++k) {
    std::this_thread::sleep_for(kParkTime);
    ASSERT_TRUE(box.push(int{k}));
  }
  std::this_thread::sleep_for(kParkTime);
  EXPECT_FALSE(returned.load()) << "the window opened below min_items";
  ASSERT_TRUE(box.push(4));
  EXPECT_TRUE(wait_for_flag(returned, kWakeDeadline))
      << "the 4th push did not wake the lingering consumer";
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4}));
}

TEST(MailboxWake, ParkedPopWakesOnOnePush) {
  MailboxT<int> box;
  std::optional<int> got;
  std::atomic<bool> returned{false};
  std::jthread consumer([&](std::stop_token st) {
    got = box.pop(st);
    returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(kParkTime);
  ASSERT_TRUE(box.push(7));
  const bool woke = wait_for_flag(returned, kWakeDeadline);
  EXPECT_TRUE(woke) << "a single push did not wake the parked pop";
  if (!woke) box.close();  // release the consumer so the test can end
  consumer.join();
  EXPECT_EQ(got, std::optional<int>(7));
}

TEST(MailboxWake, CloseWakesAParkedConsumer) {
  MailboxT<int> box;
  std::vector<int> out{-1};
  std::atomic<bool> returned{false};
  std::jthread consumer([&](std::stop_token st) {
    box.pop_all(st, out);
    returned.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(kParkTime);
  box.close();
  EXPECT_TRUE(wait_for_flag(returned, kWakeDeadline))
      << "close() did not wake the parked consumer";
  consumer.join();
  EXPECT_TRUE(out.empty()) << "a closed, empty box drains nothing";
  EXPECT_FALSE(box.push(1)) << "a closed box rejects pushes";
}

}  // namespace
}  // namespace tbr
