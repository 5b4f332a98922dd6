// NetworkContext::schedule — the per-process timer facility added for the
// transport decorators — across all three runtimes: ordering, crash
// suppression, rearming from within a callback, and the incarnation fence
// that keeps a crashed incarnation's timers out of its rejoined successor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/twobit_codec.hpp"
#include "runtime/thread_network.hpp"
#include "sim/sim_network.hpp"
#include "transport/socket_network.hpp"

namespace tbr {
namespace {

// A register process that exists only to host timers in the runtimes.
class TimerHost final : public RegisterProcessBase {
 public:
  TimerHost(GroupConfig cfg, ProcessId self)
      : RegisterProcessBase(cfg, self) {}
  void start_write(NetworkContext& net, Value, WriteDone done) override {
    // Arm a chain of two timers, then complete.
    net.schedule(1000, [this, &net] {
      fired.fetch_add(1, std::memory_order_relaxed);
      net.schedule(1000, [this] {
        fired.fetch_add(1, std::memory_order_relaxed);
      });
    });
    if (done) done();
  }
  void start_read(NetworkContext&, ReadDone done) override {
    if (done) done(Value(), 0);
  }
  void on_message(NetworkContext&, ProcessId, const Message&) override {}
  std::uint64_t local_memory_bytes() const override { return 0; }
  const Codec& codec() const override { return twobit_codec(); }

  std::atomic<int> fired{0};
};

// Arms one timer per read. The timer bumps a counter the test owns, so a
// timer that outlives its incarnation is counted instead of touching a
// destroyed process.
class ArmOnRead final : public RegisterProcessBase {
 public:
  ArmOnRead(GroupConfig cfg, ProcessId self, Tick delay,
            std::atomic<int>* fired)
      : RegisterProcessBase(cfg, self), delay_(delay), fired_(fired) {}
  void start_write(NetworkContext&, Value, WriteDone done) override {
    if (done) done();
  }
  void start_read(NetworkContext& net, ReadDone done) override {
    net.schedule(delay_, [fired = fired_] {
      fired->fetch_add(1, std::memory_order_relaxed);
    });
    if (done) done(Value(), 0);
  }
  void on_message(NetworkContext&, ProcessId, const Message&) override {}
  std::uint64_t local_memory_bytes() const override { return 0; }
  const Codec& codec() const override { return twobit_codec(); }

 private:
  Tick delay_;
  std::atomic<int>* fired_;
};

GroupConfig cfg3() {
  GroupConfig cfg;
  cfg.n = 3;
  cfg.t = 1;
  cfg.initial = Value();
  return cfg;
}

TEST(SimTimers, FireInOrderAtVirtualTime) {
  std::vector<std::unique_ptr<ProcessBase>> procs;
  std::vector<TimerHost*> hosts;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    auto host = std::make_unique<TimerHost>(cfg3(), pid);
    hosts.push_back(host.get());
    procs.push_back(std::move(host));
  }
  SimNetwork::Options opt;
  SimNetwork net(std::move(procs), std::move(opt));
  std::vector<Tick> fire_times;
  net.schedule_at(1, [&] {
    net.context(0).schedule(500, [&] { fire_times.push_back(net.now()); });
    net.context(0).schedule(100, [&] { fire_times.push_back(net.now()); });
    net.context(0).schedule(300, [&] { fire_times.push_back(net.now()); });
  });
  ASSERT_TRUE(net.run());
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 101);
  EXPECT_EQ(fire_times[1], 301);
  EXPECT_EQ(fire_times[2], 501);
}

TEST(SimTimers, CrashSuppressesPendingTimers) {
  std::vector<std::unique_ptr<ProcessBase>> procs;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    procs.push_back(std::make_unique<TimerHost>(cfg3(), pid));
  }
  SimNetwork::Options opt;
  SimNetwork net(std::move(procs), std::move(opt));
  int fired = 0;
  net.schedule_at(1, [&] {
    net.context(1).schedule(1000, [&] { ++fired; });
    net.crash_at(1, 500);  // crash strictly before the timer is due
  });
  ASSERT_TRUE(net.run());
  EXPECT_EQ(fired, 0) << "a crashed process must not run timer callbacks";
}

TEST(SimTimers, RecoveredIncarnationDropsItsPredecessorsTimers) {
  std::vector<std::unique_ptr<ProcessBase>> procs;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    procs.push_back(std::make_unique<TimerHost>(cfg3(), pid));
  }
  SimNetwork::Options opt;
  opt.recover_factory = [](ProcessId pid) {
    return std::make_unique<TimerHost>(cfg3(), pid);
  };
  SimNetwork net(std::move(procs), std::move(opt));
  int stale = 0;
  int fresh = 0;
  net.context(1).schedule(1000, [&] { ++stale; });
  net.crash_at(1, 500);
  net.recover_at(1, 700);  // reborn before the old timer is due
  net.schedule_at(800, [&] {
    net.context(1).schedule(100, [&] { ++fresh; });
  });
  ASSERT_TRUE(net.run());
  EXPECT_EQ(stale, 0) << "a crashed incarnation's timer ran in its successor";
  EXPECT_EQ(fresh, 1) << "the new incarnation's own timer must still run";
}

TEST(SimTimers, RejectsNonPositiveDelay) {
  std::vector<std::unique_ptr<ProcessBase>> procs;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    procs.push_back(std::make_unique<TimerHost>(cfg3(), pid));
  }
  SimNetwork::Options opt;
  SimNetwork net(std::move(procs), std::move(opt));
  EXPECT_THROW(net.context(0).schedule(0, [] {}), ContractViolation);
}

TEST(ThreadTimers, ChainedTimersFireOnProcessThread) {
  ThreadNetwork::Options opt;
  opt.cfg = cfg3();
  opt.cfg.writer = 0;
  TimerHost* writer_host = nullptr;
  opt.process_factory = [&writer_host](const GroupConfig& cfg,
                                       ProcessId pid) {
    auto host = std::make_unique<TimerHost>(cfg, pid);
    if (pid == cfg.writer) writer_host = host.get();
    return host;
  };
  ThreadNetwork net(opt);
  net.start();
  // Arms the 1us + 1us timer chain.
  ASSERT_TRUE(net.client().write_sync(Value()).status.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (writer_host->fired.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(writer_host->fired.load(std::memory_order_relaxed), 2)
      << "both chained timers must fire via the dispatcher";
  net.stop();
}

TEST(SocketTimers, ChainedTimersFireOnLoopThread) {
  SocketNetwork::Options opt;
  opt.cfg = cfg3();
  opt.cfg.writer = 0;
  TimerHost* writer_host = nullptr;
  opt.process_factory = [&writer_host](const GroupConfig& cfg,
                                       ProcessId pid) {
    auto host = std::make_unique<TimerHost>(cfg, pid);
    if (pid == cfg.writer) writer_host = host.get();
    return host;
  };
  SocketNetwork net(std::move(opt));
  net.start();
  // Arms the 1us + 1us timer chain.
  ASSERT_TRUE(net.client().write_sync(Value()).status.ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (writer_host->fired.load(std::memory_order_relaxed) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(writer_host->fired.load(std::memory_order_relaxed), 2)
      << "both chained timers must fire on the event loop";
  net.stop();
}

// The wall-clock runtimes' twin of RecoveredIncarnationDropsItsPredecessors-
// Timers: replica 1 arms a 250 ms timer, crashes and rejoins at once, and
// the rejoined incarnation arms a 1 ms timer of its own. Only the second
// may ever run.
constexpr Tick kStaleDelayNs = 250'000'000;

template <typename Net>
void expect_rejoin_drops_stale_timers() {
  std::atomic<int> stale{0};
  std::atomic<int> fresh{0};
  typename Net::Options opt;
  opt.cfg = cfg3();
  opt.process_factory = [&stale](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ArmOnRead>(cfg, pid, kStaleDelayNs, &stale);
  };
  opt.recover_factory = [&fresh](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ArmOnRead>(cfg, pid, 1'000'000, &fresh);
  };
  Net net(std::move(opt));
  net.start();
  const auto armed = std::chrono::steady_clock::now();
  ASSERT_TRUE(net.client().read_sync(1).status.ok());  // arms the stale timer
  net.crash(1);
  const auto deadline = armed + std::chrono::seconds(5);
  while (!net.crashed(1) && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(net.crashed(1));
  net.recover(1);
  // Queued behind the rebirth, so the new incarnation serves it.
  ASSERT_TRUE(net.client().read_sync(1).status.ok());
  const auto stale_due = armed + std::chrono::nanoseconds(2 * kStaleDelayNs);
  while ((fresh.load(std::memory_order_relaxed) == 0 ||
          std::chrono::steady_clock::now() < stale_due) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  net.stop();
  EXPECT_EQ(stale.load(), 0)
      << "a crashed incarnation's timer ran in its successor";
  EXPECT_EQ(fresh.load(), 1) << "the new incarnation's own timer must run";
}

TEST(ThreadTimers, RecoveredIncarnationDropsItsPredecessorsTimers) {
  expect_rejoin_drops_stale_timers<ThreadNetwork>();
}

TEST(SocketTimers, RecoveredIncarnationDropsItsPredecessorsTimers) {
  expect_rejoin_drops_stale_timers<SocketNetwork>();
}

}  // namespace
}  // namespace tbr
