// Bounded history and crash-rejoin, end to end: known-prefix GC keeps the
// per-process footprint flat, a crashed process bootstraps from a peer
// checkpoint, reads routed to a rejoiner are deferred rather than refused,
// and histories with a mid-stream rejoin stay atomic — on the simulator,
// the threaded runtime, and the socket runtime alike.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "checker/swmr_checker.hpp"
#include "core/twobit_process.hpp"
#include "runtime/thread_network.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = 1000;

GroupConfig make_cfg(std::uint32_t n) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = (n - 1) / 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

TwoBitOptions bounded_options(bool rejoiner) {
  TwoBitOptions o;
  o.bounded_history = true;
  o.recover_via_catchup = rejoiner;
  return o;
}

/// A group whose processes all run known-prefix GC, with a matching
/// bounded rejoiner factory for recover().
SimRegisterGroup make_bounded(std::uint32_t n,
                              std::unique_ptr<DelayModel> delay) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = std::move(delay);
  opt.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(
        cfg, pid, bounded_options(/*rejoiner=*/false));
  };
  opt.recover_factory = [](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(
        cfg, pid, bounded_options(/*rejoiner=*/true));
  };
  return SimRegisterGroup(std::move(opt));
}

SimRegisterGroup make_faithful(std::uint32_t n) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_constant_delay(kDelta);
  return SimRegisterGroup(std::move(opt));
}

// ---- known-prefix GC -------------------------------------------------------

TEST(BoundedGc, SteadyStateFootprintIsFlat) {
  auto group = make_bounded(3, make_constant_delay(kDelta));
  for (int k = 1; k <= 60; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.settle();
  std::uint64_t mid[3];
  for (ProcessId pid = 0; pid < 3; ++pid) {
    mid[pid] = group.net().process_as<TwoBitProcess>(pid).memory_footprint().total;
  }
  for (int k = 61; k <= 120; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.settle();
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const auto& p = group.net().process_as<TwoBitProcess>(pid);
    const auto fp = p.memory_footprint();
    EXPECT_EQ(fp.total, mid[pid]) << "footprint grew at p" << pid;
    EXPECT_GT(p.gc_reclaimed_count(), 0u);
    EXPECT_GT(p.history_base(), 0);
    // GC is not the lossy window ablation: nothing was ever evicted unsafely.
    EXPECT_EQ(p.evicted_count(), 0u);
    EXPECT_EQ(p.wsync(pid), 120);
  }
  EXPECT_EQ(group.client().read_sync(2).value.to_int64(), 120);
}

TEST(BoundedGc, FootprintStaysFarBelowFaithful) {
  auto bounded = make_bounded(3, make_constant_delay(kDelta));
  auto faithful = make_faithful(3);
  for (int k = 1; k <= 200; ++k) {
    bounded.client().write_sync(Value::from_int64(k));
    faithful.client().write_sync(Value::from_int64(k));
  }
  bounded.settle();
  faithful.settle();
  const auto b = bounded.net().process_as<TwoBitProcess>(1).memory_footprint();
  const auto f = faithful.net().process_as<TwoBitProcess>(1).memory_footprint();
  EXPECT_LT(b.history_bytes, f.history_bytes / 5);
  EXPECT_LT(b.retained_entries, 32u);  // O(lag), not O(writes)
  EXPECT_EQ(f.retained_entries, 201u);  // faithful keeps everything
}

// ---- crash-rejoin on the simulator ----------------------------------------

TEST(SimRecovery, RejoinerBootstrapsFromPeerCheckpoint) {
  auto group = make_faithful(3);  // default rejoiner factory (algo == kTwoBit)
  for (int k = 1; k <= 10; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.crash(2);
  for (int k = 11; k <= 20; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.recover(2);
  group.settle();

  const auto& p2 = group.net().process_as<TwoBitProcess>(2);
  EXPECT_TRUE(p2.has_recovered());
  EXPECT_FALSE(p2.recovering());
  EXPECT_GE(p2.checkpoints_adopted(), 1u);
  EXPECT_EQ(p2.wsync(2), 20);
  std::uint64_t served = 0;
  for (ProcessId pid = 0; pid < 2; ++pid) {
    served += group.net().process_as<TwoBitProcess>(pid).checkpoints_served();
  }
  EXPECT_GE(served, 2u) << "rejoin needs a quorum of checkpoint responses";
  EXPECT_EQ(group.client().read_sync(2).value.to_int64(), 20);
}

TEST(SimRecovery, ReadDuringBootstrapIsDeferredNotRefused) {
  auto group = make_faithful(3);
  group.crash(1);
  for (int k = 1; k <= 5; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.recover(1);
  // Submitted while the rejoiner is still collecting checkpoints: the READ
  // parks at the process and completes once bootstrap finishes.
  const OpResult out = group.client().read_sync(1);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.value.to_int64(), 5);
}

TEST(SimRecovery, BoundedGroupRejoinsAcrossAGcdPrefix) {
  // GC stalls at the crash point while the peer is down (a crashed process
  // is indistinguishable from a slow one, so the suffix it never echoed
  // pins the watermark), then a successful rejoin unpins it: the rejoiner bootstraps
  // from a checkpoint *above* everything it missed, and the watermark
  // catches up to the head everywhere.
  auto group = make_bounded(3, make_constant_delay(kDelta));
  for (int k = 1; k <= 15; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.crash(2);
  for (int k = 16; k <= 40; ++k) {
    group.client().write_sync(Value::from_int64(k));
  }
  group.settle();
  const auto& writer = group.net().process_as<TwoBitProcess>(0);
  EXPECT_LE(writer.history_base(), 15) << "GC must stall while a peer is down";

  group.recover(2);
  group.settle();
  EXPECT_EQ(writer.history_base(), 40) << "rejoin unpins the watermark";
  const auto& p2 = group.net().process_as<TwoBitProcess>(2);
  EXPECT_TRUE(p2.has_recovered());
  EXPECT_GT(p2.history_base(), 15)
      << "the rejoiner bootstraps from a checkpoint, not the GC'd prefix";
  EXPECT_EQ(group.client().read_sync(2).value.to_int64(), 40);
}

TEST(SimRecovery, FaultPlanCrashRejoinHistoryIsAtomic) {
  // A scheduled crash_rejoin mid-workload, checked for atomicity: the
  // deterministic plan crashes the highest id (p2) at t=5000 and rejoins it
  // at t=30000 while the writer and a reader keep going closed-loop.
  auto group = make_faithful(3);
  FaultPlan::crash_rejoin(group.config(), 1, 5'000, 30'000)
      .install(group.net());

  HistoryLog log;
  SeqNo widx = 0;
  std::function<void()> next_write = [&] {
    if (widx >= 25) return;
    ++widx;
    Value v = Value::from_int64(widx);
    const auto id = log.begin_write(0, group.net().now(), widx, v);
    group.client().write(std::move(v), [&, id](const OpResult&) {
      log.end_write(id, group.net().now());
      group.net().schedule_after(400, next_write);
    });
  };
  int reads_left = 25;
  std::function<void()> next_read = [&] {
    if (reads_left-- <= 0) return;
    const auto id = log.begin_read(1, group.net().now());
    group.client().read(1, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      group.net().schedule_after(300, next_read);
    });
  };
  group.net().schedule_at(0, next_write);
  group.net().schedule_at(10, next_read);
  // Reads at the rejoined process once it is back (chained: the process is
  // sequential, so each read starts only after the previous one completed).
  int rejoin_reads_left = 3;
  std::function<void()> next_rejoin_read = [&] {
    if (rejoin_reads_left-- <= 0) return;
    const auto id = log.begin_read(2, group.net().now());
    group.client().read(2, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      group.net().schedule_after(500, next_rejoin_read);
    });
  };
  group.net().schedule_at(60'000, next_rejoin_read);
  (void)group.net().run();

  EXPECT_TRUE(group.net().process_as<TwoBitProcess>(2).has_recovered());
  const auto verdict = SwmrChecker::check(log.ops(), group.config().initial);
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

// ---- crash-rejoin on the real runtimes ------------------------------------

/// Reads at a freshly recovered process: the recover command races the
/// client submit, so poll until the submit is accepted.
template <typename Net>
OpResult read_after_recovery(Net& net, ProcessId pid) {
  for (int attempt = 0; attempt < 500; ++attempt) {
    OpResult out = net.client().read_sync(pid);
    if (out.status.ok()) return out;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return net.client().read_sync(pid);
}

TEST(ThreadRecovery, CrashedProcessRejoinsAndServesReads) {
  ThreadNetwork::Options opt;
  opt.cfg = make_cfg(3);
  opt.algo = Algorithm::kTwoBit;
  opt.max_delay_us = 100;
  ThreadNetwork net(opt);
  net.start();
  for (int k = 1; k <= 5; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
  }
  net.crash(2);
  while (!net.crashed(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(2).status.code(), StatusCode::kCrashed);
  for (int k = 6; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
  }

  net.recover(2);
  const OpResult out = read_after_recovery(net, 2);
  ASSERT_TRUE(out.status.ok()) << out.status.message();
  EXPECT_EQ(out.value.to_int64(), 10);
  EXPECT_EQ(out.version, 10);
  // The rejoiner keeps serving: writes after the rejoin land there too.
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
  EXPECT_EQ(net.client().read_sync(2).value.to_int64(), 11);
  net.stop();
}

TEST(SocketRecovery, CrashedProcessRejoinsAndServesReads) {
  SocketNetwork::Options opt;
  opt.cfg = make_cfg(3);
  opt.algo = Algorithm::kTwoBit;
  SocketNetwork net(opt);
  net.start();
  for (int k = 1; k <= 5; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
  }
  net.crash(1);
  while (!net.crashed(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(net.client().read_sync(1).status.code(), StatusCode::kCrashed);
  for (int k = 6; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
  }

  net.recover(1);
  const OpResult out = read_after_recovery(net, 1);
  ASSERT_TRUE(out.status.ok()) << out.status.message();
  EXPECT_EQ(out.value.to_int64(), 10);
  EXPECT_EQ(out.version, 10);
  ASSERT_TRUE(net.client().write_sync(Value::from_int64(11)).status.ok());
  EXPECT_EQ(net.client().read_sync(1).value.to_int64(), 11);
  net.stop();
}

}  // namespace
}  // namespace tbr
