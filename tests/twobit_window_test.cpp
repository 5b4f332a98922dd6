// The bounded-history ablation (TwoBitOptions::history_window): the
// executable form of the paper's concluding open problem. Safety must
// survive any window; liveness must fail exactly when eviction outpaces a
// laggard; generous windows must be indistinguishable from the faithful
// algorithm.
#include <gtest/gtest.h>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"
#include "core/twobit_process.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = 1000;

SimRegisterGroup make_windowed(std::uint32_t n, std::size_t window,
                               std::unique_ptr<DelayModel> delay) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = (n - 1) / 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = std::move(delay);
  opt.process_factory = [window](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions options;
    options.history_window = window;
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  return SimRegisterGroup(std::move(opt));
}

TEST(TwoBitWindow, GenerousWindowBehavesFaithfully) {
  // Window far larger than any lag: identical behaviour, zero skipped
  // catch-ups, full liveness.
  auto group = make_windowed(5, 100, make_constant_delay(kDelta));
  for (int k = 1; k <= 40; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();
  for (ProcessId pid = 0; pid < 5; ++pid) {
    const auto& p = group.net().process_as<TwoBitProcess>(pid);
    EXPECT_EQ(p.wsync(pid), 40);
    EXPECT_EQ(p.skipped_catchups(), 0u);
  }
  EXPECT_EQ(group.client().read_sync(3).value.to_int64(), 40);
}

TEST(TwoBitWindow, WindowBoundsResidentHistory) {
  auto group = make_windowed(3, 4, make_constant_delay(kDelta));
  for (int k = 1; k <= 20; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();
  const auto& writer = group.net().process_as<TwoBitProcess>(0);
  EXPECT_EQ(writer.history().size(), 4u);
  EXPECT_EQ(writer.history_base(), 17);  // retains indices 17..20
  EXPECT_EQ(writer.evicted_count(), 17u);
  // Reads still serve the newest value.
  EXPECT_EQ(group.client().read_sync(1).value.to_int64(), 20);
}

TEST(TwoBitWindow, WindowCapsLocalMemory) {
  auto bounded = make_windowed(3, 8, make_constant_delay(kDelta));
  SimRegisterGroup::Options faithful_opt;
  faithful_opt.cfg.n = 3;
  faithful_opt.cfg.t = 1;
  faithful_opt.cfg.writer = 0;
  faithful_opt.cfg.initial = Value::from_int64(0);
  faithful_opt.algo = Algorithm::kTwoBit;
  faithful_opt.delay = make_constant_delay(kDelta);
  SimRegisterGroup faithful(std::move(faithful_opt));

  for (int k = 1; k <= 200; ++k) {
    bounded.client().write_sync(Value::from_int64(k));
    faithful.client().write_sync(Value::from_int64(k));
  }
  bounded.settle();
  faithful.settle();
  const auto bounded_mem = bounded.process(1).local_memory_bytes();
  const auto faithful_mem = faithful.process(1).local_memory_bytes();
  EXPECT_LT(bounded_mem, faithful_mem / 5);
}

TEST(TwoBitWindow, StraggledProcessStallsForever) {
  // Straggler 32x slower, window 4, 30 writes: by the time its echoes reach
  // anyone, the values it needs next are evicted everywhere. It must stall
  // (Lemma 6/9 break) while everyone else completes.
  auto group = make_windowed(
      5, 4, make_straggler_delay(4, 32 * kDelta, kDelta));
  for (int k = 1; k <= 30; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();

  const auto& straggler = group.net().process_as<TwoBitProcess>(4);
  EXPECT_LT(straggler.wsync(4), 30) << "straggler must be permanently stale";
  std::uint64_t skipped = 0;
  for (ProcessId pid = 0; pid < 5; ++pid) {
    skipped +=
        group.net().process_as<TwoBitProcess>(pid).skipped_catchups();
  }
  EXPECT_GT(skipped, 0u) << "eviction must have bitten at least once";

  // Fresh processes still read fine (liveness only dies for the laggard)...
  EXPECT_EQ(group.client().read_sync(1).value.to_int64(), 30);

  // ...but a read at the straggler cannot terminate: responders wait
  // forever for freshness the straggler can never reach.
  bool read_done = false;
  group.client().read(4, [&](const OpResult&) { read_done = true; });
  (void)group.net().run();
  EXPECT_FALSE(read_done) << "Lemma 9 must fail under eviction, by design";
}

TEST(TwoBitWindow, SafetyHoldsEvenWhenLivenessDies) {
  // Same straggler setup driven through the workload machinery: whatever
  // completes must still be atomic.
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 5;
  gopt.cfg.t = 2;
  gopt.cfg.writer = 0;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.seed = 3;
  gopt.delay = make_straggler_delay(4, 40 * kDelta, kDelta / 2);
  // Windowed processes via the group factory.
  gopt.process_factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions options;
    options.history_window = 3;
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));

  HistoryLog log;
  SeqNo widx = 0;
  // Writer: 15 writes; reader p1: 15 reads; straggler p4: 3 reads that may
  // never finish. Closed-loop via completion chaining.
  std::function<void()> next_write = [&] {
    if (widx >= 15) return;
    ++widx;
    Value v = Value::from_int64(widx);
    const auto id = log.begin_write(0, group.net().now(), widx, v);
    group.client().write(std::move(v), [&, id](const OpResult&) {
      log.end_write(id, group.net().now());
      group.net().schedule_after(50, next_write);
    });
  };
  int reads_left = 15;
  std::function<void()> next_read = [&] {
    if (reads_left-- <= 0) return;
    const auto id = log.begin_read(1, group.net().now());
    group.client().read(1, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
      group.net().schedule_after(80, next_read);
    });
  };
  group.net().schedule_at(0, next_write);
  group.net().schedule_at(10, next_read);
  // One read at the straggler; it may never complete (stays incomplete in
  // the log, which the atomicity definition tolerates).
  group.net().schedule_at(1000, [&] {
    const auto id = log.begin_read(4, group.net().now());
    group.client().read(4, [&, id](const OpResult& r) {
      log.end_read(id, group.net().now(), r.value, r.version);
    });
  });
  (void)group.net().run();

  const auto verdict = SwmrChecker::check(log.ops(), group.config().initial);
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

TEST(TwoBitWindow, FaithfulModeNeverEvicts) {
  auto group = make_windowed(3, 0, make_constant_delay(kDelta));  // window 0
  for (int k = 1; k <= 50; ++k) group.client().write_sync(Value::from_int64(k));
  group.settle();
  const auto& p = group.net().process_as<TwoBitProcess>(1);
  EXPECT_EQ(p.evicted_count(), 0u);
  EXPECT_EQ(p.history_base(), 0);
  EXPECT_EQ(p.history().size(), 51u);
}

}  // namespace
}  // namespace tbr
