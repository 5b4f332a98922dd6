// Simulator tests: event ordering, determinism, delay models, crash
// semantics, in-flight introspection and post-event hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "common/contracts.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_network.hpp"

namespace tbr {
namespace {

// A trivial process that counts deliveries and can bounce messages back.
class PingProcess final : public ProcessBase {
 public:
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override {
    ++received;
    last_from = from;
    last_type = msg.type;
    if (bounce_budget > 0) {
      --bounce_budget;
      Message reply;
      reply.type = 1;
      reply.wire = {2, 0};
      net.send(from, reply);
    }
  }
  void on_crash() override { crashed = true; }

  int received = 0;
  int bounce_budget = 0;
  ProcessId last_from = kNoProcess;
  std::uint8_t last_type = 255;
  bool crashed = false;
};

std::vector<std::unique_ptr<ProcessBase>> make_pings(std::size_t n) {
  std::vector<std::unique_ptr<ProcessBase>> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<PingProcess>());
  }
  return out;
}

Message mk(std::uint8_t type) {
  Message m;
  m.type = type;
  m.wire = {2, 0};
  return m;
}

// ---- EventQueue ---------------------------------------------------------------

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, NextTimeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNever);
  q.schedule(42, [] {});
  EXPECT_EQ(q.next_time(), 42);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RejectsNullAndNegative) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1, nullptr), ContractViolation);
  EXPECT_THROW(q.schedule(-1, [] {}), ContractViolation);
}

// The heap's ordering property: any interleaving of typed schedules and
// pops comes out in ascending (at, id) order with every routing field
// intact, checked against a brute-force reference. Phases alternate
// push-heavy and pop-heavy; timestamps mix duplicates, small steps and
// +1e9 far-future outliers.
TEST(EventQueueTest, RandomInterleavingPopsInTimeThenIdOrder) {
  struct Pending {
    Tick at = 0;
    EventQueue::EventId id = 0;
    EventQueue::Kind kind = EventQueue::Kind::kClosure;
    std::uint32_t loop = 0;
    EventQueue::FrameId frame = 0;
  };
  for (const std::uint64_t seed : {1u, 42u, 1337u}) {
    SCOPED_TRACE(seed);
    EventQueue q;
    std::vector<Pending> pending;
    Rng rng(seed);
    Tick frontier = 0;

    auto push_one = [&] {
      Tick at = frontier;
      const double shape = rng.uniform01();
      if (shape < 0.25) {
        // duplicate timestamp: ties must pop in schedule order
      } else if (shape < 0.92) {
        at = frontier + rng.uniform(1, 5000);
      } else {
        at = frontier + 1'000'000'000;  // far-future outlier
      }
      const auto loop = static_cast<std::uint32_t>(rng.uniform(0, 7));
      const auto frame = static_cast<EventQueue::FrameId>(rng.uniform(0, 999));
      switch (rng.uniform(0, 2)) {
        case 0:
          pending.push_back({at, q.schedule(at, [] {}),
                             EventQueue::Kind::kClosure, 0, 0});
          break;
        case 1:
          pending.push_back({at, q.schedule_deliver(at, frame),
                             EventQueue::Kind::kDeliver, 0, frame});
          break;
        default:
          pending.push_back({at, q.schedule_drain(at, loop),
                             EventQueue::Kind::kDrain, loop, 0});
          break;
      }
    };
    auto pop_and_compare = [&] {
      const auto want = std::min_element(
          pending.begin(), pending.end(),
          [](const Pending& a, const Pending& b) {
            return std::tie(a.at, a.id) < std::tie(b.at, b.id);
          });
      ASSERT_EQ(q.size(), pending.size());
      ASSERT_EQ(q.next_time(), want->at);
      const auto got = q.pop_next();
      ASSERT_EQ(got.at, want->at);
      ASSERT_EQ(got.id, want->id);
      ASSERT_EQ(static_cast<int>(got.kind), static_cast<int>(want->kind));
      ASSERT_EQ(got.loop, want->loop);
      ASSERT_EQ(got.frame, want->frame);
      ASSERT_EQ(static_cast<bool>(got.fn),
                got.kind == EventQueue::Kind::kClosure);
      frontier = got.at;
      pending.erase(want);
    };

    for (int phase = 0; phase < 6; ++phase) {
      const double push_bias = (phase % 2 == 0) ? 0.8 : 0.2;
      for (int step = 0; step < 600; ++step) {
        if (pending.empty() || rng.chance(push_bias)) {
          push_one();
        } else {
          ASSERT_NO_FATAL_FAILURE(pop_and_compare());
        }
      }
    }
    while (!pending.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_compare());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), kNever);
  }
}

// ---- delay models -----------------------------------------------------------------

TEST(DelayModelTest, ConstantIsConstant) {
  ConstantDelay d(500);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(d.delay(rng, 0, 1, m), 500);
}

TEST(DelayModelTest, UniformStaysInRange) {
  UniformDelay d(10, 20);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(rng, 0, 1, m);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 20);
  }
}

TEST(DelayModelTest, ExponentialPositiveAndCapped) {
  ExponentialDelay d(100, 1000);
  Rng rng(1);
  Message m;
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.delay(rng, 0, 1, m);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 1000);
  }
}

TEST(DelayModelTest, FlipFlopAlternatesPerChannel) {
  FlipFlopDelay d(10, 1000, 3);
  Rng rng(1);
  Message m;
  // Channel 0->1: slow, fast, slow, ...
  EXPECT_EQ(d.delay(rng, 0, 1, m), 1000);
  EXPECT_EQ(d.delay(rng, 0, 1, m), 10);
  EXPECT_EQ(d.delay(rng, 0, 1, m), 1000);
  // Independent channel 1->0 starts fresh.
  EXPECT_EQ(d.delay(rng, 1, 0, m), 1000);
}

TEST(DelayModelTest, StragglerSlowsItsLinksOnly) {
  StragglerDelay d(2, 900, 10);
  Rng rng(1);
  Message m;
  EXPECT_EQ(d.delay(rng, 0, 1, m), 10);
  EXPECT_EQ(d.delay(rng, 0, 2, m), 900);
  EXPECT_EQ(d.delay(rng, 2, 1, m), 900);
}

TEST(DelayModelTest, ConstructorContracts) {
  EXPECT_THROW(ConstantDelay(0), ContractViolation);
  EXPECT_THROW(UniformDelay(5, 4), ContractViolation);
  EXPECT_THROW(ExponentialDelay(10, 5), ContractViolation);
  EXPECT_THROW(FlipFlopDelay(10, 10, 2), ContractViolation);
}

// ---- SimNetwork ----------------------------------------------------------------------

TEST(SimNetworkTest, DeliversWithDelay) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.now(), 100);
  auto& p1 = net.process_as<PingProcess>(1);
  EXPECT_EQ(p1.received, 1);
  EXPECT_EQ(p1.last_from, 0u);
}

TEST(SimNetworkTest, SelfSendIsContractError) {
  SimNetwork net(make_pings(2), {});
  net.schedule_at(0, [&] { net.context(0).send(0, mk(0)); });
  EXPECT_THROW((void)net.run(), ContractViolation);
}

TEST(SimNetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    SimNetwork::Options opt;
    opt.seed = seed;
    opt.delay = make_uniform_delay(1, 1000);
    SimNetwork net(make_pings(3), std::move(opt));
    auto& p0 = net.process_as<PingProcess>(0);
    p0.bounce_budget = 50;
    net.process_as<PingProcess>(1).bounce_budget = 50;
    net.schedule_at(0, [&] { net.context(1).send(0, mk(0)); });
    (void)net.run();
    return std::make_tuple(net.now(), net.events_executed(),
                           net.stats().total_sent());
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(SimNetworkTest, CrashStopsDelivery) {
  SimNetwork net(make_pings(2), {});
  net.crash_now(1);
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
  EXPECT_EQ(net.stats().total_dropped(), 1u);
  EXPECT_TRUE(net.process_as<PingProcess>(1).crashed);
}

TEST(SimNetworkTest, CrashMidFlightDropsAtDelivery) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  net.crash_at(1, 50);  // frame is in flight when the receiver dies
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
  EXPECT_EQ(net.stats().total_dropped(), 1u);
}

TEST(SimNetworkTest, CrashedSendersPacketsStillFly) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  net.crash_at(0, 10);  // sender dies after sending
  EXPECT_TRUE(net.run());
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 1);
}

TEST(SimNetworkTest, InFlightIntrospection) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(100);
  SimNetwork net(make_pings(3), std::move(opt));
  net.schedule_at(0, [&] {
    net.context(0).send(1, mk(0));
    net.context(0).send(2, mk(1));
  });
  // Run just the send event.
  EXPECT_FALSE(net.run(/*max_events=*/1));
  const auto flights = net.in_flight();
  ASSERT_EQ(flights.size(), 2u);
  EXPECT_EQ(std::count_if(flights.begin(), flights.end(),
                          [](const InFlightFrame& f) {
                            return f.from == 0 && f.to == 1 && f.type == 0;
                          }),
            1);
  EXPECT_TRUE(net.run());
  EXPECT_TRUE(net.in_flight().empty());

  // A frame waiting behind a busy CPU is still in flight: two frames reach
  // one peer at t=100, the first holds its CPU until t=1100, the second
  // waits for it.
  SimNetwork::Options busy;
  busy.delay = make_constant_delay(100);
  busy.service_time = 1000;
  SimNetwork parked(make_pings(2), std::move(busy));
  parked.schedule_at(0, [&] {
    parked.context(0).send(1, mk(0));
    parked.context(0).send(1, mk(1));
  });
  EXPECT_FALSE(parked.run(/*max_events=*/3));  // the sends, two Delivers
  EXPECT_EQ(parked.now(), 100);
  EXPECT_EQ(parked.process_as<PingProcess>(1).received, 1);
  const auto waiting = parked.in_flight();
  ASSERT_EQ(waiting.size(), 1u);
  EXPECT_EQ(waiting[0].type, 1);
  EXPECT_TRUE(parked.run());
  EXPECT_TRUE(parked.in_flight().empty());
}

TEST(SimNetworkTest, PostEventHookSeesEveryEvent) {
  SimNetwork net(make_pings(2), {});
  int hooks = 0;
  net.set_post_event_hook([&hooks](SimNetwork&) { ++hooks; });
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(hooks, 2);  // the client event + the delivery
}

TEST(SimNetworkTest, RunUntilPredicate) {
  SimNetwork net(make_pings(2), {});
  auto& p1 = net.process_as<PingProcess>(1);
  for (int i = 0; i < 5; ++i) {
    net.schedule_at(i * 10, [&] { net.context(0).send(1, mk(0)); });
  }
  EXPECT_TRUE(net.run_until([&] { return p1.received >= 2; }));
  EXPECT_EQ(p1.received, 2);
  EXPECT_TRUE(net.run());
  EXPECT_EQ(p1.received, 5);
}

TEST(SimNetworkTest, MaxTimeStopsEarly) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(1000);
  SimNetwork net(make_pings(2), std::move(opt));
  net.schedule_at(0, [&] { net.context(0).send(1, mk(0)); });
  EXPECT_FALSE(net.run(SimNetwork::kDefaultMaxEvents, /*max_time=*/500));
  EXPECT_EQ(net.process_as<PingProcess>(1).received, 0);
}

TEST(SimNetworkTest, SchedulingInThePastRejected) {
  SimNetwork net(make_pings(1), {});
  net.schedule_at(100, [] {});
  (void)net.run();
  EXPECT_THROW(net.schedule_at(50, [] {}), ContractViolation);
}

TEST(SimNetworkTest, StatsAccumulateWire) {
  SimNetwork net(make_pings(2), {});
  net.schedule_at(0, [&] {
    Message m = mk(0);
    m.wire = {2, 64};
    net.context(0).send(1, m);
  });
  (void)net.run();
  EXPECT_EQ(net.stats().total_control_bits(), 2u);
  EXPECT_EQ(net.stats().total_data_bits(), 64u);
}

// ---- capacity model (service_time / service_loops) ---------------------------

SimNetwork::Options capacity_options(Tick service_time, std::uint32_t loops,
                                     Tick delay) {
  SimNetwork::Options opt;
  opt.delay = make_constant_delay(delay);
  opt.service_time = service_time;
  opt.service_loops = loops;
  opt.recover_factory = [](ProcessId) {
    return std::make_unique<PingProcess>();
  };
  return opt;
}

std::vector<Tick> delivery_times(const TraceLog& trace, ProcessId to) {
  std::vector<Tick> out;
  for (const auto& e : trace.of_kind(TraceEvent::Kind::kDeliver)) {
    if (e.to == to) out.push_back(e.at);
  }
  return out;
}

TEST(SimNetworkTest, RecoverIgnoresStaleServiceDrain) {
  // Node 1 crashes and recovers with frames parked behind its CPU. The drain
  // scheduled for the old incarnation (t=1010) must not serve the new
  // incarnation's second frame while its CPU is busy until 1510.
  SimNetwork net(make_pings(2), capacity_options(1000, 0, 10));
  TraceLog trace;
  net.set_trace(&trace);
  net.schedule_at(0, [&] {
    for (int k = 0; k < 3; ++k) net.context(0).send(1, mk(0));
  });
  net.crash_at(1, 20);
  net.recover_at(1, 30);
  net.schedule_at(500, [&] {
    for (int k = 0; k < 2; ++k) net.context(0).send(1, mk(0));
  });
  EXPECT_TRUE(net.run());
  EXPECT_EQ(delivery_times(trace, 1), (std::vector<Tick>{10, 510, 1510}));
  EXPECT_EQ(net.stats().total_dropped(), 2u);
}

TEST(SimNetworkTest, SharedLoopSerializesFramesToDifferentNodes) {
  for (const std::uint32_t loops : {0u, 1u}) {
    SimNetwork net(make_pings(3), capacity_options(100, loops, 10));
    TraceLog trace;
    net.set_trace(&trace);
    net.schedule_at(0, [&] {
      net.context(0).send(1, mk(0));
      net.context(0).send(2, mk(0));
    });
    EXPECT_TRUE(net.run());
    EXPECT_EQ(delivery_times(trace, 1), std::vector<Tick>{10});
    // One shared loop handles node 2's frame a service interval later.
    EXPECT_EQ(delivery_times(trace, 2),
              std::vector<Tick>{loops == 1 ? 110 : 10});
  }
}

TEST(SimNetworkTest, ServiceLoopsZeroOrNMatchOneCpuPerProcess) {
  // Congested bouncing traffic with a crash: one loop per process (0, n,
  // or more than n) must replay the default configuration event for event.
  auto run_trace = [](std::optional<std::uint32_t> loops) {
    SimNetwork::Options opt;
    opt.seed = 11;
    opt.delay = make_uniform_delay(1, 400);
    opt.service_time = 300;
    if (loops) opt.service_loops = *loops;
    SimNetwork net(make_pings(4), std::move(opt));
    for (ProcessId p = 0; p < 4; ++p) {
      net.process_as<PingProcess>(p).bounce_budget = 40;
    }
    net.schedule_at(0, [&] {
      for (ProcessId p = 1; p < 4; ++p) {
        net.context(0).send(p, mk(0));
        net.context(p).send(0, mk(0));
      }
    });
    net.crash_at(3, 2000);
    TraceLog trace;
    net.set_trace(&trace);
    EXPECT_TRUE(net.run());
    std::vector<std::tuple<int, Tick, ProcessId, ProcessId>> out;
    for (const auto& e : trace.events()) {
      out.emplace_back(static_cast<int>(e.kind), e.at, e.from, e.to);
    }
    return out;
  };
  const auto unset = run_trace(std::nullopt);
  EXPECT_GT(unset.size(), 100u);
  EXPECT_EQ(run_trace(0u), unset);
  EXPECT_EQ(run_trace(4u), unset);
  EXPECT_EQ(run_trace(9u), unset);
  EXPECT_NE(run_trace(1u), unset);
}

TEST(SimNetworkTest, CrashOnSharedLoopDropsOnlyItsFrames) {
  SimNetwork net(make_pings(3), capacity_options(100, 1, 10));
  TraceLog trace;
  net.set_trace(&trace);
  net.schedule_at(0, [&] {
    for (const ProcessId to : {1u, 1u, 2u, 2u}) net.context(0).send(to, mk(0));
  });
  net.crash_at(1, 50);  // node 1's second frame is still parked
  EXPECT_TRUE(net.run());
  EXPECT_EQ(delivery_times(trace, 1), std::vector<Tick>{10});
  // The dropped frame costs no loop CPU: node 2's frames follow the one
  // node 1 handled directly.
  EXPECT_EQ(delivery_times(trace, 2), (std::vector<Tick>{110, 210}));
  EXPECT_EQ(net.stats().total_dropped(), 1u);
}

TEST(SimNetworkTest, RecoverOnSharedLoopKeepsOthersFramesAndClock) {
  SimNetwork net(make_pings(3), capacity_options(100, 1, 10));
  TraceLog trace;
  net.set_trace(&trace);
  net.schedule_at(0, [&] {
    for (const ProcessId to : {1u, 1u, 2u}) net.context(0).send(to, mk(0));
  });
  net.crash_at(1, 20);
  net.recover_at(1, 30);  // drops node 1's parked frame, keeps node 2's
  EXPECT_TRUE(net.run());
  EXPECT_EQ(delivery_times(trace, 1), std::vector<Tick>{10});
  // The loop was busy with node 1's first frame until 110; recovering
  // node 1 does not free it early.
  EXPECT_EQ(delivery_times(trace, 2), std::vector<Tick>{110});
  EXPECT_EQ(net.stats().total_dropped(), 1u);
}

// ---- FaultPlan -----------------------------------------------------------------------

GroupConfig small_cfg() {
  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

TEST(FaultPlanTest, RandomRespectsBudgetAndWriterFlag) {
  Rng rng(3);
  const auto plan = FaultPlan::random(rng, small_cfg(), 2, 1000,
                                      /*allow_writer=*/false);
  EXPECT_LE(plan.crashes.size(), 2u);
  for (const auto& c : plan.crashes) {
    EXPECT_NE(c.pid, 0u);
    EXPECT_LE(c.at, 1000);
  }
}

TEST(FaultPlanTest, RandomRejectsOverBudget) {
  Rng rng(3);
  EXPECT_THROW(
      (void)FaultPlan::random(rng, small_cfg(), 3, 1000, false),
      ContractViolation);
}

TEST(FaultPlanTest, DeterministicPicksHighestNonWriter) {
  const auto plan = FaultPlan::deterministic(small_cfg(), 2, 77);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].pid, 4u);
  EXPECT_EQ(plan.crashes[1].pid, 3u);
  EXPECT_EQ(plan.crashes[0].at, 77);
}

TEST(FaultPlanTest, InstallCrashesProcesses) {
  SimNetwork net(make_pings(5), {});
  const auto plan = FaultPlan::deterministic(small_cfg(), 2, 10);
  plan.install(net);
  (void)net.run();
  EXPECT_TRUE(net.crashed(4));
  EXPECT_TRUE(net.crashed(3));
  EXPECT_FALSE(net.crashed(0));
  EXPECT_EQ(net.crash_count(), 2u);
}

}  // namespace
}  // namespace tbr
