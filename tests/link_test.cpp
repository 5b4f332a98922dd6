// Reliable-link layer (src/link): codec round-trips, exactly-once in-order
// delivery over lossy/reordering channels, retransmission behaviour, the
// give-up (membership) path, and full register atomicity when the two-bit
// algorithm rides the link across a network with out-of-model frame loss —
// the deployment fix for the D8 boundary finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"
#include "link/reliable_link.hpp"
#include "runtime/thread_network.hpp"
#include "sim/sim_network.hpp"
#include "workload/workload.hpp"

namespace tbr {
namespace {

// ---- codec ---------------------------------------------------------------------

TEST(LinkCodec, DataRoundTrip) {
  Message msg;
  msg.type = static_cast<std::uint8_t>(LinkType::kData);
  msg.seq = 123456789;
  msg.value = Value::from_string("payload-bytes");
  msg.has_value = true;
  const auto bytes = link_codec().encode(msg);
  const auto back = link_codec().decode(bytes);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_TRUE(back.has_value);
  EXPECT_EQ(back.value, msg.value);
}

TEST(LinkCodec, AckRoundTrip) {
  Message msg;
  msg.type = static_cast<std::uint8_t>(LinkType::kAck);
  msg.seq = 42;
  const auto bytes = link_codec().encode(msg);
  const auto back = link_codec().decode(bytes);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.seq, 42);
  EXPECT_FALSE(back.has_value);
}

TEST(LinkCodec, AccountsTransportHeader) {
  Message data;
  data.type = static_cast<std::uint8_t>(LinkType::kData);
  data.seq = 7;
  data.value = Value::filler(10);
  data.has_value = true;
  const auto acc = link_codec().account(data);
  EXPECT_EQ(acc.control_bits, LinkCodec::kHeaderControlBits);
  EXPECT_EQ(acc.data_bits, 32u + 80u);
}

TEST(LinkCodec, RejectsMalformed) {
  EXPECT_THROW((void)link_codec().decode(""), ContractViolation);
  EXPECT_THROW((void)link_codec().decode("\x05"), ContractViolation);
  // Truncated DATA (claims 100-byte payload, carries none).
  Message msg;
  msg.type = static_cast<std::uint8_t>(LinkType::kData);
  msg.seq = 0;
  msg.value = Value::filler(100);
  msg.has_value = true;
  auto bytes = link_codec().encode(msg);
  bytes.resize(bytes.size() - 50);
  EXPECT_THROW((void)link_codec().decode(bytes), ContractViolation);
}

// ---- probe: exactly-once, in-order delivery -------------------------------------

// A minimal protocol that numbers its frames, so the test can assert the
// service the link claims to provide: each peer's stream arrives exactly
// once, in send order, no matter what the network drops or reorders.
// Emissions are queued with queue_emit() and flushed by start_write(),
// which the wrapping link forwards with its *inner* context — exactly how a
// real protocol's sends reach the link.
class ProbeProcess final : public RegisterProcessBase {
 public:
  ProbeProcess(GroupConfig cfg, ProcessId self)
      : RegisterProcessBase(cfg, self) {}

  void queue_emit(ProcessId to, int count, int base) {
    plan_.push_back({to, count, base});
  }

  void start_write(NetworkContext& net, Value, WriteDone done) override {
    for (const auto& e : plan_) {
      for (int k = 0; k < e.count; ++k) {
        Message msg;
        msg.type = static_cast<std::uint8_t>(TwoBitType::kWrite0);
        msg.value = Value::from_int64(e.base + k);
        msg.has_value = true;
        msg.wire = twobit_codec().account(msg);
        net.send(e.to, msg);
      }
    }
    plan_.clear();
    if (done) done();
  }
  void start_read(NetworkContext&, ReadDone) override {
    TBR_ENSURE(false, "probe has no read operation");
  }
  void on_message(NetworkContext&, ProcessId from,
                  const Message& msg) override {
    received[from].push_back(msg.value.to_int64());
  }
  std::uint64_t local_memory_bytes() const override { return 0; }
  const Codec& codec() const override { return twobit_codec(); }

  std::map<ProcessId, std::vector<std::int64_t>> received;

 private:
  struct Emission {
    ProcessId to;
    int count;
    int base;
  };
  std::vector<Emission> plan_;
};

struct ProbeNet {
  explicit ProbeNet(std::uint32_t n, double loss, std::uint64_t seed,
                    LinkOptions lopt = LinkOptions()) {
    GroupConfig cfg;
    cfg.n = n;
    cfg.t = (n - 1) / 2;
    cfg.initial = Value::from_int64(0);
    std::vector<std::unique_ptr<ProcessBase>> procs;
    for (ProcessId pid = 0; pid < n; ++pid) {
      auto probe = std::make_unique<ProbeProcess>(cfg, pid);
      probes.push_back(probe.get());
      auto linked = std::make_unique<ReliableLinkProcess>(
          cfg, pid, std::move(probe), lopt);
      links.push_back(linked.get());
      procs.push_back(std::move(linked));
    }
    SimNetwork::Options nopt;
    nopt.seed = seed;
    nopt.loss_rate = loss;
    nopt.delay = make_uniform_delay(1, 900);  // heavy reordering
    net = std::make_unique<SimNetwork>(std::move(procs), std::move(nopt));
  }

  std::vector<ProbeProcess*> probes;
  std::vector<ReliableLinkProcess*> links;
  std::unique_ptr<SimNetwork> net;

  /// Flush queued emissions at process `pid` through its link.
  void flush(ProcessId pid) {
    net->schedule_at(net->now() + 1, [this, pid] {
      links[pid]->start_write(net->context(pid), Value(), [] {});
    });
  }
};

TEST(ReliableLink, InOrderExactlyOnceWithoutLoss) {
  ProbeNet pn(3, 0.0, 7);
  pn.probes[0]->queue_emit(1, 64, 0);
  pn.flush(0);
  ASSERT_TRUE(pn.net->run());
  std::vector<std::int64_t> expect(64);
  for (int k = 0; k < 64; ++k) expect[static_cast<std::size_t>(k)] = k;
  EXPECT_EQ(pn.probes[1]->received[0], expect);
  EXPECT_EQ(pn.links[0]->link_stats().retransmit_frames, 0u);
}

class ReliableLinkLossy : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ReliableLinkLossy, InOrderExactlyOnceUnderHeavyLoss) {
  // 25% of all frames (data AND acks) evaporate; both directions stream
  // concurrently. The service must still be exactly-once, in-order.
  ProbeNet pn(3, 0.25, GetParam());
  pn.probes[0]->queue_emit(1, 50, 0);
  pn.probes[0]->queue_emit(2, 50, 1000);
  pn.probes[1]->queue_emit(0, 50, 2000);
  pn.flush(0);
  pn.flush(1);
  ASSERT_TRUE(pn.net->run(5'000'000));
  std::vector<std::int64_t> expect_a(50), expect_b(50), expect_c(50);
  for (int k = 0; k < 50; ++k) {
    expect_a[static_cast<std::size_t>(k)] = k;
    expect_b[static_cast<std::size_t>(k)] = 1000 + k;
    expect_c[static_cast<std::size_t>(k)] = 2000 + k;
  }
  EXPECT_EQ(pn.probes[1]->received[0], expect_a);
  EXPECT_EQ(pn.probes[2]->received[0], expect_b);
  EXPECT_EQ(pn.probes[0]->received[1], expect_c);
  // Loss happened, so the link must have worked for a living.
  EXPECT_GT(pn.net->frames_lost(), 0u);
  EXPECT_GT(pn.links[0]->link_stats().retransmit_frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReliableLinkLossy,
                         testing::Range<std::uint64_t>(1, 13));

TEST(ReliableLink, WindowBacklogDrains) {
  LinkOptions lopt;
  lopt.window = 4;  // force the backlog path: 40 frames through a 4-window
  ProbeNet pn(3, 0.10, 11, lopt);
  pn.probes[0]->queue_emit(1, 40, 0);
  pn.flush(0);
  ASSERT_TRUE(pn.net->run(5'000'000));
  ASSERT_EQ(pn.probes[1]->received[0].size(), 40u);
  EXPECT_TRUE(std::is_sorted(pn.probes[1]->received[0].begin(),
                             pn.probes[1]->received[0].end()));
  EXPECT_EQ(pn.links[0]->queued_to(1), 0u);
}

TEST(ReliableLink, GivesUpOnCrashedPeerAfterMaxRetries) {
  LinkOptions lopt;
  lopt.max_retries = 5;
  ProbeNet pn(3, 0.0, 3, lopt);
  pn.net->schedule_at(1, [&] { pn.net->crash_now(1); });
  pn.probes[0]->queue_emit(1, 8, 0);
  pn.flush(0);
  ASSERT_TRUE(pn.net->run(5'000'000)) << "give-up must keep the sim finite";
  EXPECT_TRUE(pn.links[0]->peer_dead(1));
  EXPECT_EQ(pn.links[0]->link_stats().peers_declared_dead, 1u);
  EXPECT_EQ(pn.links[0]->queued_to(1), 0u);
  // The live pair is unaffected.
  pn.probes[0]->queue_emit(2, 8, 0);
  pn.flush(0);
  ASSERT_TRUE(pn.net->run(5'000'000));
  EXPECT_EQ(pn.probes[2]->received[0].size(), 8u);
}

TEST(ReliableLink, DuplicateDataIsSuppressedAndReAcked) {
  // Directly deliver a crafted duplicate: receiver must re-ACK, not re-deliver.
  ProbeNet pn(2, 0.0, 5);
  pn.probes[0]->queue_emit(1, 3, 0);
  pn.flush(0);
  ASSERT_TRUE(pn.net->run());
  ASSERT_EQ(pn.probes[1]->received[0].size(), 3u);
  // Replay link seq 0 at the receiving link.
  Message dup;
  dup.type = static_cast<std::uint8_t>(LinkType::kData);
  dup.seq = 0;
  Message inner;
  inner.type = static_cast<std::uint8_t>(TwoBitType::kWrite0);
  inner.value = Value::from_int64(0);
  inner.has_value = true;
  dup.value = Value::from_bytes(twobit_codec().encode(inner));
  dup.has_value = true;
  dup.wire = link_codec().account(dup);
  pn.net->schedule_at(pn.net->now() + 1, [&] {
    pn.links[1]->on_message(pn.net->context(1), 0, dup);
  });
  ASSERT_TRUE(pn.net->run());
  EXPECT_EQ(pn.probes[1]->received[0].size(), 3u) << "duplicate delivered";
  EXPECT_EQ(pn.links[1]->link_stats().duplicates_received, 1u);
}

// ---- the register over the link ---------------------------------------------------

ProcessFactory linked_twobit_factory(LinkOptions lopt = LinkOptions()) {
  return [lopt](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ReliableLinkProcess>(
        cfg, pid, std::make_unique<TwoBitProcess>(cfg, pid), lopt);
  };
}

TEST(LinkedRegister, QuickstartSemanticsPreserved) {
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 5;
  gopt.cfg.t = 2;
  gopt.cfg.initial = Value::from_string("v0");
  gopt.process_factory = linked_twobit_factory();
  SimRegisterGroup group(std::move(gopt));
  group.client().write_sync(Value::from_string("v1"));
  EXPECT_EQ(group.client().read_sync(3).value.to_string(), "v1");
  group.client().write_sync(Value::from_string("v2"));
  EXPECT_EQ(group.client().read_sync(1).value.to_string(), "v2");
  EXPECT_EQ(group.client().read_sync(0).value.to_string(), "v2");
}

struct LossCase {
  double loss;
  std::uint64_t seed;
};

class LinkedRegisterLossy : public testing::TestWithParam<LossCase> {};

TEST_P(LinkedRegisterLossy, AtomicAndLiveUnderLoss) {
  // The D8 experiment shows the bare two-bit register stalls at ~1% loss.
  // Over the link it must stay atomic AND live at 20x that.
  const auto& c = GetParam();
  SimRegisterGroup::Options engine;
  engine.cfg.n = 5;
  engine.cfg.t = 2;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.seed = c.seed;
  engine.loss_rate = c.loss;
  engine.process_factory = linked_twobit_factory();
  engine.delay = make_uniform_delay(1, 700);
  WorkloadOptions opt;
  opt.ops_per_process = 10;
  opt.think_time_max = 300;
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained) << "retransmission kept frames in flight";
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct)
      << "liveness over lossy links is the whole point of the link layer";
}

std::vector<LossCase> loss_cases() {
  std::vector<LossCase> cases;
  std::uint64_t seed = 100;
  for (const double loss : {0.01, 0.05, 0.20}) {
    for (int s = 0; s < 4; ++s) cases.push_back({loss, seed++});
  }
  return cases;
}

std::string loss_case_name(const testing::TestParamInfo<LossCase>& param) {
  return "loss" + std::to_string(static_cast<int>(param.param.loss * 100)) +
         "_s" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, LinkedRegisterLossy,
                         testing::ValuesIn(loss_cases()), loss_case_name);

TEST(LinkedRegister, CrashedMinorityWithGiveUp) {
  // Crashes + unbounded retries would keep the event queue alive forever;
  // max_retries turns a dead peer into a purged stream and the group stays
  // live through its quorum.
  LinkOptions lopt;
  lopt.max_retries = 8;
  SimRegisterGroup::Options engine;
  engine.cfg.n = 5;
  engine.cfg.t = 2;
  engine.cfg.writer = 0;
  engine.cfg.initial = Value::from_int64(0);
  engine.seed = 77;
  engine.process_factory = linked_twobit_factory(lopt);
  WorkloadOptions opt;
  opt.ops_per_process = 8;
  opt.crashes = 2;
  opt.crash_horizon = 20'000;
  const auto result = run_workload(std::move(engine), opt);
  ASSERT_TRUE(result.drained);
  const auto check = result.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_EQ(result.completed_by_correct, result.quota_of_correct);
}

TEST(LinkedRegister, ComposesOnTheThreadRuntime) {
  // Same decorator on real threads (timers via the dispatcher heap). The
  // thread runtime's channels are reliable, so the link must behave as an
  // exactly-once pass-through.
  ThreadNetwork::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  LinkOptions lopt;
  lopt.retransmit_timeout = 50'000'000;  // 50 ms in ns
  opt.process_factory = [lopt](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<ReliableLinkProcess>(
        cfg, pid, std::make_unique<TwoBitProcess>(cfg, pid), lopt);
  };
  ThreadNetwork net(opt);
  net.start();
  for (int k = 1; k <= 10; ++k) {
    ASSERT_TRUE(net.client().write_sync(Value::from_int64(k)).status.ok());
    EXPECT_EQ(net.client()
                  .read_sync(static_cast<ProcessId>(k % 3))
                  .value.to_int64(),
              k);
  }
  net.stop();
}

TEST(LinkedRegister, InnerAccountingSeparatesProtocolFromTransport) {
  SimRegisterGroup::Options gopt;
  gopt.cfg.n = 3;
  gopt.cfg.t = 1;
  gopt.cfg.initial = Value::from_int64(0);
  gopt.process_factory = linked_twobit_factory();
  SimRegisterGroup group(std::move(gopt));
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  std::uint64_t inner_bits = 0, header_bits = 0, delivered = 0;
  for (ProcessId pid = 0; pid < 3; ++pid) {
    const auto& link =
        group.net().process_as<ReliableLinkProcess>(pid).link_stats();
    inner_bits += link.inner_control_bits;
    header_bits += link.header_control_bits;
    delivered += link.payloads_delivered;
  }
  // Every register-protocol frame costs exactly 2 control bits; transport
  // headers are bigger but belong to the link, not the protocol.
  EXPECT_EQ(inner_bits, 2 * delivered);
  EXPECT_GT(header_bits, inner_bits);
}

}  // namespace
}  // namespace tbr
