// Timing tests under the paper's model (all delays = Δ, instantaneous local
// steps): write <= 2Δ and read <= 4Δ (Table 1 lines 5-6 for the proposed
// algorithm), including the worst-case read/write phase alignment.
#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "workload/sim_register_group.hpp"

namespace tbr {
namespace {

constexpr Tick kDelta = 1000;

SimRegisterGroup make_group(std::uint32_t n, std::uint32_t t) {
  SimRegisterGroup::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = t;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_constant_delay(kDelta);
  return SimRegisterGroup(std::move(opt));
}

TEST(TwoBitTiming, WriteTakesExactlyTwoDelta) {
  for (const std::uint32_t n : {3u, 5u, 9u}) {
    auto group = make_group(n, (n - 1) / 2);
    for (int k = 1; k <= 5; ++k) {
      const Tick latency = group.client().write_sync(Value::from_int64(k)).latency;
      EXPECT_EQ(latency, 2 * kDelta) << "n=" << n << " write#" << k;
      group.settle();
    }
  }
}

TEST(TwoBitTiming, WritePipelineWithoutSettleStaysTwoDelta) {
  // Back-to-back writes (no settle): each still completes in 2Δ because the
  // quorum echo is the first-hop response of the previous dissemination.
  auto group = make_group(5, 2);
  for (int k = 1; k <= 10; ++k) {
    EXPECT_EQ(group.client().write_sync(Value::from_int64(k)).latency, 2 * kDelta);
  }
}

TEST(TwoBitTiming, SteadyStateReadTakesTwoDelta) {
  // With no write in flight, the responder freshness check passes
  // immediately and stage 2 is already satisfied: READ + PROCEED = 2Δ.
  auto group = make_group(5, 2);
  group.client().write_sync(Value::from_int64(1));
  group.settle();
  const auto out = group.client().read_sync(3);
  EXPECT_EQ(out.latency, 2 * kDelta);
}

TEST(TwoBitTiming, ReadNeverExceedsFourDeltaAcrossAllPhaseOffsets) {
  // Worst case: the read starts while a write is disseminating. Sweep every
  // alignment of read start vs write start within [0, 2Δ] and require the
  // paper's 4Δ bound at every offset and at every reader.
  for (const std::uint32_t n : {3u, 5u, 7u}) {
    for (Tick offset = 0; offset <= 2 * kDelta; offset += kDelta / 4) {
      auto group = make_group(n, (n - 1) / 2);
      group.client().write_sync(Value::from_int64(1));
      group.settle();

      bool write_done = false;
      Tick read_latency = -1;
      bool read_done = false;
      const Tick base = group.net().now();
      group.net().schedule_at(base, [&] {
        group.client().write(Value::from_int64(2),
                             [&](const OpResult&) { write_done = true; });
      });
      group.net().schedule_at(base + offset, [&] {
        group.client().read(n - 1, [&](const OpResult& r) {
          read_latency = r.latency;
          read_done = true;
        });
      });
      ASSERT_TRUE(group.net().run());
      EXPECT_TRUE(write_done);
      ASSERT_TRUE(read_done);
      EXPECT_LE(read_latency, 4 * kDelta)
          << "n=" << n << " offset=" << offset;
      EXPECT_GE(read_latency, 2 * kDelta);
    }
  }
}

TEST(TwoBitTiming, EqualDelaysWorstCaseReadIsThreeDelta) {
  // With every delay exactly Δ the binding chain is: responder adopts x,
  // then waits for the reader's forward of x (arrives 2Δ after the write),
  // then PROCEEDs (3Δ). The paper's 4Δ is the supremum over *heterogeneous*
  // delays <= Δ — see FourDeltaSupremumIsApproachable below.
  Tick worst = 0;
  for (Tick offset = 0; offset <= 2 * kDelta; offset += 50) {
    auto g2 = make_group(3, 1);
    g2.client().write_sync(Value::from_int64(1));
    g2.settle();
    Tick latency = 0;
    bool done = false;
    const Tick base = g2.net().now();
    g2.net().schedule_at(base, [&] {
      g2.client().write(Value::from_int64(2), [](const OpResult&) {});
    });
    g2.net().schedule_at(base + offset, [&] {
      g2.client().read(2, [&](const OpResult& r) {
        latency = r.latency;
        done = true;
      });
    });
    (void)g2.net().run();
    ASSERT_TRUE(done);
    worst = std::max(worst, latency);
  }
  EXPECT_EQ(worst, 3 * kDelta);
}

// Per-channel delay table (defaults to Δ), for adversarial alignments.
class PairwiseDelay final : public DelayModel {
 public:
  explicit PairwiseDelay(Tick dflt) : default_(dflt) {}
  void set(ProcessId from, ProcessId to, Tick d) {
    table_[{from, to}] = d;
  }
  Tick delay(Rng&, ProcessId from, ProcessId to, const Message&) override {
    const auto it = table_.find({from, to});
    return it == table_.end() ? default_ : it->second;
  }

 private:
  Tick default_;
  std::map<std::pair<ProcessId, ProcessId>, Tick> table_;
};

TEST(TwoBitTiming, FourDeltaSupremumIsApproachable) {
  // Adversarial heterogeneous delays, all <= Δ: the writer reaches the
  // responders almost instantly (they become "fresh" just before the READ
  // arrives), while the reader learns the value a full Δ later and its
  // catch-up forward takes another Δ. Read latency = 4Δ - 2 ticks.
  //
  //   p0 = writer, p1/p2 = responders... reader = p2; write at Δ-2, read at 0.
  auto delay = std::make_unique<PairwiseDelay>(kDelta);
  delay->set(0, 1, 1);  // writer -> responder p1: instant freshness
  auto* delay_raw = delay.get();
  SimRegisterGroup::Options opt;
  opt.cfg.n = 3;
  opt.cfg.t = 1;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = std::move(delay);
  SimRegisterGroup group(std::move(opt));
  (void)delay_raw;

  Tick latency = -1;
  const Tick base = group.net().now();
  group.net().schedule_at(base + kDelta - 2, [&] {
    group.client().write(Value::from_int64(1), [](const OpResult&) {});
  });
  group.net().schedule_at(base, [&] {
    group.client().read(2, [&](const OpResult& r) {
      latency = r.latency;
      EXPECT_EQ(r.value.to_int64(), 1);  // forced to return the fresh value
    });
  });
  ASSERT_TRUE(group.net().run());
  EXPECT_EQ(latency, 4 * kDelta - 2);
}

TEST(TwoBitTiming, ReadConcurrentWithWriteReturnsOldOrNew) {
  // At any alignment the read must return value 1 or 2, never anything else.
  for (Tick offset = 0; offset <= 2 * kDelta; offset += 250) {
    auto group = make_group(5, 2);
    group.client().write_sync(Value::from_int64(1));
    group.settle();
    std::int64_t seen = -1;
    const Tick base = group.net().now();
    group.net().schedule_at(base, [&] {
      group.client().write(Value::from_int64(2), [](const OpResult&) {});
    });
    group.net().schedule_at(base + offset, [&] {
      group.client().read(4, [&](const OpResult& r) {
        seen = r.value.to_int64();
      });
    });
    (void)group.net().run();
    EXPECT_TRUE(seen == 1 || seen == 2) << "offset=" << offset;
  }
}

TEST(TwoBitTiming, CrashDoesNotSlowWriteBeyondTwoDelta) {
  // With f <= t crashed processes the quorum is still reached on the first
  // echo wave: latency stays 2Δ (the dead just never answer).
  auto group = make_group(5, 2);
  group.crash(3);
  group.crash(4);
  for (int k = 1; k <= 3; ++k) {
    EXPECT_EQ(group.client().write_sync(Value::from_int64(k)).latency, 2 * kDelta);
    group.settle();
  }
}

TEST(TwoBitTiming, StragglerDoesNotDelayQuorumOps) {
  // One slow process must not appear on the critical path: quorum waits are
  // over the fastest n-t.
  SimRegisterGroup::Options opt;
  opt.cfg.n = 5;
  opt.cfg.t = 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = Algorithm::kTwoBit;
  opt.delay = make_straggler_delay(4, /*slow=*/50 * kDelta, /*fast=*/kDelta);
  SimRegisterGroup group(std::move(opt));
  const Tick w = group.client().write_sync(Value::from_int64(1)).latency;
  EXPECT_EQ(w, 2 * kDelta);
  const auto r = group.client().read_sync(1);
  EXPECT_EQ(r.value.to_int64(), 1);
  EXPECT_LE(r.latency, 4 * kDelta);
}

}  // namespace
}  // namespace tbr
