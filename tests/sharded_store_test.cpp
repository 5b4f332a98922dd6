// Sharded KV engine (src/kvstore): router placement, end-to-end store
// semantics across shard boundaries, deterministic batching semantics at
// the MuxProcess level (read coalescing, last-write-wins absorption, chain
// order), crash isolation between shards, and the capacity projection's
// pinned rows.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kv_store.hpp"
#include "kvstore/shard_router.hpp"
#include "kvstore/sharded_store.hpp"
#include "workload/sharded_workload.hpp"

namespace tbr {
namespace {

// ---- router ----------------------------------------------------------------

TEST(ShardRouter, PlacementIsStableAndConsistent) {
  ShardRouter router(4, 16, 3);
  for (int k = 0; k < 64; ++k) {
    const std::string key = "key-" + std::to_string(k);
    const auto a = router.place(key);
    const auto b = router.place(key);
    EXPECT_EQ(a.shard, b.shard);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.home, b.home);
    EXPECT_LT(a.shard, 4u);
    EXPECT_LT(a.slot, 16u);
    EXPECT_EQ(a.home, a.slot % 3);
  }
}

// Regression: raw FNV-1a's high half is nearly constant for short similar
// keys — before the avalanche finalizer, "key-0".."key-255" left entire
// shards empty (0 of 256 keys on shard 3 of 4).
TEST(ShardRouter, ShortSequentialKeysSpreadOverAllShards) {
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    ShardRouter router(shards, 16, 3);
    std::vector<int> per_shard(shards, 0);
    for (int k = 0; k < 256; ++k) {
      per_shard[router.shard_of("key-" + std::to_string(k))] += 1;
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      // Fair share is 256/shards; require at least a third of it.
      EXPECT_GE(per_shard[s], static_cast<int>(256 / shards / 3))
          << "shard " << s << " of " << shards << " starved";
    }
  }
}

// ---- store end-to-end -------------------------------------------------------

ShardedKvStore::Options small_store(std::uint32_t shards = 4,
                                    std::uint64_t seed = 1) {
  ShardedKvStore::Options opt;
  opt.shards = shards;
  opt.n = 3;
  opt.t = 1;
  opt.slots_per_shard = 8;
  opt.seed = seed;
  return opt;
}

TEST(ShardedKvStore, PutThenGetAtEveryReplica) {
  ShardedKvStore store(small_store());
  store.client().put_sync("alpha", Value::from_string("1"));
  for (ProcessId pid = 0; pid < store.node_count(); ++pid) {
    const auto got = store.client().get_sync("alpha", pid);
    EXPECT_EQ(got.value.to_string(), "1") << "replica " << pid;
    EXPECT_EQ(got.version, 1);
  }
}

TEST(ShardedKvStore, UnwrittenKeyReturnsInitial) {
  auto opt = small_store();
  opt.initial = Value::from_string("<default>");
  ShardedKvStore store(std::move(opt));
  const auto got = store.client().get_sync("never-written");
  EXPECT_EQ(got.value.to_string(), "<default>");
  EXPECT_EQ(got.version, 0);
}

TEST(ShardedKvStore, SequentialOverwritesBumpVersions) {
  ShardedKvStore store(small_store());
  for (int k = 1; k <= 10; ++k) {
    const auto put = store.client().put_sync("counter", Value::from_int64(k));
    EXPECT_EQ(put.version, k);
    EXPECT_FALSE(put.absorbed) << "awaited puts are never absorbed";
    const auto got = store.client().get_sync("counter");
    EXPECT_EQ(got.value.to_int64(), k);
    EXPECT_EQ(got.version, k);
  }
}

TEST(ShardedKvStore, KeysInDifferentShardsAreIndependent) {
  ShardedKvStore store(small_store());
  // Find two keys in different shards.
  std::string a = "a-key", b;
  for (int k = 0; b.empty() && k < 1000; ++k) {
    const std::string candidate = "b-key-" + std::to_string(k);
    if (store.router().shard_of(candidate) != store.router().shard_of(a)) {
      b = candidate;
    }
  }
  ASSERT_FALSE(b.empty());
  store.client().put_sync(a, Value::from_string("va"));
  store.client().put_sync(b, Value::from_string("vb"));
  store.client().put_sync(a, Value::from_string("va2"));
  EXPECT_EQ(store.client().get_sync(a).value.to_string(), "va2");
  EXPECT_EQ(store.client().get_sync(a).version, 2);
  EXPECT_EQ(store.client().get_sync(b).value.to_string(), "vb");
  EXPECT_EQ(store.client().get_sync(b).version, 1) << "b's shard never saw a's writes";
}

TEST(ShardedKvStore, AsyncBurstResolvesEverythingLastValueWins) {
  ShardedKvStore store(small_store());
  std::vector<Ticket> puts;
  for (int k = 1; k <= 32; ++k) {
    puts.push_back(store.client().put("hot", Value::from_int64(k)));
  }
  SeqNo max_version = 0;
  for (const Ticket& t : puts) {
    const OpResult done = store.client().wait(t);
    EXPECT_TRUE(done.status.ok()) << done.status.message();
    EXPECT_GE(done.version, 1);
    max_version = std::max(max_version, done.version);
  }
  const auto got = store.client().get_sync("hot");
  // However the burst landed in windows, the LAST queued value survives
  // and the final version is the number of protocol writes issued.
  EXPECT_EQ(got.value.to_int64(), 32);
  EXPECT_EQ(got.version, max_version);
  const auto stats = store.batch_stats();
  EXPECT_EQ(stats.protocol_writes + stats.absorbed_writes, 32u);
}

TEST(ShardedKvStore, CrashedHomeRefusesPutsKeysStayReadable) {
  ShardedKvStore store(small_store());
  store.client().put_sync("victim", Value::from_string("before"));
  const auto at = store.router().place("victim");
  store.crash(at.shard, at.home);
  store.drain();

  EXPECT_EQ(store.client()
                .put_sync("victim", Value::from_string("after"))
                .status.code(),
            StatusCode::kCrashed);
  // Reads are quorum ops at the surviving replicas.
  const ProcessId other = (at.home + 1) % store.node_count();
  EXPECT_EQ(store.client().get_sync("victim", other).value.to_string(), "before");
  // Reading AT the corpse is refused.
  EXPECT_EQ(store.client().get_sync("victim", at.home).status.code(),
            StatusCode::kCrashed);

  // Every other shard never noticed.
  for (int k = 0; k < 200; ++k) {
    const std::string key = "other-" + std::to_string(k);
    if (store.router().shard_of(key) == at.shard) continue;
    store.client().put_sync(key, Value::from_int64(k));
    EXPECT_EQ(store.client().get_sync(key).value.to_int64(), k);
    break;
  }
}

// Over-budget crashes (> t in one shard): the stalled batch fails its ops,
// the shard marks itself dead, and every later op fails fast — the stalled
// registers' one-op-at-a-time guard must never be re-entered (doing so
// would throw on the worker thread and abort the process).
TEST(ShardedKvStore, OverBudgetCrashesFailFastWithoutAborting) {
  ShardedKvStore store(small_store(/*shards=*/1));
  store.client().put_sync("warm", Value::from_int64(1));

  store.crash(0, 1);
  store.crash(0, 2);  // 2 > t = 1: no quorum left
  store.drain();

  // A key homed at the surviving replica is accepted into a batch, which
  // then stalls: the op fails over to the client.
  std::string stalled_key;
  for (int k = 0; stalled_key.empty() && k < 1000; ++k) {
    const std::string key = "k" + std::to_string(k);
    if (store.router().home_node(key) == 0) stalled_key = key;
  }
  ASSERT_FALSE(stalled_key.empty());
  EXPECT_EQ(store.client()
                .put_sync(stalled_key, Value::from_int64(2))
                .status.code(),
            StatusCode::kLivenessLost);

  // From now on the shard refuses everything fast — and the process is
  // still alive to observe it.
  EXPECT_EQ(store.client()
                .put_sync(stalled_key, Value::from_int64(3))
                .status.code(),
            StatusCode::kLivenessLost);
  EXPECT_EQ(store.client().get_sync("warm", 0).status.code(),
            StatusCode::kLivenessLost);
  // A failed completion unblocks the client before the worker publishes
  // its report; drain() waits for the window to finish accounting.
  store.drain();
  EXPECT_TRUE(store.shard_report(0).lost_liveness);
  EXPECT_GE(store.shard_report(0).failed_ops, 3u);
}

TEST(ShardedKvStore, ShardReportsAccumulate) {
  ShardedKvStore store(small_store());
  for (int k = 0; k < 20; ++k) {
    store.client().put_sync("k" + std::to_string(k), Value::from_int64(k));
  }
  store.drain();
  const auto stats = store.batch_stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.client_ops, 20u);
  EXPECT_GT(store.frames_sent(), 0u);
  std::uint64_t shard_ops = 0;
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    shard_ops += store.shard_report(s).batch.client_ops;
  }
  EXPECT_EQ(shard_ops, 20u);
}

TEST(ShardedKvStore, StopPublishesTheLocalMemoryGauge) {
  ShardedKvStore store(small_store());
  for (int k = 0; k < 64; ++k) {
    store.client().put_sync("k" + std::to_string(k), Value::filler(64));
  }
  store.stop();
  // Each worker settles its store once when its mailbox closes, so the
  // final report carries the gauge KvStore::settle() records.
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    EXPECT_GT(store.shard_report(s).net.local_memory_peak(), 0u)
        << "shard " << s;
  }
}

// Regression: submit(span) used to push its ops one at a time, so a worker
// that woke partway through took a partial window, and the span cost one
// protocol write per window. Each shard's share now lands under one
// mailbox lock, so with max_batch = 0 the whole span is one window and
// collapses to one protocol write.
TEST(ShardedKvStore, SubmitSpanLandsInOneWindowPerShard) {
  constexpr int kOps = 4096;
  std::vector<KvOp> ops(kOps);
  std::vector<Ticket> tickets(kOps);
  for (std::uint64_t trial = 1; trial <= 50; ++trial) {
    ShardedKvStore store(small_store(/*shards=*/2, trial));
    for (int k = 0; k < kOps; ++k) {
      ops[k] =
          KvOp{OpKind::kWrite, "hot", Value::from_int64(k), kAnyReplica};
    }
    ASSERT_EQ(store.client().submit(ops, tickets.data()),
              static_cast<std::size_t>(kOps));
    for (const Ticket& t : tickets) {
      ASSERT_TRUE(store.client().wait(t).status.ok());
    }
    store.drain();
    const BatchStats stats = store.batch_stats();
    EXPECT_EQ(stats.batches, 1u) << "trial " << trial;
    EXPECT_EQ(stats.protocol_writes, 1u) << "trial " << trial;
    EXPECT_EQ(stats.absorbed_writes, static_cast<std::uint64_t>(kOps - 1))
        << "trial " << trial;
    const OpResult got = store.client().get_sync("hot");
    EXPECT_EQ(got.value.to_int64(), kOps - 1) << "the last put wins";
  }

  // A span over two shards: each shard gets its share, in span order, as
  // one window of its own.
  ShardedKvStore store(small_store(/*shards=*/2));
  std::string a = "a-key", b;
  for (int k = 0; b.empty() && k < 1000; ++k) {
    const std::string candidate = "b-key-" + std::to_string(k);
    if (store.router().shard_of(candidate) != store.router().shard_of(a)) {
      b = candidate;
    }
  }
  ASSERT_FALSE(b.empty());
  for (int k = 0; k < kOps; ++k) {
    ops[k] = KvOp{OpKind::kWrite, k % 2 == 0 ? a : b, Value::from_int64(k),
                  kAnyReplica};
  }
  store.client().submit(ops, tickets.data());
  for (const Ticket& t : tickets) {
    ASSERT_TRUE(store.client().wait(t).status.ok());
  }
  store.drain();
  for (std::uint32_t s = 0; s < store.shard_count(); ++s) {
    const BatchStats shard = store.shard_report(s).batch;
    EXPECT_EQ(shard.batches, 1u) << "shard " << s;
    EXPECT_EQ(shard.protocol_writes, 1u) << "shard " << s;
    EXPECT_EQ(shard.absorbed_writes, static_cast<std::uint64_t>(kOps / 2 - 1))
        << "shard " << s;
  }
  EXPECT_EQ(store.client().get_sync(a).value.to_int64(), kOps - 2);
  EXPECT_EQ(store.client().get_sync(b).value.to_int64(), kOps - 1);
}

// Many threads submitting callbacks while the shard workers return their
// slots lock-free: every callback runs once, drain() sees the store idle,
// and the pool never grows past what was in flight at once. (A pool that
// never took returned slots back would grow to all 80,000 ops.)
TEST(ShardedKvStore, CallbackStormRecyclesSlotsAndDrains) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20'000;
  constexpr int kMaxInflight = 256;
  ShardedKvStore store(small_store(/*shards=*/2));
  KvClient& client = store.client();
  std::vector<std::string> keys;
  for (int k = 0; k < 64; ++k) keys.push_back("key-" + std::to_string(k));

  struct Submitter {
    std::vector<std::atomic<std::uint8_t>> runs =
        std::vector<std::atomic<std::uint8_t>>(kOpsPerThread);
    std::atomic<int> inflight{0};
    std::atomic<int> failed{0};
  };
  std::vector<Submitter> subs(kThreads);

  std::atomic<bool> stop_sync{false};
  std::atomic<int> sync_failed{0};
  std::thread sync([&] {
    for (std::int64_t k = 0; !stop_sync.load(std::memory_order_relaxed); ++k) {
      if (!client.put_sync("sync", Value::from_int64(k)).status.ok() ||
          !client.get_sync("sync").status.ok()) {
        sync_failed.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Submitter& me = subs[t];
      for (int i = 0; i < kOpsPerThread; ++i) {
        while (me.inflight.load(std::memory_order_acquire) >= kMaxInflight) {
          std::this_thread::yield();
        }
        me.inflight.fetch_add(1, std::memory_order_relaxed);
        OpCallback cb = [run = &me.runs[i], sub = &me](const OpResult& r) {
          if (!r.status.ok()) sub->failed.fetch_add(1);
          run->fetch_add(1, std::memory_order_relaxed);
          sub->inflight.fetch_sub(1, std::memory_order_release);
        };
        const std::string& key = keys[(i * 7 + t) % keys.size()];
        if (i % 10 == 0) {
          client.put(key, Value::from_int64(i), std::move(cb));
        } else {
          client.get(key, kAnyReplica, std::move(cb));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  stop_sync.store(true);
  sync.join();
  store.drain();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(subs[t].failed.load(), 0) << "thread " << t;
    EXPECT_EQ(subs[t].inflight.load(), 0) << "thread " << t;
    int wrong = 0;
    for (const auto& run : subs[t].runs) wrong += run.load() != 1 ? 1 : 0;
    EXPECT_EQ(wrong, 0) << "thread " << t << ": callbacks not run exactly once";
  }
  EXPECT_EQ(sync_failed.load(), 0);
  EXPECT_LE(client.pool().capacity(),
            static_cast<std::size_t>(kThreads * (kMaxInflight + 1) + 1));
}

// ---- deterministic batching semantics (one store window per batch) ---------

/// A flat store whose client runs each submitted span as one batching
/// window: one MuxProcess::start_batch per replica with work.
struct BatchRig {
  static constexpr std::uint32_t kN = 3;
  static constexpr std::uint32_t kSlots = 4;
  explicit BatchRig(bool coalesce = true)
      : store([coalesce] {
          KvStore::Options opt;
          opt.n = kN;
          opt.t = 1;
          opt.slots = kSlots;
          opt.initial = Value::from_string("v0");
          opt.coalesce_writes = coalesce;
          return opt;
        }()) {
    // One key per slot; a write lands at its slot's home, p(slot % kN).
    for (int k = 0; keys.size() < kSlots; ++k) {
      std::string key = "k" + std::to_string(k);
      keys.try_emplace(store.slot_of(key), std::move(key));
    }
  }
  KvStore store;
  std::map<std::uint32_t, std::string> keys;

  KvOp write(std::uint32_t slot, std::int64_t v) {
    return KvOp{OpKind::kWrite, keys.at(slot), Value::from_int64(v)};
  }
  KvOp read(std::uint32_t slot, ProcessId at) {
    return KvOp{OpKind::kRead, keys.at(slot), Value(), at};
  }
  const BatchStats& stats() const { return store.batch_stats(); }

  /// Run `ops` as one window to completion; results in submission order.
  std::vector<OpResult> run(std::vector<KvOp> ops) {
    std::vector<Ticket> tickets(ops.size());
    store.client().submit(ops, tickets.data());
    std::vector<OpResult> results;
    for (const Ticket t : tickets) results.push_back(store.client().wait(t));
    return results;
  }
};

TEST(MuxBatch, ConsecutiveReadsShareOneProtocolRound) {
  BatchRig rig;
  const auto results = rig.run(std::vector<KvOp>(5, rig.read(1, 2)));
  ASSERT_EQ(results.size(), 5u);
  for (const OpResult& r : results) {
    EXPECT_EQ(r.value.to_string(), "v0");
    EXPECT_EQ(r.version, 0);
  }
  EXPECT_EQ(rig.stats().protocol_reads, 1u);
  EXPECT_EQ(rig.stats().coalesced_reads, 4u);
  // One two-bit read round: 2(n-1) frames, nothing per extra client.
  EXPECT_EQ(rig.store.net().stats().total_sent(), 2u * (BatchRig::kN - 1));
}

TEST(MuxBatch, WriteRunCollapsesLastWriteWins) {
  BatchRig rig;
  const std::uint32_t slot = 0;  // homed at p0
  std::vector<std::pair<SeqNo, bool>> outcomes;
  for (const OpResult& r : rig.run({rig.write(slot, 10), rig.write(slot, 20),
                                    rig.write(slot, 30)})) {
    outcomes.emplace_back(r.version, r.absorbed);
  }
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0], (std::pair<SeqNo, bool>{1, true}));
  EXPECT_EQ(outcomes[1], (std::pair<SeqNo, bool>{1, true}));
  EXPECT_EQ(outcomes[2], (std::pair<SeqNo, bool>{1, false}));
  EXPECT_EQ(rig.stats().protocol_writes, 1u);
  EXPECT_EQ(rig.stats().absorbed_writes, 2u);

  // Only the surviving value ever reached the register.
  const OpResult read = rig.run({rig.read(slot, 1)})[0];
  EXPECT_EQ(read.value.to_int64(), 30);
  EXPECT_EQ(read.version, 1);
}

TEST(MuxBatch, ReadBetweenWritesSplitsTheRun) {
  BatchRig rig;
  const std::uint32_t slot = 0;
  const OpResult mid_read =
      rig.run({rig.write(slot, 1), rig.read(slot, 0), rig.write(slot, 2)})[1];
  // Arrival order is preserved: the read sits between the writes, so the
  // writes cannot coalesce across it and the read sees exactly write 1.
  EXPECT_EQ(rig.stats().protocol_writes, 2u);
  EXPECT_EQ(rig.stats().absorbed_writes, 0u);
  EXPECT_EQ(mid_read.value.to_int64(), 1);
  EXPECT_EQ(mid_read.version, 1);
}

TEST(MuxBatch, CoalesceOffPipelinesEveryWrite) {
  BatchRig rig(/*coalesce=*/false);
  std::vector<SeqNo> versions;
  for (const OpResult& r : rig.run({rig.write(0, 1), rig.write(0, 2),
                                    rig.write(0, 3), rig.write(0, 4)})) {
    EXPECT_FALSE(r.absorbed);
    versions.push_back(r.version);
  }
  EXPECT_EQ(versions, (std::vector<SeqNo>{1, 2, 3, 4}));
  EXPECT_EQ(rig.stats().protocol_writes, 4u);
  EXPECT_EQ(rig.stats().absorbed_writes, 0u);
}

TEST(MuxBatch, ChainsForDistinctSlotsInterleave) {
  BatchRig rig;
  // Writes to slot 0 (home p0) and reads of slot 3 (home p0 as 3 % 3)
  // issued at p0 in one batch: distinct registers, both complete.
  const auto results = rig.run(
      {rig.write(0, 7), rig.read(3, 0), rig.write(0, 8), rig.read(3, 0)});
  EXPECT_TRUE(results[1].status.ok() && results[3].status.ok());
  // Slot 0's two writes were adjacent in ITS chain (the slot-3 reads live
  // in a different chain), so they coalesced.
  EXPECT_EQ(rig.stats().protocol_writes, 1u);
  EXPECT_EQ(rig.stats().absorbed_writes, 1u);
  EXPECT_EQ(rig.stats().coalesced_reads, 1u);
}

// ---- capacity projection golden rows ---------------------------------------

/// bench_sharded_throughput's quick-mode projection config at 4 shards:
/// n = 3, t = 1, 16 slots per shard, 1500 zipf(0.9) ops over 512 keys with
/// 90% reads, windows capped at 256 ops.
CapacityProjection project_quick_four_shards(std::size_t min_batch,
                                             Tick inter_arrival) {
  ShardedKvStore::Options store;
  store.shards = 4;
  store.n = 3;
  store.t = 1;
  store.slots_per_shard = 16;
  store.seed = 1;
  store.max_batch = 256;
  store.min_batch = min_batch;
  KvOpMix mix;
  mix.keys = 512;
  mix.zipf_s = 0.9;
  mix.read_fraction = 0.9;
  mix.total_ops = 1500;
  return project_sharded_capacity(store, mix, inter_arrival);
}

TEST(ShardedCapacity, SaturatedFourShardRowIsPinned) {
  const CapacityProjection p =
      project_quick_four_shards(/*min_batch=*/0, /*inter_arrival=*/2);
  EXPECT_EQ(p.ops, 1500u);
  EXPECT_EQ(p.busiest_shard_ticks, 67006);
  EXPECT_EQ(p.frames, 2338u);
  EXPECT_EQ(p.batch.protocol_reads, 394u);
  EXPECT_EQ(p.batch.protocol_writes, 127u);
  EXPECT_EQ(p.batch.absorbed_writes, 24u);
  const CheckResult check = p.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(ShardedCapacity, MinBatchFloorRowIsPinned) {
  const CapacityProjection p =
      project_quick_four_shards(/*min_batch=*/16, /*inter_arrival=*/150);
  EXPECT_EQ(p.batch.protocol_reads, 1077u);
  EXPECT_EQ(p.batch.absorbed_writes, 8u);
  EXPECT_EQ(p.frames, 5166u);
  EXPECT_EQ(std::llround(p.mean_latency_ticks), 9582);
  const CheckResult check = p.check_atomicity();
  EXPECT_TRUE(check.ok) << check.error;
}

}  // namespace
}  // namespace tbr
