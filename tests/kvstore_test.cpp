// KV-store layer (src/kvstore): slot multiplexing, key placement, per-key
// register semantics, cross-key independence, crash behaviour of homed
// shards, and per-register atomicity of the client's batching windows.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/rng.hpp"
#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/kv_store.hpp"
#include "kvstore/shard_router.hpp"
#include "workload/sharded_workload.hpp"

namespace tbr {
namespace {

KvStore::Options small_store(std::uint32_t slots = 8,
                             std::uint64_t seed = 1) {
  KvStore::Options opt;
  opt.n = 5;
  opt.t = 2;
  opt.slots = slots;
  opt.seed = seed;
  opt.initial = Value();
  return opt;
}

TEST(KvStore, PutThenGetAtEveryReplica) {
  KvStore store(small_store());
  store.client().put_sync("alpha", Value::from_string("1"));
  for (ProcessId pid = 0; pid < store.node_count(); ++pid) {
    const auto got = store.client().get_sync("alpha", pid);
    EXPECT_EQ(got.value.to_string(), "1") << "replica " << pid;
    EXPECT_EQ(got.version, 1);
  }
}

TEST(KvStore, UnwrittenKeyReturnsInitial) {
  auto opt = small_store();
  opt.initial = Value::from_string("<default>");
  KvStore store(std::move(opt));
  const auto got = store.client().get_sync("never-written", 2);
  EXPECT_EQ(got.value.to_string(), "<default>");
  EXPECT_EQ(got.version, 0);
}

TEST(KvStore, OverwritesBumpVersions) {
  KvStore store(small_store());
  for (int k = 1; k <= 10; ++k) {
    store.client().put_sync("counter", Value::from_int64(k));
    const auto got = store.client().get_sync("counter", static_cast<ProcessId>(k % 5));
    EXPECT_EQ(got.value.to_int64(), k);
    EXPECT_EQ(got.version, k);
  }
}

TEST(KvStore, KeysAreIndependent) {
  KvStore store(small_store(16));
  store.client().put_sync("a", Value::from_string("va"));
  store.client().put_sync("b", Value::from_string("vb"));
  store.client().put_sync("a", Value::from_string("va2"));
  EXPECT_EQ(store.client().get_sync("a", 1).value.to_string(), "va2");
  EXPECT_EQ(store.client().get_sync("b", 1).value.to_string(), "vb");
  EXPECT_EQ(store.client().get_sync("a", 1).version, 2);
  EXPECT_EQ(store.client().get_sync("b", 1).version, 1) << "b's slot register untouched";
}

// Every other KV test runs two-bit or fast-path slots; this one hosts the
// phased ABD register inside the mux, so the slot envelope stays checked
// as protocol-agnostic.
TEST(KvStore, AbdSlotsServeEachKeysLastPut) {
  KvStore::Options opt = small_store(8, 31);
  opt.engine = Algorithm::kAbdUnbounded;
  opt.initial = Value::from_string("?");
  KvStore store(std::move(opt));
  ASSERT_NE(store.slot_of("k0"), store.slot_of("k1"));
  ASSERT_NE(store.slot_of("k0"), store.slot_of("k2"));
  ASSERT_NE(store.slot_of("k1"), store.slot_of("k2"));
  for (int k = 1; k <= 6; ++k) {
    store.client().put_sync("k" + std::to_string(k % 3), Value::from_int64(k));
  }
  // Each key was put twice, on a slot of its own.
  const auto k0 = store.client().get_sync("k0", 1);
  const auto k1 = store.client().get_sync("k1", 2);
  const auto k2 = store.client().get_sync("k2", 3);
  EXPECT_EQ(k0.value.to_int64(), 6);
  EXPECT_EQ(k1.value.to_int64(), 4);
  EXPECT_EQ(k2.value.to_int64(), 5);
  EXPECT_EQ(k0.version, 2);
  EXPECT_EQ(k1.version, 2);
  EXPECT_EQ(k2.version, 2);
}

TEST(KvStore, PlacementIsStableAndSpreads) {
  KvStore store(small_store(16));
  std::map<ProcessId, int> per_home;
  for (int k = 0; k < 64; ++k) {
    const std::string key = "key-" + std::to_string(k);
    EXPECT_EQ(store.slot_of(key), store.slot_of(key)) << "stable hashing";
    EXPECT_EQ(store.home_node(key), store.slot_of(key) % store.node_count());
    per_home[store.home_node(key)] += 1;
  }
  EXPECT_GE(per_home.size(), 4u) << "64 keys should touch most homes";
}

// One placement for flat and sharded stores: a flat store puts every key
// in the slot the sharded router gives it, whatever the shard count (the
// router derives shard and slot from disjoint halves of one hash).
TEST(KvStore, PlacementMatchesTheShardRouter) {
  KvStore store(small_store(16));
  for (const std::uint32_t shards : {1u, 4u}) {
    const ShardRouter router(shards, store.slot_count(), store.node_count());
    for (int k = 0; k < 256; ++k) {
      const std::string key = "key-" + std::to_string(k);
      EXPECT_EQ(store.slot_of(key), router.place(key).slot)
          << key << " with " << shards << " shards";
    }
  }
}

TEST(KvStore, ControlBitsStayTwoPerProtocolFrame) {
  KvStore store(small_store());
  store.client().put_sync("x", Value::from_int64(1));
  store.client().put_sync("y", Value::from_int64(2));
  (void)store.client().get_sync("x", 3);
  store.settle();
  const auto& stats = store.net().stats();
  EXPECT_GT(stats.total_sent(), 0u);
  // Every mux envelope carries its embedded register frame's control bits
  // (2 for the two-bit algorithm); the slot tag rides as data-plane bytes.
  EXPECT_EQ(stats.max_control_bits_per_msg(),
            TwoBitCodec::kControlBitsPerMessage);
}

TEST(KvStore, HomedShardDiesWithItsNodeOthersSurvive) {
  KvStore store(small_store(10));
  // Find two keys with different home nodes.
  std::string doomed_key, safe_key;
  for (int k = 0; k < 100 && (doomed_key.empty() || safe_key.empty()); ++k) {
    const std::string key = "k" + std::to_string(k);
    if (store.home_node(key) == 4) {
      if (doomed_key.empty()) doomed_key = key;
    } else if (safe_key.empty()) {
      safe_key = key;
    }
  }
  ASSERT_FALSE(doomed_key.empty());
  ASSERT_FALSE(safe_key.empty());

  store.client().put_sync(doomed_key, Value::from_string("before"));
  store.client().put_sync(safe_key, Value::from_string("s1"));
  store.crash(4);

  // Writes to the dead shard are refused (single-writer is a *placement*,
  // not a magic failover)...
  EXPECT_EQ(store.client()
                .put_sync(doomed_key, Value::from_string("after"))
                .status.code(),
            StatusCode::kCrashed);
  // ...but its data stays readable at live replicas (reads are quorum ops),
  EXPECT_EQ(store.client().get_sync(doomed_key, 1).value.to_string(), "before");
  // ...and unrelated shards keep accepting writes.
  store.client().put_sync(safe_key, Value::from_string("s2"));
  EXPECT_EQ(store.client().get_sync(safe_key, 0).value.to_string(), "s2");
  // Reading *at* the corpse is refused.
  EXPECT_EQ(store.client().get_sync(safe_key, 4).status.code(),
            StatusCode::kCrashed);
}

TEST(KvStore, MemoryGrowsWithDistinctKeysWritten) {
  KvStore store(small_store(32));
  store.settle();
  const auto before = store.total_memory_bytes();
  for (int k = 0; k < 32; ++k) {
    store.client().put_sync("key-" + std::to_string(k), Value::filler(64));
  }
  store.settle();
  EXPECT_GT(store.total_memory_bytes(), before)
      << "each written slot retains its latest value";
}

// The bounded-memory probe: n = 3, t = 1, 64 slots, 32k puts of 256 B over
// 512 uniform keys, with the footprint sampled (after settle) at the 50%
// and 100% marks.
struct PutProbe {
  std::uint64_t half_bytes = 0;
  std::uint64_t full_bytes = 0;
  std::uint32_t max_control_bits = 0;
  std::uint64_t frames = 0;
  std::uint64_t gauge_peak = 0;
};

PutProbe run_put_probe(ProcessFactory factory = {}) {
  constexpr int kPuts = 32 * 1024;
  KvStore::Options opt;
  opt.n = 3;
  opt.t = 1;
  opt.slots = 64;
  opt.register_factory = std::move(factory);
  KvStore store(std::move(opt));
  Rng rng(7);
  PutProbe out;
  for (int k = 1; k <= kPuts; ++k) {
    const auto key = "key-" + std::to_string(rng.uniform(0, 511));
    EXPECT_TRUE(store.client().put_sync(key, Value::filler(256)).status.ok());
    if (k == kPuts / 2) {
      store.settle();
      out.half_bytes = store.total_memory_bytes();
    }
  }
  store.settle();
  out.full_bytes = store.total_memory_bytes();
  out.max_control_bits = store.net().stats().max_control_bits_per_msg();
  out.frames = store.net().stats().total_sent();
  out.gauge_peak = store.net().stats().local_memory_peak();
  return out;
}

TEST(KvStore, DefaultSlotsKeepMemoryFlatAtTwoControlBits) {
  // Two-bit slots run known-prefix GC by default: history is reclaimed as
  // peers echo each value, with no frame beyond the faithful protocol's.
  const PutProbe bounded = run_put_probe();
  EXPECT_GT(bounded.half_bytes, 0u);
  EXPECT_EQ(bounded.full_bytes, bounded.half_bytes)
      << "footprint grew between the 50% and 100% marks";
  EXPECT_EQ(bounded.max_control_bits, TwoBitCodec::kControlBitsPerMessage);
  EXPECT_GT(bounded.gauge_peak, 0u) << "settle() records the memory gauge";
}

TEST(KvStore, FaithfulFactoryOverrideKeepsTheWholeHistory) {
  const PutProbe bounded = run_put_probe();
  const PutProbe faithful = run_put_probe(make_twobit_process);
  EXPECT_GE(faithful.full_bytes, 50 * bounded.full_bytes)
      << "bounded " << bounded.full_bytes << " B, faithful "
      << faithful.full_bytes << " B";
  EXPECT_GT(faithful.full_bytes, faithful.half_bytes);
  // GC sends nothing of its own: the wire traffic is identical.
  EXPECT_EQ(bounded.frames, faithful.frames);
}

// Per-register atomicity of the client's batching windows: the capacity
// projection replays a skewed op mix through a flat KvStore client (one
// shard), so every window holds overlapping gets and puts on shared slots,
// and checks each slot register's history.
TEST(KvStore, ClientWindowsKeepEveryRegisterAtomic) {
  for (const bool coalesce : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      ShardedKvStore::Options opt;
      opt.shards = 1;
      opt.n = 5;
      opt.t = 2;
      opt.slots_per_shard = 16;
      opt.seed = seed;
      opt.coalesce_writes = coalesce;
      opt.max_batch = 24;
      KvOpMix mix;
      mix.keys = 64;
      mix.read_fraction = 0.75;
      mix.total_ops = 2000;
      const CapacityProjection p =
          project_sharded_capacity(opt, mix, /*inter_arrival=*/100);
      const CheckResult check = p.check_atomicity();
      EXPECT_TRUE(check.ok) << "seed " << seed << ": " << check.error;
      EXPECT_GT(p.registers.size(), 1u);
      EXPECT_GT(p.batch.max_batch_ops, 1u);
      if (coalesce) {
        EXPECT_GT(p.batch.absorbed_writes, 0u) << "seed " << seed;
      } else {
        EXPECT_EQ(p.batch.absorbed_writes, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace tbr
