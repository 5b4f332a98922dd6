// Workload driver for the sharded KV engine: skewed multi-key traffic in
// two complementary modes. Both take the store's own options plus the op
// mix; neither re-forwards store knobs.
//
// 1. run_sharded_workload — the ENGINE measurement. Client threads push a
//    read-dominated, zipf-skewed op mix through a live ShardedKvStore
//    (real shard workers, real batching windows) and the result is
//    wall-clock ops/sec. This number scales with cores: each shard's
//    worker owns a full register group, so on a c-core box c shards run
//    truly in parallel.
//
// 2. project_sharded_capacity — the DEPLOYMENT projection. The same op
//    mix is routed to one KvStore per shard (the store a ShardedKvStore
//    shard runs, built by ShardedKvStore::shard_options) and replayed
//    through that store's own KvClient in virtual time, with SimNetwork's
//    per-node service-time model giving every replica finite CPU. Each
//    shard's simulator clock then reads off how long that shard would take
//    on its own hardware; the store's completion time is the busiest
//    shard's clock (shards share nothing). This is deterministic — same
//    options, same result, on any host — so CI can track it without
//    multi-core runners, and it isolates the two effects the engine mixes:
//    partitioning (more groups = more replica CPU) and batching (fewer
//    protocol rounds per client op).
//
// Both record the client-side history of every register they touch and
// check it for atomicity, as run_workload does for one register. A KV
// register is one (shard, slot): its home replica turns the puts of many
// clients into versions 1..W, so its history is the timestamp-ordered
// multi-writer history MwmrChecker checks.
#pragma once

#include <vector>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"
#include "kvstore/sharded_store.hpp"

namespace tbr {

/// The op stream both drivers replay: `total_ops` ops over keys named
/// "key-<id>", drawn from the store's `seed ^ 0x5EEDF00D`.
struct KvOpMix {
  std::uint32_t keys = 256;
  /// Zipf exponent over key ranks (0 = uniform). Ranks are shuffled onto
  /// key ids by seed, so hot keys land on seed-determined shards.
  double zipf_s = 0.9;
  double read_fraction = 0.9;
  std::uint64_t total_ops = 4000;
};

/// One register's client-side history: the puts and gets issued to shard
/// `shard`'s slot `slot`. Each op is its own checker process (one client
/// thread pipelines overlapping ops); a put's index is the version it
/// landed as, stamped when wait() returned. A failed op stays incomplete.
struct KvRegisterHistory {
  std::uint32_t shard = 0;
  std::uint32_t slot = 0;
  std::vector<OpRecord> ops;
  /// Indices into `ops` of the puts that last-write-wins coalescing
  /// absorbed: they report their survivor's version, and their values
  /// never reach the register.
  std::vector<std::size_t> absorbed;
};

/// Per register: every absorbed put must name a surviving put's version
/// and is then dropped (left in, it would read as an incomplete write,
/// which a read may match by value); the surviving versions must be
/// exactly 1..W; and the rest must pass MwmrChecker. The first failure
/// names its shard and slot.
CheckResult check_kv_histories(const std::vector<KvRegisterHistory>& registers,
                               const Value& initial);

struct ShardedWorkloadResult {
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_failed = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  BatchStats batch;
  std::uint64_t frames = 0;
  std::vector<KvRegisterHistory> registers;  ///< ticks: ns since the start
  Value initial;  ///< the store's initial value (Options::initial)

  CheckResult check_atomicity() const {
    return check_kv_histories(registers, initial);
  }
};

/// `client_threads` threads each keep waves of `client_pipeline` ops in
/// flight against a ShardedKvStore built from `store`.
ShardedWorkloadResult run_sharded_workload(
    const ShardedKvStore::Options& store, const KvOpMix& mix,
    std::uint32_t client_threads = 4, std::size_t client_pipeline = 64);

struct CapacityProjection {
  std::uint64_t ops = 0;
  std::vector<Tick> shard_ticks;    ///< virtual completion time per shard
  Tick busiest_shard_ticks = 0;     ///< the store's completion time
  double ops_per_mtick = 0;         ///< ops / busiest shard's megatick
  /// Mean client-observed latency in virtual ticks: window completion
  /// minus op arrival (queueing + batching delay + protocol rounds).
  double mean_latency_ticks = 0;
  BatchStats batch;
  std::uint64_t frames = 0;
  std::vector<KvRegisterHistory> registers;  ///< ticks: virtual
  Value initial;  ///< the store's initial value (Options::initial)

  CheckResult check_atomicity() const {
    return check_kv_histories(registers, initial);
  }
};

/// Every replica gets 200 ticks of CPU per frame (KvStore::Options::
/// service_time) over KvStore's default channel, ConstantDelay(1000).
/// Ops arrive store-wide every `inter_arrival` virtual ticks (lower =
/// heavier offered load; the default saturates the replicas, so the
/// projection measures capacity, not channel latency). A shard opens a
/// window when its previous one finished: everything arrived by then, up
/// to `store.max_batch` ops, and — with a `store.min_batch` floor — not
/// before that many ops have arrived (the tail opens partial). The store's
/// min_batch_wait is a wall-clock knob and unused.
CapacityProjection project_sharded_capacity(
    const ShardedKvStore::Options& store, const KvOpMix& mix,
    Tick inter_arrival = 2);

}  // namespace tbr
