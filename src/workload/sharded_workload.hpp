// Workload driver for the sharded KV engine: skewed multi-key traffic in
// two complementary modes.
//
// 1. run_sharded_workload — the ENGINE measurement. Client threads push a
//    read-dominated, zipf-skewed op mix through a live ShardedKvStore
//    (real shard workers, real batching windows) and the result is
//    wall-clock ops/sec. This number scales with cores: each shard's
//    worker owns a full register group, so on a c-core box c shards run
//    truly in parallel.
//
// 2. project_sharded_capacity — the DEPLOYMENT projection. The same op
//    mix is routed to per-shard register groups driven directly in
//    virtual time, with SimNetwork's per-node service-time model giving
//    every replica finite CPU. Each shard's simulator clock then reads
//    off how long that shard would take on its own hardware; the store's
//    completion time is the busiest shard's clock (shards share nothing).
//    This is deterministic — same options, same result, on any host — so
//    CI can track it without multi-core runners, and it isolates the two
//    effects the engine mixes: partitioning (more groups = more replica
//    CPU) and batching (fewer protocol rounds per client op).
#pragma once

#include <vector>

#include "kvstore/sharded_store.hpp"

namespace tbr {

struct ShardedWorkloadOptions {
  std::uint32_t shards = 4;
  std::uint32_t n = 3;               ///< replicas per shard
  std::uint32_t t = 1;
  std::uint32_t slots_per_shard = 16;
  std::uint64_t seed = 1;

  // ---- op mix ---------------------------------------------------------------
  std::uint32_t keys = 256;
  /// Zipf exponent over key ranks (0 = uniform). Ranks are shuffled onto
  /// key ids by seed, so hot keys land on seed-determined shards.
  double zipf_s = 0.9;
  double read_fraction = 0.9;
  std::uint64_t total_ops = 4000;

  // ---- engine mode ----------------------------------------------------------
  std::uint32_t client_threads = 4;
  /// Async ops each client keeps in flight (its submission wave size).
  std::size_t client_pipeline = 64;
  bool pin_shard_threads = false;

  // ---- shared engine/projection knobs ---------------------------------------
  /// Per-slot register engine (two-bit default, or a fast-path read
  /// engine: Algorithm::kOhRam / kTimeEfficient).
  Algorithm engine = Algorithm::kTwoBit;
  bool coalesce_writes = true;
  /// Batching-window cap (ops). In the projection this bounds how much a
  /// backlog can amortize; 0 = unbounded.
  std::size_t max_batch = 256;
  /// Batching-window floor (group-commit style; see ShardedKvStore::
  /// Options::min_batch). 0 = drain whatever accumulated. In the
  /// projection this delays a window until `min_batch` ops have arrived
  /// (the tail opens partial), trading per-op latency for coalescing —
  /// the sweep in bench_sharded_throughput measures that trade.
  std::size_t min_batch = 0;

  // ---- projection mode ------------------------------------------------------
  Tick delay_ticks = 1000;   ///< channel delay Δ
  Tick service_time = 200;   ///< per-frame CPU cost at a replica
  /// Virtual ticks between successive client arrivals (store-wide); lower
  /// = heavier offered load. The default saturates the replicas so the
  /// projection measures capacity, not channel latency.
  Tick inter_arrival = 2;
};

struct ShardedWorkloadResult {
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_failed = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
  BatchStats batch;
  std::uint64_t frames = 0;
};

ShardedWorkloadResult run_sharded_workload(
    const ShardedWorkloadOptions& options);

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
};

CapacityProjection project_sharded_capacity(
    const ShardedWorkloadOptions& options);

}  // namespace tbr
