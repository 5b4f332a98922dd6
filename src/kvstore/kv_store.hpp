// KvStore: a replicated key-value store built from SWMR atomic registers.
//
// The downstream-product layer: what adopting the paper's register looks
// like when an application wants a keyspace instead of one cell. Keys are
// hashed onto a fixed set of register slots; slot s is writable at node
// s mod n (the SWMR constraint made into a sharding policy, the way
// single-leader-per-shard systems assign partitions), and readable at
// every node. Every slot is an independent register instance multiplexed
// over one simulated network (MuxProcess), so per-key histories are
// per-slot register histories — atomicity per key follows from Theorem 1,
// and project_sharded_capacity checks exactly that over this client.
//
// KvStore is also the KV layer's only window engine: the one place where a
// window of routed client ops becomes per-replica MuxProcess::start_batch
// calls. Its own client() batches deferred submissions into windows, and
// every ShardedKvStore shard is a KvStore whose worker hands each mailbox
// window to run_window().
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "client/client.hpp"
#include "kvstore/mux_process.hpp"
#include "sim/sim_network.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class KvStore {
 public:
  struct Options {
    std::uint32_t n = 5;      ///< replica nodes
    std::uint32_t t = 2;      ///< crash budget (2t < n)
    std::uint32_t slots = 16; ///< register instances (keyspace shards)
    std::uint64_t seed = 1;
    /// nullptr => ConstantDelay(1000).
    std::unique_ptr<DelayModel> delay;
    /// Per-slot register engine when `register_factory` is unset. Two-bit
    /// slots run with bounded history (TwoBitOptions::bounded_history):
    /// the faithful protocol's frames, with memory flat in the write
    /// count. The fast-path read engines (Algorithm::kOhRam /
    /// kTimeEfficient) drop get latency from 4Δ to 3Δ / 2Δ at the same
    /// crash budget.
    Algorithm engine = Algorithm::kTwoBit;
    /// Per-slot register implementation; overrides `engine` when set
    /// (make_twobit_process gives the faithful, unbounded-history slots).
    ProcessFactory register_factory;
    /// Initial value of every slot (what get() of a never-written key
    /// returns, with version 0).
    Value initial;

    /// Batch windows: collapse runs of queued writes to one slot into a
    /// single protocol write (last value wins; absorbed puts complete with
    /// `absorbed = true`). Reads always share rounds.
    bool coalesce_writes = true;

    /// Per-frame CPU ticks at each replica (SimNetwork::Options::
    /// service_time); 0 = infinite capacity. The sharded capacity
    /// projection sets it to give every replica finite CPU.
    Tick service_time = 0;
  };

  explicit KvStore(Options options);
  KvStore(KvStore&&) noexcept;
  KvStore& operator=(KvStore&&) noexcept;
  ~KvStore();

  // ---- the unified client API ------------------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). Ops submitted between waits form one
  /// batching window, run like run_window() — reads issued at one replica
  /// share a protocol round, queued writes to one slot coalesce
  /// last-write-wins (Options::coalesce_writes). wait() drives the
  /// simulation. Stable across store moves.
  KvClient& client();

  // ---- the window engine ---------------------------------------------------------
  /// Run `ops` as one batching window to completion, for hosts that pool
  /// and route ops themselves (ShardedKvStore's shard workers). Each op
  /// carries a slot and node from a placement that agrees with slot_of():
  /// writes at the slot's home, reads at a replica or kAnyReplica (rotate
  /// over live replicas). Every op completes through its owner before this
  /// returns — kCrashed at a crashed replica, kLivenessLost if the window
  /// stalls. A stall latches the store (lost_liveness()): later ops fail
  /// fast, and the simulator never runs again.
  void run_window(std::span<OpState* const> ops);

  // ---- placement ----------------------------------------------------------------
  /// ShardRouter(1, slots, n) placement, so a key lands in the same slot
  /// here as in a ShardedKvStore shard of the same size.
  std::uint32_t slot_of(std::string_view key) const;
  ProcessId home_node(std::string_view key) const;

  // ---- environment ----------------------------------------------------------------
  void crash(ProcessId node);
  bool crashed(ProcessId node) const;
  /// Finish the client's open window, then drain in-flight protocol
  /// traffic (steady state between measurements) and record the largest
  /// live node's local_memory_bytes() in net().stats(). Callback-mode and
  /// polled ops complete here too: a stalled window fails them with
  /// kLivenessLost.
  void settle();
  SimNetwork& net() noexcept;
  std::uint32_t node_count() const noexcept;
  std::uint32_t slot_count() const noexcept;
  /// Protocol state across all nodes and slots.
  std::uint64_t total_memory_bytes();

  // ---- observability ----------------------------------------------------------------
  const BatchStats& batch_stats() const noexcept;  ///< every window so far
  /// Ops the store failed: at a crashed replica, stuck in a stalled
  /// window, or refused after the stall.
  std::uint64_t failed_ops() const noexcept;
  /// A window stalled (more than t crashes, or an event-budget blowout);
  /// the store now refuses every op with kLivenessLost.
  bool lost_liveness() const noexcept;

 private:
  class Group;  // the register group, its window engine and KvClient

  std::unique_ptr<Group> group_;
};

}  // namespace tbr
