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
// and the tests check exactly that.
#pragma once

#include <memory>
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
    /// Per-slot register engine when `register_factory` is unset. The
    /// fast-path read engines (Algorithm::kOhRam / kTimeEfficient) drop
    /// get latency from 4Δ to 3Δ / 2Δ at the same crash budget.
    Algorithm engine = Algorithm::kTwoBit;
    /// Per-slot register implementation; overrides `engine` when set.
    MuxProcess::SlotFactory register_factory;
    /// Initial value of every slot (what get() of a never-written key
    /// returns, with version 0).
    Value initial;

    /// client() batch windows: collapse runs of queued writes to one slot
    /// into a single protocol write (last value wins; absorbed puts
    /// complete with `absorbed = true`). Reads always share rounds.
    bool coalesce_writes = true;

    /// OUT-OF-MODEL loss injection (see SimNetwork::Options::loss_rate).
    /// Keep 0 unless the per-slot registers ride a retransmitting link
    /// (`register_factory` wrapping in ReliableLinkProcess) — bare
    /// registers assume the model's reliable channels.
    double loss_rate = 0.0;
  };

  explicit KvStore(Options options);
  KvStore(KvStore&&) noexcept;
  KvStore& operator=(KvStore&&) noexcept;
  ~KvStore();

  // ---- the unified client API ------------------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). Ops submitted between waits form one
  /// batching window, handed to MuxProcess::start_batch per replica —
  /// reads issued at one replica share a protocol round, queued writes to
  /// one slot coalesce last-write-wins (Options::coalesce_writes). wait()
  /// drives the simulation. Lazily built; stable across store moves.
  KvClient& client();

  // ---- placement ----------------------------------------------------------------
  std::uint32_t slot_of(std::string_view key) const;
  ProcessId home_node(std::string_view key) const;

  // ---- environment ----------------------------------------------------------------
  void crash(ProcessId node);
  bool crashed(ProcessId node) const;
  /// Drain in-flight protocol traffic (steady state between measurements).
  void settle();
  SimNetwork& net() noexcept { return *net_; }
  std::uint32_t node_count() const noexcept { return n_; }
  std::uint32_t slot_count() const noexcept { return slots_; }
  /// Protocol state across all nodes and slots.
  std::uint64_t total_memory_bytes();

 private:
  class ClientImpl;

  MuxProcess& mux_at(ProcessId node);

  std::uint32_t n_ = 0;
  std::uint32_t slots_ = 0;
  bool coalesce_writes_ = true;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<ClientImpl> client_impl_;  // engine + KvClient
};

}  // namespace tbr
