// ShardedKvStore: the keyspace partitioned across independent register
// groups, with a per-shard batching window.
//
// The flat KvStore multiplexes every slot over ONE n-node network, driven
// by the caller's thread: its client batches whatever was submitted between
// waits into one window, but every key in the store serializes through one
// event loop. This engine is the scale-out layer:
//
//   * ShardRouter splits the keyspace across `shards` register GROUPS. Each
//     shard IS a KvStore (shard_options(): its own n MuxProcesses over its
//     own simulator), driven by its own worker thread. Groups share
//     nothing, so throughput scales with cores.
//   * Each shard has a mailbox (MailboxT<ShardOp>) and one worker thread.
//     The worker drains whatever accumulated while it executed the previous
//     batch — a natural batching window, as in group commit — and hands the
//     window to its KvStore's window engine (KvStore::run_window), which
//     collapses it into as few protocol rounds as the register spec allows
//     (reads issued at the same replica share one round; queued writes to
//     one slot can collapse last-write-wins).
//   * Clients use the unified client() API (src/client/client.hpp): pooled
//     Ticket/callback completions resolved on the owning shard's worker,
//     with uniform Status outcomes. Any thread may submit. (The legacy
//     promise-backed put_async/get_async futures cost ~4 allocations per
//     op; they are gone — the pooled path costs none beyond the window
//     bookkeeping.)
//
// Atomicity is untouched: every slot is still one paper register; batching
// only chooses WHICH protocol operations to issue, never changes what a
// protocol operation does. run_sharded_workload and
// project_sharded_capacity (src/workload/sharded_workload.hpp) record every
// (shard, slot) register's client-side history and check it with
// MwmrChecker.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "kvstore/kv_store.hpp"
#include "kvstore/shard_router.hpp"
#include "metrics/message_stats.hpp"

namespace tbr {

class ShardedKvStore {
 public:
  struct Options {
    std::uint32_t shards = 4;          ///< independent register groups
    std::uint32_t n = 3;               ///< replica nodes per shard
    std::uint32_t t = 1;               ///< crash budget per shard (2t < n)
    std::uint32_t slots_per_shard = 16;
    std::uint64_t seed = 1;
    Value initial;                     ///< value of every never-written key

    /// Collapse runs of queued writes to one slot into a single protocol
    /// write (last value wins; absorbed puts resolve with the surviving
    /// version and `absorbed = true`). Reads always coalesce.
    bool coalesce_writes = true;
    /// Largest window handed to one batch (0 = unbounded drain).
    std::size_t max_batch = 0;
    /// Batching window floor: a worker waits (up to min_batch_wait) until
    /// at least this many ops are queued before opening a window, like a
    /// group-commit minimum. 0 or 1 = drain whatever accumulated (the
    /// default). Pipelined clients get deterministic window sizes — the
    /// allocs-per-op gates rely on this.
    std::size_t min_batch = 0;
    /// Patience for min_batch before the worker opens a partial window
    /// anyway (keeps drain()/ragged traffic live).
    std::chrono::microseconds min_batch_wait{1000};
    /// Per-slot register engine (two-bit default, or a fast-path read
    /// engine for 3Δ/2Δ gets).
    Algorithm engine = Algorithm::kTwoBit;
  };

  /// The flat store shard `shard` runs: the group knobs above, seed
  /// `seed ^ 0x5A17·(shard+1)`, and KvStore's default network
  /// (ConstantDelay(1000), infinite CPU). The capacity projection builds
  /// its per-shard stores from this too.
  static KvStore::Options shard_options(const Options& options,
                                        std::uint32_t shard);

  /// Replica selector for gets: rotate over the shard's live-looking nodes.
  static constexpr ProcessId kAnyReplica = kNoProcess;

  explicit ShardedKvStore(Options options);
  ~ShardedKvStore();
  ShardedKvStore(const ShardedKvStore&) = delete;
  ShardedKvStore& operator=(const ShardedKvStore&) = delete;

  // ---- the unified client API (any thread) ---------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). Ops execute inside their shard's next
  /// batching window; completions (and callbacks) run on the shard worker.
  /// put results carry version/absorbed, and every result's latency is
  /// in its shard's virtual ticks. Steady state allocates nothing per
  /// callback op and at most once per ticket op, end to end (both gated).
  /// A worker completing callback ops takes no lock per op.
  KvClient& client() noexcept;

  // ---- environment ---------------------------------------------------------------
  /// Crash replica `node` in shard `shard` (applied between batches).
  void crash(std::uint32_t shard, ProcessId node);
  /// Block until every shard queue is empty and its worker is idle.
  void drain();
  /// Stop accepting work and join the shard workers (already-queued
  /// windows drain first). Each worker then settles its store once and
  /// publishes a final report, so `net.local_memory_peak()` is set after
  /// stop(). Idempotent; the destructor calls it. Later submissions
  /// complete with StatusCode::kShutdown.
  void stop();

  const ShardRouter& router() const noexcept { return router_; }
  std::uint32_t shard_count() const noexcept;
  std::uint32_t node_count() const noexcept;

  // ---- observability (aggregated snapshots, safe from any thread) ---------------
  struct ShardReport {
    BatchStats batch;
    MessageStats net;
    Tick virtual_now = 0;        ///< shard simulator clock
    std::uint64_t failed_ops = 0;
    /// The shard stalled (over-budget crashes); it now refuses all ops.
    bool lost_liveness = false;
  };
  ShardReport shard_report(std::uint32_t shard) const;
  BatchStats batch_stats() const;      ///< merged across shards
  std::uint64_t frames_sent() const;   ///< merged across shards

 private:
  struct Shard;
  struct ShardOp;
  class ClientImpl;

  void worker_loop(Shard& shard, std::stop_token st);
  /// Copy the worker-owned counters into the cross-thread snapshot.
  static void publish_report(Shard& shard);

  Options opt_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<ClientImpl> client_impl_;  // engine + KvClient
  std::vector<std::jthread> workers_;
};

}  // namespace tbr
