// MuxProcess: many independent registers multiplexed over one network node.
//
// The paper builds ONE register. A usable store needs many, and spinning up
// a full mesh per register would waste sockets and simulator state. The mux
// hosts one register instance per *slot* at each node and routes frames
// with a slot tag, exactly as ports multiplex TCP connections over one
// host pair.
//
// Accounting convention: the slot tag is addressing (data plane), not
// protocol control information — the paper's control-bit claim is per
// register instance, and each embedded two-bit register still ships
// exactly 2 control bits per frame. The tag is tallied in the frame's
// data_bits so the overhead stays visible in benches.
//
// Hot-path design: every slot wraps its frames in the mux's one reused
// outbound Message (the inner frame is encoded straight into its recycled
// Value buffer — no fresh string per send), inbound frames decode into a
// reused scratch via Codec::decode_into, and the batching window runs on a
// recycled BatchPlan whose chains/steps/op lists keep their high-water
// capacities — so a steady-state batched operation allocates nothing
// inside the mux.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "client/op.hpp"
#include "net/register_process.hpp"

namespace tbr {

/// Tally of what the batching windows saved. Single-threaded per shard;
/// the sharded store aggregates snapshots across shards under its own
/// locks. A KvStore window becomes one replica batch (a start_batch call)
/// per replica it touches.
struct BatchStats {
  std::uint64_t windows = 0;          ///< KvStore windows that ran a batch
  std::uint64_t batches = 0;          ///< start_batch invocations
  std::uint64_t client_ops = 0;       ///< operations admitted to batches
  std::uint64_t protocol_reads = 0;   ///< read rounds actually issued
  std::uint64_t protocol_writes = 0;  ///< write rounds actually issued
  std::uint64_t coalesced_reads = 0;  ///< reads served by another op's round
  std::uint64_t absorbed_writes = 0;  ///< writes absorbed by last-write-wins
  std::uint64_t max_batch_ops = 0;    ///< largest single replica batch seen

  void merge(const BatchStats& other) {
    windows += other.windows;
    batches += other.batches;
    client_ops += other.client_ops;
    protocol_reads += other.protocol_reads;
    protocol_writes += other.protocol_writes;
    coalesced_reads += other.coalesced_reads;
    absorbed_writes += other.absorbed_writes;
    max_batch_ops = std::max(max_batch_ops, other.max_batch_ops);
  }
};

class MuxProcess final : public ProcessBase {
 public:
  /// Create `slots` register instances at node `self`. `slot_cfg(slot)`
  /// gives each slot's group config (writer assignment varies per slot);
  /// `factory` (required) builds the per-slot register. KvStore decides
  /// which protocol a slot runs.
  MuxProcess(std::uint32_t slots,
             std::function<GroupConfig(std::uint32_t)> slot_cfg,
             ProcessId self, ProcessFactory factory);
  ~MuxProcess() override;

  void on_start(NetworkContext& net) override;
  void on_message(NetworkContext& net, ProcessId from,
                  const Message& msg) override;
  void on_crash() override;

  // ---- batched operations (the engines' batching window) -------------------------
  /// Run a window of client ops bound for this node (reads issued at this
  /// replica, writes to slots homed here) in as few protocol rounds as the
  /// register spec allows, and complete every op: its start is stamped
  /// here, and complete_op (src/client/op_slot.hpp) finishes it with its
  /// latency. Ops are grouped per slot (OpState::slot) into arrival-order
  /// chains (one register admits one operation at a time per process);
  /// chains for distinct slots proceed concurrently. Within a chain, a run
  /// of consecutive reads shares ONE protocol read (every op gets the same
  /// value and version — all linearize at that round's point, inside each
  /// caller's interval), and, when `coalesce_writes` is set, a run of
  /// consecutive writes collapses last-write-wins into ONE protocol write
  /// (the absorbed writes linearize immediately before the surviving one;
  /// no read can observe their values because none reaches the register).
  /// A write's version is the slot register's index it landed as (counted
  /// here — valid while every write to the slot goes through this mux, as
  /// the SWMR home-node placement guarantees); all writes of a run but the
  /// last complete with `absorbed`. `done` fires once every chain has
  /// completed; `stats`, when given, tallies the savings.
  ///
  /// The plan is recycled storage owned by this mux: at most ONE batch may
  /// be in flight per MuxProcess at a time (every in-tree driver waits for
  /// the previous window before issuing the next).
  void start_batch(NetworkContext& net, std::span<OpState* const> ops,
                   bool coalesce_writes, std::function<void()> done,
                   BatchStats* stats = nullptr);

  std::uint32_t slot_count() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  RegisterProcessBase& slot(std::uint32_t index);
  /// Total bytes of protocol state across all hosted registers.
  std::uint64_t local_memory_bytes() const;
  bool crashed() const noexcept { return crashed_; }

 private:
  class SlotContext;

  /// The window's execution plan, recycled across batches: chains and
  /// steps are high-water arrays with live counts, so planning a window
  /// the same size as a previous one performs no allocation.
  struct BatchPlan {
    struct Step {
      bool is_write = false;
      SeqNo version = 0;  ///< assigned when the write step issues
      std::vector<OpState*> ops;  ///< what the step completes, in order
    };
    struct Chain {
      std::uint32_t slot = 0;
      std::size_t step_count = 0;  ///< live prefix of `steps`
      std::vector<Step> steps;
    };
    std::size_t chain_count = 0;  ///< live prefix of `chains`
    std::vector<Chain> chains;
    std::size_t outstanding = 0;  ///< chains not yet run to completion
    bool active = false;
    std::function<void()> done;

    Chain& push_chain(std::uint32_t slot);
    static Step& push_step(Chain& chain);
  };

  void run_batch_chain(std::size_t chain, std::size_t step);
  /// One protocol operation on one slot's register (a batch step).
  void start_write(NetworkContext& net, std::uint32_t slot, Value v,
                   RegisterProcessBase::WriteDone done);
  void start_read(NetworkContext& net, std::uint32_t slot,
                  RegisterProcessBase::ReadDone done);

  ProcessId self_;
  std::vector<std::unique_ptr<RegisterProcessBase>> slots_;
  std::vector<std::unique_ptr<SlotContext>> contexts_;
  /// Protocol writes issued per slot via start_batch; tracks the slot
  /// register's index because this node is the slot's single writer.
  std::vector<SeqNo> batch_versions_;
  BatchPlan plan_;
  /// start_batch scratch: slot -> live chain index (kNoChain = none yet),
  /// reset via the plan's chain list after each window is planned.
  std::vector<std::uint32_t> slot_chain_;
  /// Inbound scratch: frames decode into this reused Message.
  Message inbound_;
  /// Outbound scratch: every slot's frames are wrapped in this envelope,
  /// which the network copies before send returns.
  Message outbound_;
  NetworkContext* net_ = nullptr;  // stable per runtime; stashed on entry
  bool crashed_ = false;
};

}  // namespace tbr
