// SocketNetwork: the register group over real TCP sockets.
//
// The third runtime (after the discrete-event simulator and the in-memory
// thread network): n processes inside this OS process, fully meshed over
// loopback TCP connections, multiplexed onto N epoll event loops. What
// travels between processes is the algorithm codec's wire encoding in
// length-prefixed frames — the actual two-bit frames, over an actual
// transport.
//
// Model mapping: TCP gives reliable FIFO byte streams, which is strictly
// stronger than the CAMP model's reliable non-FIFO channels, so every
// property proven in the model holds here (the simulator covers the
// adversarial-reordering side; the socket runtime covers the "is this a
// real system" side). Crashing a process closes its sockets mid-protocol;
// peers observe the dead channel and drop traffic toward it, exactly the
// model's "a crash stops the process, not its delivered packets".
//
// Multi-loop core: Options::loops event-loop threads (default: one per
// hardware thread, capped at n), each running epoll readiness over the
// connections of the processes sharded onto it (pid % loops — the
// mesh-topology analogue of SO_REUSEPORT sharded accept: every
// connection lands on exactly one loop at admission time and stays
// there). A process's handlers still run only on its owning loop thread,
// so the model's sequential-process guarantee is untouched; what changed
// is that loops no longer rebuild poll arrays — interest is registered
// once and updated O(1) — and that distinct processes on distinct loops
// make progress in parallel.
//
// Backpressure: every connection carries ConnLimits watermarks (see
// transport/connection.hpp). When a peer's outbuf crosses high water the
// connection parks and the owning process stops *starting* client
// operations — one admitted op waits on the node, the RegisterClient
// chain holds the rest and stalls deterministically instead of the outbuf
// growing without bound. A connection parks when a frame is queued and
// resumes at the flush that drains it to low water. Nothing queued is
// dropped or reordered. parked()/backpressure_snapshot() surface the
// state.
//
// Syscall batching: each loop round waits, dispatches readiness, runs
// queued commands, starts admitted ops, and then flushes once every
// connection that queued frames in the round, so a round's frames to one
// peer share one send. A read round stops at the first short read, and a
// submitter writes a loop's wake pipe only while that loop sleeps.
//
// Client API: client() exposes the same unified RegisterClient as every
// other engine (pooled Ticket/callback completions, uniform Status — see
// src/client/client.hpp), with the network as its engine: issue enqueues
// a command to the owning loop thread, park blocks on the client pool's
// condition variable, and the loop thread runs the op through the node's
// OpSlot (src/client/op_slot.hpp): the protocol's result, kCrashed after
// a crash marker, or kShutdown once the network stops. A write whose value
// would not fit in a frame fails with kTooLarge at issue (see
// max_value_bytes()). Inbound bytes ride a consumed-offset ring
// (FrameBuffer), so draining a frame is O(frame), not O(buffer); a
// steady-state ticket round-trip stays allocation-free.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "client/client.hpp"
#include "metrics/message_stats.hpp"
#include "net/register_process.hpp"
#include "transport/connection.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class SocketNetwork final : private RegisterClientEngine {
 public:
  /// cfg, algo, process_factory and recover_factory (RegisterGroupOptions)
  /// plus the loop and buffer knobs.
  struct Options : RegisterGroupOptions {
    /// Event-loop threads. 0 = auto: min(n, hardware concurrency).
    /// Processes shard onto loops by pid % loops.
    std::uint32_t loops = 0;

    /// Per-connection buffer/budget watermarks (applied to every channel).
    ConnLimits limits;
  };

  /// Aggregate backpressure counters across all processes, and the
  /// syscalls the loops made.
  struct BackpressureStats {
    std::uint64_t park_events = 0;    ///< outbufs that crossed high water
    std::uint64_t resume_events = 0;  ///< parked outbufs drained to low water
    std::uint64_t deferred_ops = 0;   ///< ops admitted while parked (stalled)
    std::uint64_t peak_outbuf_bytes = 0;  ///< max queued bytes on any channel
    std::uint32_t parked_now = 0;     ///< processes currently parked
    /// Channels closed on a length prefix above FrameBuffer::kMaxFrame.
    std::uint64_t refused_frames = 0;
    SyscallCounts syscalls;           ///< summed over the event loops
  };

  explicit SocketNetwork(Options options);
  ~SocketNetwork();
  SocketNetwork(const SocketNetwork&) = delete;
  SocketNetwork& operator=(const SocketNetwork&) = delete;

  /// Build the TCP mesh and launch all event loops. Idempotent.
  void start();
  /// Stop loops, close sockets, reject further work. Idempotent.
  void stop();

  /// The unified client API (src/client/client.hpp): pooled Ticket and
  /// callback completions with uniform Status outcomes. Safe from any
  /// thread; completions run on the owning process's loop thread. Steady
  /// state: zero allocations per operation.
  RegisterClient& client() noexcept { return client_; }

  /// Crash a process: its loop closes every socket and ignores the rest.
  void crash(ProcessId pid);
  bool crashed(ProcessId pid) const;
  /// Rejoin a crashed process as a fresh incarnation (RegisterGroupOptions::
  /// recover_factory): a brand-new TCP connection per live peer (whatever
  /// the old connections still held dies with them), then the new process
  /// starts on the loop thread and catches up from peer checkpoints.
  void recover(ProcessId pid);

  /// Event loops actually running (after auto-resolution).
  std::uint32_t loop_count() const noexcept;
  /// Largest write value the mesh carries: FrameBuffer::kMaxFrame less
  /// the codec's value_frame_overhead(), so every frame carrying the value
  /// fits a peer's frame cap. A larger write fails with kTooLarge at
  /// issue, before any frame is queued.
  std::size_t max_value_bytes() const noexcept { return max_value_bytes_; }
  /// True while pid's op admission is stalled by backpressure: some
  /// outbound channel is above high water, so a newly issued operation
  /// waits at the node instead of starting. The RegisterClient chain
  /// stalls deterministically behind it.
  bool parked(ProcessId pid) const;
  BackpressureStats backpressure_snapshot() const;
  /// Fault-injection hook (tests): while paused, pid's loop stops draining
  /// its inbound sockets — a slow reader without descheduling a thread.
  /// Kernel buffers fill, writers toward pid hit their watermarks.
  void set_read_paused(ProcessId pid, bool paused);

  MessageStats stats_snapshot() const;
  const GroupConfig& config() const noexcept { return cfg_; }
  Tick now() const;  ///< ns since network construction

 private:
  class Node;
  class Loop;

  // RegisterClientEngine.
  void client_issue(OpState& st) override;
  bool client_crashed(ProcessId pid) const override { return crashed(pid); }

  GroupConfig cfg_;
  Options opt_;
  ProcessFactory rejoin_;  ///< builds recover()'s incarnations; may be empty
  std::size_t max_value_bytes_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Loop>> loops_;
  RegisterClient client_{*this, cfg_};

  mutable std::mutex stats_mu_;
  MessageStats stats_;
  void record_send(std::uint8_t type, const WireAccounting& wire);
  void record_drop();

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::jthread> threads_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace tbr
