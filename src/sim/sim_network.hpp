// SimNetwork: the CAMP_{n,t} model, executable.
//
// n event-driven processes over a complete graph of reliable, non-FIFO,
// asynchronous channels; up to t of them may crash at scheduled instants.
// Virtual time advances only when events fire, so a (processes, delay model,
// seed) triple fully determines the execution — the adversarial-schedule
// property tests sweep seeds to explore distinct interleavings.
//
// Hot-path design (zero allocations per delivered frame in steady state):
// a send copy-assigns the message and its route into a slot of a recycled
// frame pool (std::deque: slot references stay valid while handlers send)
// and schedules a typed Deliver event carrying the slot index — no closure,
// no per-frame Message copy beyond the one the reliable channel
// semantically requires. Slots return to a freelist once their frame is
// handled or dropped, so their string capacities are reused and
// steady-state traffic never touches the heap. The live slots are exactly
// the frames in flight, which is what in_flight() lists.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "metrics/message_stats.hpp"
#include "net/context.hpp"
#include "net/message.hpp"
#include "net/process.hpp"
#include "sim/delay_model.hpp"
#include "sim/event_queue.hpp"
#include "sim/trace.hpp"

namespace tbr {

class SimNetwork {
 public:
  struct Options {
    std::uint64_t seed = 1;
    std::unique_ptr<DelayModel> delay;  ///< default: ConstantDelay(1000)

    /// OUT-OF-MODEL fault injection: drop each frame with this probability.
    /// The CAMP model's channels are reliable and every algorithm here
    /// assumes that (none retransmits); non-zero loss exists to demonstrate
    /// the model boundary (experiment D8) — safety survives, liveness does
    /// not. Keep 0 for every in-model experiment.
    double loss_rate = 0.0;

    /// CPU capacity model: each process (or each loop of processes, see
    /// service_loops) handles at most one frame per `service_time` ticks;
    /// frames arriving at a busy CPU queue behind it (FIFO by arrival). 0 (default) disables the model —
    /// delivery time is the channel delay alone, as the CAMP model assumes.
    /// The asynchronous model is preserved (handling is only ever delayed,
    /// never reordered against causality), so safety results are
    /// unaffected; what changes is THROUGHPUT, which is the point: capacity
    /// projections for the sharded engine and the socket loops use this to
    /// measure what finite CPU does to an op mix.
    Tick service_time = 0;

    /// Serial CPUs ("loops") the capacity model shares between processes,
    /// sharded pid % service_loops the way SocketNetwork shards its epoll
    /// loops; frames for every process on a loop queue in one FIFO. 0 (or
    /// any value >= n) gives each process its own CPU. Ignored while
    /// service_time is 0.
    std::uint32_t service_loops = 0;

    /// Crash-rejoin support: builds the fresh incarnation installed by
    /// recover_now(pid), typically a TwoBitProcess that catches up from
    /// peer checkpoints (rejoin_factory in workload/algorithms.hpp).
    /// Recovering without a factory is a contract error.
    std::function<std::unique_ptr<ProcessBase>(ProcessId)> recover_factory;
  };

  SimNetwork(std::vector<std::unique_ptr<ProcessBase>> processes,
             Options options);
  ~SimNetwork();
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // ---- time & scheduling -------------------------------------------------
  Tick now() const noexcept { return now_; }

  /// Schedule a client-side event (e.g. "process 2 starts a read") at an
  /// absolute virtual time >= now. Captures up to InlineFn::kInlineBytes
  /// are stored inline (no allocation).
  void schedule_at(Tick when, EventQueue::Fn fn);
  void schedule_after(Tick delay, EventQueue::Fn fn);

  // ---- faults -------------------------------------------------------------
  /// Crash `pid` at time `when`: it processes no event at or after `when`;
  /// messages already sent by it remain in flight (a crash stops the
  /// process, not its packets).
  void crash_at(ProcessId pid, Tick when);
  void crash_now(ProcessId pid);
  bool crashed(ProcessId pid) const;
  std::uint32_t crash_count() const noexcept { return crash_count_; }

  /// Replace crashed `pid` with a fresh incarnation from
  /// Options::recover_factory. Models a process restart on the same
  /// identity: every channel touching pid is re-established, so frames
  /// still in flight to or from the old incarnation are dead on arrival
  /// (channel-epoch fencing below) — exactly what a closed-and-reopened
  /// TCP connection gives the socket runtime. The new incarnation's
  /// on_start runs immediately (it broadcasts CATCHUP when configured with
  /// recover_via_catchup).
  void recover_at(ProcessId pid, Tick when);
  void recover_now(ProcessId pid);
  std::uint32_t recover_count() const noexcept { return recover_count_; }

  // ---- execution ----------------------------------------------------------
  /// Run events until the queue drains or a limit is hit.
  /// Returns true if the queue drained.
  bool run(std::uint64_t max_events = kDefaultMaxEvents,
           Tick max_time = kNever);

  /// Run until `done()` holds (checked after every event) or a limit is hit.
  /// Returns true if `done()` held.
  bool run_until(const std::function<bool()>& done,
                 std::uint64_t max_events = kDefaultMaxEvents,
                 Tick max_time = kNever);

  std::uint64_t events_executed() const noexcept { return events_executed_; }

  // ---- access -------------------------------------------------------------
  std::uint32_t process_count() const {
    return static_cast<std::uint32_t>(processes_.size());
  }
  ProcessBase& process(ProcessId pid);
  template <typename T>
  T& process_as(ProcessId pid) {
    auto* p = dynamic_cast<T*>(&process(pid));
    TBR_ENSURE(p != nullptr, "process has unexpected type");
    return *p;
  }
  NetworkContext& context(ProcessId pid);

  MessageStats& stats() noexcept { return stats_; }
  const MessageStats& stats() const noexcept { return stats_; }
  Rng& rng() noexcept { return rng_; }

  /// Event-heap comparator invocations so far (EventQueue::work_units):
  /// deterministic scheduler cost for a fixed seed.
  std::uint64_t scheduler_work_units() const noexcept {
    return queue_.work_units();
  }

  // ---- introspection (the lemma invariant observer) ------------------------
  /// Every frame sent and not yet handled or dropped: on the wire, or
  /// waiting for a busy CPU. In frame-pool slot order.
  std::vector<InFlightFrame> in_flight() const;

  /// Frames destroyed by out-of-model loss injection (Options::loss_rate).
  std::uint64_t frames_lost() const noexcept { return frames_lost_; }

  /// Called after every executed event with the network in a quiescent
  /// state; the lemma-invariant observers hang here. Throwing from the hook
  /// aborts the run (tests use TBR_INVARIANT).
  using Hook = std::function<void(SimNetwork&)>;
  void set_post_event_hook(Hook hook) { post_event_hook_ = std::move(hook); }

  /// Called with the pid right after a process crashes (crash_now, and so
  /// crash_at): SimRegisterGroup's client fails the op in flight there.
  using CrashHook = std::function<void(ProcessId)>;
  void set_crash_hook(CrashHook hook) { crash_hook_ = std::move(hook); }

  /// Attach a protocol trace (send/deliver/drop/crash events). The log must
  /// outlive the network; pass nullptr to detach.
  void set_trace(TraceLog* trace) { trace_ = trace; }

  static constexpr std::uint64_t kDefaultMaxEvents = 50'000'000;

 private:
  class Context;

  void send_from(ProcessId from, ProcessId to, const Message& msg);
  /// Invalidate every frame currently in flight from -> to (sender-side
  /// half of a channel re-establishment; NetworkContext::fence_peer).
  void fence_from(ProcessId from, ProcessId to);
  /// Execute a Deliver event for pooled frame `frame`: hand it to its
  /// destination, or park it in its loop's service FIFO when the capacity
  /// model says that CPU is mid-frame.
  void deliver_frame(EventQueue::FrameId frame);
  /// Run the destination's handler on pooled frame `frame`, then recycle
  /// the slot.
  void hand_over(EventQueue::FrameId frame);
  /// Serve the next parked frame on `loop` (fires at busy_until_[loop]).
  void drain_service_queue(std::uint32_t loop);
  /// Account a frame from -> to that will never be handled.
  void record_drop(ProcessId from, ProcessId to, const Message& msg);
  void step();  // run one event + hook

  // ---- frame pool ---------------------------------------------------------
  /// Copy `msg` and its route into a recycled pool slot (the slot's string
  /// capacity is reused, so steady-state sends never allocate), stamp it
  /// with the channel's epoch, and return its index.
  EventQueue::FrameId acquire_frame(ProcessId from, ProcessId to,
                                    const Message& msg);
  void release_frame(EventQueue::FrameId frame);
  /// Account pooled frame `frame` as dropped and recycle its slot.
  void drop_frame(EventQueue::FrameId frame);

  std::vector<std::unique_ptr<ProcessBase>> processes_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<bool> crashed_;
  std::uint32_t crash_count_ = 0;
  std::uint32_t recover_count_ = 0;
  std::function<std::unique_ptr<ProcessBase>(ProcessId)> recover_factory_;

  /// Channel epochs, flattened [from * n + to]. A frame is stamped with its
  /// channel's epoch at send time and silently dies if the epoch moved
  /// before delivery. recover_now bumps pid's whole row and column (both
  /// directions of every channel touching the restarted process);
  /// fence_from bumps a single cell (a live peer re-establishing its send
  /// side toward a rejoiner). Everything stays at epoch 0 until a recovery
  /// feature is actually exercised.
  std::vector<std::uint32_t> chan_epoch_;
  std::uint32_t chan_epoch(ProcessId from, ProcessId to) const {
    return chan_epoch_[from * processes_.size() + to];
  }

  EventQueue queue_;
  Tick now_ = 0;
  std::uint64_t events_executed_ = 0;

  Rng rng_;
  std::unique_ptr<DelayModel> delay_;
  double loss_rate_ = 0.0;
  Tick service_time_ = 0;

  /// In-flight frames live here, indexed by EventQueue::FrameId. A deque so
  /// slot references stay valid while a handler's sends grow the pool.
  struct PooledFrame {
    Message msg;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;  ///< kNoProcess: the slot is free
    std::uint32_t epoch = 0;    ///< the channel's epoch at send time
  };
  std::deque<PooledFrame> frame_pool_;
  std::vector<EventQueue::FrameId> free_frames_;

  /// Capacity-model CPUs: Options::service_loops, or one per process.
  std::uint32_t loops_ = 0;
  std::uint32_t loop_of(ProcessId pid) const { return pid % loops_; }
  std::vector<Tick> busy_until_;  ///< per-loop CPU free time

  /// Pooled frames awaiting a busy loop's CPU, FIFO by arrival, as a
  /// recycled vector ring (a deque would churn chunk allocations at every
  /// boundary). Invariant: a non-empty queue has a drain event pending at
  /// its loop's busy_until_. A drain that fires earlier is stale
  /// (recover_now reset a dedicated CPU under it) and does nothing.
  class FrameFifo {
   public:
    bool empty() const noexcept { return count_ == 0; }
    std::size_t size() const noexcept { return count_; }
    void push(EventQueue::FrameId f);
    EventQueue::FrameId pop();

   private:
    std::vector<EventQueue::FrameId> ring_;  // capacity: a power of two
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };
  std::vector<FrameFifo> service_queue_;

  std::uint64_t frames_lost_ = 0;
  MessageStats stats_;
  Hook post_event_hook_;
  CrashHook crash_hook_;
  TraceLog* trace_ = nullptr;

  bool started_ = false;
  void ensure_started();
};

}  // namespace tbr
