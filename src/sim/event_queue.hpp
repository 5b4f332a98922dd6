// Deterministic discrete-event queue with typed, allocation-free entries.
//
// Events fire in (time, insertion-sequence) order, so equal-time events run
// in the order they were scheduled and a fixed seed yields a fixed run.
//
// The hot path of the simulator is "deliver one frame": those events are a
// tagged struct (from, to, frame-pool slot), not a closure, so scheduling
// one costs zero heap allocations once the backing storage is warm. Drain
// events (the capacity model's per-loop CPU) are a second tag. The general
// case — client scripts, crash markers, timer wrappers — remains a
// callable, stored in an InlineFn whose 48-byte inline buffer covers every
// closure the engine itself creates.
//
// Two interchangeable backends sit behind one Options::policy knob:
//
//   kHeap      std::priority_queue binary heap. O(log n) per op, robust to
//              any time distribution. The default — the golden-digest
//              determinism constants are pinned on this policy.
//   kCalendar  CalendarQueue bucket ring (calendar_queue.hpp). O(1)
//              amortized for the clustered event horizons that constant/
//              uniform delay models produce; degrades when times are
//              heavy-tailed (overflow churn).
//   kAuto      kCalendar when Options::clustered_delays (fed from
//              DelayModel::clustered_delays()), else kHeap.
//
// Both backends pop the exact same (time, insertion-seq) total order — a
// randomized cross-check property test and the golden-digest suite pin the
// equivalence — and both count "work units" (heap: comparator invocations;
// calendar: bucket probes + node traversals) so benches can project
// relative throughput deterministically on any host.
//
// The queue does not know how to execute Deliver/Drain events (that needs
// the owning network's frame pool); pop_next() hands the typed entry back
// to the caller for dispatch. run_next() is the closure-only convenience
// used by direct EventQueue clients (tests).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ids.hpp"
#include "common/inline_fn.hpp"
#include "sim/calendar_queue.hpp"

namespace tbr {

class EventQueue {
 public:
  using EventId = std::uint64_t;
  using Fn = InlineFn;
  /// Index into the owning network's in-flight frame pool.
  using FrameId = std::uint32_t;
  using Kind = SchedKind;

  enum class Policy : std::uint8_t { kHeap, kCalendar, kAuto };

  struct Options {
    Policy policy = Policy::kHeap;
    /// kAuto hint: true when the delay model clusters event horizons
    /// (constant / narrow-uniform), false for heavy-tailed models.
    bool clustered_delays = true;
    /// Calendar geometry overrides (0 = automatic). Ignored on kHeap.
    CalendarQueue::Options calendar;
  };

  EventQueue() : EventQueue(Options{}) {}
  explicit EventQueue(Options options);

  // The heap comparator and the calendar peek cache both point back into
  // this object; pin it.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns the event's id.
  EventId schedule(Tick at, Fn fn);

  /// Schedule delivery of pooled frame `frame` from `from` to `to`.
  /// Allocation-free in steady state: no closure is materialized.
  EventId schedule_deliver(Tick at, ProcessId from, ProcessId to,
                           FrameId frame);

  /// Schedule a service-queue drain of capacity-model CPU `loop`; it fires
  /// with Fired::to == loop.
  EventId schedule_drain(Tick at, std::uint32_t loop);

  bool empty() const noexcept {
    return policy_ == Policy::kCalendar ? calendar_.empty() : heap_.empty();
  }
  std::size_t size() const noexcept {
    return policy_ == Policy::kCalendar ? calendar_.size() : heap_.size();
  }

  /// Time of the earliest pending event; kNever when empty. O(1) on the
  /// heap, amortized O(1) on the calendar (cached earliest-bucket cursor).
  Tick next_time() const;

  /// A popped event, handed to the caller for dispatch.
  struct Fired {
    Tick at = 0;
    EventId id = 0;
    Kind kind = Kind::kClosure;
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    FrameId frame = 0;
    Fn fn;  ///< non-empty iff kind == kClosure
  };

  /// Pop the earliest event WITHOUT running it. The caller dispatches on
  /// `kind` (the simulator's step() owns the frame pool and contexts).
  Fired pop_next();

  /// Pop and run the earliest event; it must be a closure. Convenience for
  /// direct EventQueue users — the network uses pop_next().
  Fired run_next();

  /// The resolved backend (never kAuto).
  Policy policy() const noexcept { return policy_; }

  /// Elementary scheduler operations so far: comparator invocations on the
  /// heap, bucket probes + node traversals on the calendar. Deterministic
  /// for a fixed schedule; bench_event_queue's events/s projection is the
  /// ratio of the two backends' totals over an identical event stream.
  std::uint64_t work_units() const noexcept {
    return policy_ == Policy::kCalendar ? calendar_.work_units() : heap_work_;
  }

  /// Calendar backend introspection (geometry/resize counters). Only
  /// meaningful when policy() == kCalendar.
  const CalendarQueue& calendar() const noexcept { return calendar_; }

 private:
  struct Later {
    std::uint64_t* work = nullptr;
    bool operator()(const SchedEntry& a, const SchedEntry& b) const {
      ++*work;
      if (a.at != b.at) return a.at > b.at;
      return a.id > b.id;
    }
  };
  EventId push(Tick at, Kind kind, ProcessId from, ProcessId to,
               FrameId frame, Fn fn);

  Policy policy_ = Policy::kHeap;
  std::uint64_t heap_work_ = 0;  ///< must precede heap_ (comparator aims here)
  std::priority_queue<SchedEntry, std::vector<SchedEntry>, Later> heap_;
  mutable CalendarQueue calendar_;  ///< mutable: next_time() warms its cache
  EventId next_id_ = 0;
};

}  // namespace tbr
