#include "sim/event_queue.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace tbr {

namespace {

EventQueue::Policy resolve(const EventQueue::Options& options) {
  if (options.policy != EventQueue::Policy::kAuto) return options.policy;
  return options.clustered_delays ? EventQueue::Policy::kCalendar
                                  : EventQueue::Policy::kHeap;
}

}  // namespace

EventQueue::EventQueue(Options options)
    : policy_(resolve(options)),
      heap_(Later{&heap_work_}),
      calendar_(options.calendar) {}

EventQueue::EventId EventQueue::push(Tick at, Kind kind, ProcessId from,
                                     ProcessId to, FrameId frame, Fn fn) {
  TBR_ENSURE(at >= 0, "event time must be non-negative");
  const EventId id = next_id_++;
  if (policy_ == Policy::kCalendar) {
    calendar_.push(SchedEntry{at, id, kind, from, to, frame, std::move(fn)});
  } else {
    heap_.push(SchedEntry{at, id, kind, from, to, frame, std::move(fn)});
  }
  return id;
}

EventQueue::EventId EventQueue::schedule(Tick at, Fn fn) {
  TBR_ENSURE(fn != nullptr, "cannot schedule a null event");
  return push(at, Kind::kClosure, kNoProcess, kNoProcess, 0, std::move(fn));
}

EventQueue::EventId EventQueue::schedule_deliver(Tick at, ProcessId from,
                                                 ProcessId to, FrameId frame) {
  return push(at, Kind::kDeliver, from, to, frame, nullptr);
}

EventQueue::EventId EventQueue::schedule_drain(Tick at, std::uint32_t loop) {
  return push(at, Kind::kDrain, kNoProcess, loop, 0, nullptr);
}

Tick EventQueue::next_time() const {
  if (policy_ == Policy::kCalendar) return calendar_.next_time();
  return heap_.empty() ? kNever : heap_.top().at;
}

EventQueue::Fired EventQueue::pop_next() {
  if (policy_ == Policy::kCalendar) {
    TBR_ENSURE(!calendar_.empty(), "pop_next on empty queue");
    SchedEntry e = calendar_.pop();
    return Fired{e.at, e.id, e.kind, e.from, e.to, e.frame, std::move(e.fn)};
  }
  TBR_ENSURE(!heap_.empty(), "pop_next on empty queue");
  // priority_queue::top is const; move out via const_cast of the handle we
  // are about to pop (safe: pop() destroys the source immediately).
  SchedEntry e = std::move(const_cast<SchedEntry&>(heap_.top()));
  heap_.pop();
  return Fired{e.at, e.id, e.kind, e.from, e.to, e.frame, std::move(e.fn)};
}

EventQueue::Fired EventQueue::run_next() {
  Fired fired = pop_next();
  TBR_ENSURE(fired.kind == Kind::kClosure,
             "run_next popped a typed event; dispatch it via the network");
  fired.fn();
  return fired;
}

}  // namespace tbr
