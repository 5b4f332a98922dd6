#include "sim/sim_network.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"

namespace tbr {

// Per-process view of the network handed to handlers.
class SimNetwork::Context final : public NetworkContext {
 public:
  Context(SimNetwork& net, ProcessId self) : net_(net), self_(self) {}

  void send(ProcessId to, const Message& msg) override {
    net_.send_from(self_, to, msg);
  }
  ProcessId self() const override { return self_; }
  std::uint32_t process_count() const override {
    return net_.process_count();
  }
  Tick now() const override { return net_.now(); }
  void fence_peer(ProcessId to) override { net_.fence_from(self_, to); }

 private:
  SimNetwork& net_;
  ProcessId self_;
};

// ---- service-queue ring -----------------------------------------------------

void SimNetwork::FrameFifo::push(EventQueue::FrameId f) {
  if (count_ == ring_.size()) {
    // Grow to the next power of two, unwrapping into the new layout.
    std::vector<EventQueue::FrameId> bigger(ring_.empty() ? 8
                                                          : ring_.size() * 2);
    for (std::size_t k = 0; k < count_; ++k) {
      bigger[k] = ring_[(head_ + k) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }
  ring_[(head_ + count_) & (ring_.size() - 1)] = f;
  ++count_;
}

EventQueue::FrameId SimNetwork::FrameFifo::pop() {
  TBR_ENSURE(count_ > 0, "pop from empty service queue");
  const EventQueue::FrameId f = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  return f;
}

// ---- construction -----------------------------------------------------------

SimNetwork::SimNetwork(std::vector<std::unique_ptr<ProcessBase>> processes,
                       Options options)
    : processes_(std::move(processes)),
      crashed_(processes_.size(), false),
      recover_factory_(std::move(options.recover_factory)),
      chan_epoch_(processes_.size() * processes_.size(), 0),
      rng_(options.seed),
      delay_(options.delay ? std::move(options.delay)
                           : make_constant_delay(1000)),
      loss_rate_(options.loss_rate),
      service_time_(options.service_time),
      loops_(static_cast<std::uint32_t>(
          options.service_loops == 0
              ? processes_.size()
              : std::min<std::size_t>(options.service_loops,
                                      processes_.size()))),
      busy_until_(loops_, 0),
      service_queue_(loops_) {
  TBR_ENSURE(loss_rate_ >= 0.0 && loss_rate_ < 1.0,
             "loss rate must be in [0, 1)");
  TBR_ENSURE(service_time_ >= 0, "service time cannot be negative");
  TBR_ENSURE(!processes_.empty(), "network needs at least one process");
  for (const auto& p : processes_) {
    TBR_ENSURE(p != nullptr, "null process");
  }
  contexts_.reserve(processes_.size());
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
    contexts_.push_back(std::make_unique<Context>(*this, pid));
  }
}

SimNetwork::~SimNetwork() = default;

void SimNetwork::ensure_started() {
  if (started_) return;
  started_ = true;
  for (ProcessId pid = 0; pid < processes_.size(); ++pid) {
    if (!crashed_[pid]) processes_[pid]->on_start(*contexts_[pid]);
  }
}

void SimNetwork::schedule_at(Tick when, EventQueue::Fn fn) {
  TBR_ENSURE(when >= now_, "cannot schedule in the past");
  queue_.schedule(when, std::move(fn));
}

void SimNetwork::schedule_after(Tick delay, EventQueue::Fn fn) {
  TBR_ENSURE(delay >= 0, "negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void SimNetwork::crash_at(ProcessId pid, Tick when) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  schedule_at(when, [this, pid] { crash_now(pid); });
}

void SimNetwork::crash_now(ProcessId pid) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  if (crashed_[pid]) return;
  crashed_[pid] = true;
  ++crash_count_;
  if (trace_ != nullptr) {
    trace_->record(
        TraceEvent{TraceEvent::Kind::kCrash, now_, pid, kNoProcess, 0, -1,
                   false});
  }
  processes_[pid]->on_crash();
  if (crash_hook_) crash_hook_(pid);
}

bool SimNetwork::crashed(ProcessId pid) const {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  return crashed_[pid];
}

void SimNetwork::recover_at(ProcessId pid, Tick when) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  schedule_at(when, [this, pid] { recover_now(pid); });
}

void SimNetwork::recover_now(ProcessId pid) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  TBR_ENSURE(crashed_[pid], "recover of a process that is not crashed");
  TBR_ENSURE(recover_factory_ != nullptr,
             "recover needs Options::recover_factory");
  // Re-establish every channel touching pid: frames in flight to or from
  // the old incarnation die with it (a restart closes its connections).
  const std::size_t n = processes_.size();
  for (ProcessId peer = 0; peer < n; ++peer) {
    ++chan_epoch_[pid * n + peer];  // sent by the old incarnation
    ++chan_epoch_[peer * n + pid];  // addressed to the old incarnation
  }
  // Frames parked for the dead incarnation's CPU are lost with it; other
  // processes' frames on a shared loop keep their places in the FIFO.
  const std::uint32_t loop = loop_of(pid);
  FrameFifo& fifo = service_queue_[loop];
  for (std::size_t k = fifo.size(); k > 0; --k) {
    const EventQueue::FrameId frame = fifo.pop();
    if (frame_pool_[frame].to != pid) {
      fifo.push(frame);
      continue;
    }
    drop_frame(frame);
  }
  // A dedicated CPU restarts idle. A shared loop's clock also times its
  // other processes' frames, so it stands.
  if (loops_ == processes_.size()) busy_until_[loop] = now_;
  crashed_[pid] = false;
  ++recover_count_;
  processes_[pid] = recover_factory_(pid);
  TBR_ENSURE(processes_[pid] != nullptr, "recover factory returned null");
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEvent::Kind::kRecover, now_, pid,
                              kNoProcess, 0, -1, false});
  }
  if (started_) processes_[pid]->on_start(*contexts_[pid]);
}

void SimNetwork::fence_from(ProcessId from, ProcessId to) {
  TBR_ENSURE(from < processes_.size() && to < processes_.size(),
             "pid out of range");
  ++chan_epoch_[from * processes_.size() + to];
}

// ---- frame pool --------------------------------------------------------------

EventQueue::FrameId SimNetwork::acquire_frame(ProcessId from, ProcessId to,
                                              const Message& msg) {
  EventQueue::FrameId frame = 0;
  if (free_frames_.empty()) {
    frame = static_cast<EventQueue::FrameId>(frame_pool_.size());
    frame_pool_.emplace_back();
  } else {
    frame = free_frames_.back();
    free_frames_.pop_back();
  }
  // Copy-assign into the slot: a recycled slot's value-string keeps its
  // capacity across reuses, so a warmed pool absorbs any payload size the
  // workload has already seen without allocating.
  PooledFrame& slot = frame_pool_[frame];
  slot.msg = msg;
  slot.from = from;
  slot.to = to;
  slot.epoch = chan_epoch(from, to);
  return frame;
}

void SimNetwork::release_frame(EventQueue::FrameId frame) {
  frame_pool_[frame].to = kNoProcess;
  free_frames_.push_back(frame);
}

void SimNetwork::drop_frame(EventQueue::FrameId frame) {
  const PooledFrame& f = frame_pool_[frame];
  record_drop(f.from, f.to, f.msg);
  release_frame(frame);
}

// ---- send / deliver ----------------------------------------------------------

void SimNetwork::record_drop(ProcessId from, ProcessId to,
                             const Message& msg) {
  stats_.record_drop();
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEvent::Kind::kDrop, now_, from, to,
                              msg.type, msg.debug_index, msg.has_value});
  }
}

void SimNetwork::send_from(ProcessId from, ProcessId to, const Message& msg) {
  TBR_ENSURE(to < processes_.size(), "destination out of range");
  TBR_ENSURE(to != from, "algorithms never send to themselves");
  stats_.record_send(msg.type, msg.wire);
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEvent::Kind::kSend, now_, from, to,
                              msg.type, msg.debug_index, msg.has_value});
  }
  if (crashed_[to]) {
    // The channel is reliable but the endpoint is gone; the frame can never
    // be processed. Account it as sent-then-dropped.
    record_drop(from, to, msg);
    return;
  }
  if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
    // Out-of-model loss injection (experiment D8): the frame evaporates.
    ++frames_lost_;
    record_drop(from, to, msg);
    return;
  }
  const Tick dt = delay_->delay(rng_, from, to, msg);
  TBR_ENSURE(dt > 0, "delay model produced a non-positive delay");
  queue_.schedule_deliver(now_ + dt, acquire_frame(from, to, msg));
}

void SimNetwork::deliver_frame(EventQueue::FrameId frame) {
  const PooledFrame& f = frame_pool_[frame];
  if (f.epoch != chan_epoch(f.from, f.to) || crashed_[f.to]) {
    // The channel was re-established (an endpoint restarted, or the sender
    // fenced it) after this frame left, or its endpoint is gone.
    drop_frame(frame);
    return;
  }
  if (service_time_ > 0) {
    const std::uint32_t loop = loop_of(f.to);
    if (busy_until_[loop] > now_ || !service_queue_[loop].empty()) {
      // Capacity model: the loop's CPU is mid-frame. Park the pooled frame
      // in the loop's FIFO; the single drain event pending at
      // busy_until_[loop] hands the queue over one service interval at a
      // time.
      const bool first = service_queue_[loop].empty();
      service_queue_[loop].push(frame);
      if (first) queue_.schedule_drain(busy_until_[loop], loop);
      return;  // slot stays acquired until the drain serves it
    }
    busy_until_[loop] = now_ + service_time_;
  }
  hand_over(frame);
}

void SimNetwork::hand_over(EventQueue::FrameId frame) {
  const PooledFrame& f = frame_pool_[frame];
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEvent::Kind::kDeliver, now_, f.from, f.to,
                              f.msg.type, f.msg.debug_index,
                              f.msg.has_value});
  }
  // The slot is released only after the handler returns: handlers hold a
  // reference to the pooled message while their sends recycle OTHER slots
  // (deque-backed pool keeps this one's address stable).
  processes_[f.to]->on_message(*contexts_[f.to], f.from, f.msg);
  release_frame(frame);
}

void SimNetwork::drain_service_queue(std::uint32_t loop) {
  if (now_ < busy_until_[loop]) return;  // stale: see FrameFifo
  FrameFifo& fifo = service_queue_[loop];
  while (!fifo.empty()) {
    const EventQueue::FrameId frame = fifo.pop();
    const PooledFrame& f = frame_pool_[frame];
    if (crashed_[f.to]) {
      // Its process died while the frame waited: lost with it, and no CPU
      // is spent on it.
      drop_frame(frame);
      continue;
    }
    busy_until_[loop] = now_ + service_time_;
    if (!fifo.empty()) queue_.schedule_drain(busy_until_[loop], loop);
    if (f.epoch != chan_epoch(f.from, f.to)) {
      // Channel re-established while the frame waited for CPU: dead on
      // arrival, same as the pre-service epoch check in deliver_frame.
      drop_frame(frame);
      return;
    }
    hand_over(frame);
    return;
  }
}

void SimNetwork::step() {
  const Tick at = queue_.next_time();
  TBR_ENSURE(at != kNever, "step on empty queue");
  TBR_ENSURE(at >= now_, "time went backwards");
  now_ = at;
  auto fired = queue_.pop_next();
  switch (fired.kind) {
    case EventQueue::Kind::kClosure:
      fired.fn();
      break;
    case EventQueue::Kind::kDeliver:
      deliver_frame(fired.frame);
      break;
    case EventQueue::Kind::kDrain:
      drain_service_queue(fired.loop);
      break;
  }
  ++events_executed_;
  if (post_event_hook_) post_event_hook_(*this);
}

bool SimNetwork::run(std::uint64_t max_events, Tick max_time) {
  ensure_started();
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.next_time() > max_time) return false;
    if (executed >= max_events) return false;
    step();
    ++executed;
  }
  return true;
}

bool SimNetwork::run_until(const std::function<bool()>& done,
                           std::uint64_t max_events, Tick max_time) {
  TBR_ENSURE(done != nullptr, "run_until needs a predicate");
  ensure_started();
  if (done()) return true;
  std::uint64_t executed = 0;
  while (!queue_.empty()) {
    if (queue_.next_time() > max_time) return false;
    if (executed >= max_events) return false;
    step();
    ++executed;
    if (done()) return true;
  }
  return false;
}

ProcessBase& SimNetwork::process(ProcessId pid) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  return *processes_[pid];
}

NetworkContext& SimNetwork::context(ProcessId pid) {
  TBR_ENSURE(pid < contexts_.size(), "pid out of range");
  return *contexts_[pid];
}

std::vector<InFlightFrame> SimNetwork::in_flight() const {
  std::vector<InFlightFrame> out;
  out.reserve(frame_pool_.size() - free_frames_.size());
  for (const PooledFrame& f : frame_pool_) {
    if (f.to != kNoProcess) {
      out.push_back(InFlightFrame{f.from, f.to, f.msg.type, f.msg.debug_index});
    }
  }
  return out;
}

}  // namespace tbr
