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
  void schedule(Tick delay, std::function<void()> fn) override {
    TBR_ENSURE(delay > 0, "timer delay must be positive");
    // Fenced by incarnation: a crash kills the timers its process armed,
    // even if a rejoined incarnation is live when they fall due.
    auto timer = [net = &net_, self = self_,
                  incarnation = net_.incarnation_[self_], fn = std::move(fn)] {
      if (!net->crashed_[self] && net->incarnation_[self] == incarnation) {
        fn();
      }
    };
    static_assert(sizeof(timer) <= InlineFn::kInlineBytes,
                  "a timer must fit InlineFn's buffer: scheduling one "
                  "allocates only what `fn` itself captured");
    net_.schedule_after(delay, std::move(timer));
  }
  void fence_peer(ProcessId to) override { net_.fence_from(self_, to); }

 private:
  SimNetwork& net_;
  ProcessId self_;
};

// ---- service-queue ring -----------------------------------------------------

void SimNetwork::FrameFifo::push(ParkedFrame f) {
  if (count_ == ring_.size()) {
    // Grow to the next power of two, unwrapping into the new layout.
    std::vector<ParkedFrame> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t k = 0; k < count_; ++k) {
      bigger[k] = ring_[(head_ + k) & (ring_.size() - 1)];
    }
    ring_.swap(bigger);
    head_ = 0;
  }
  ring_[(head_ + count_) & (ring_.size() - 1)] = f;
  ++count_;
}

SimNetwork::ParkedFrame SimNetwork::FrameFifo::pop() {
  TBR_ENSURE(count_ > 0, "pop from empty service queue");
  const ParkedFrame f = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
  return f;
}

// ---- construction -----------------------------------------------------------

SimNetwork::SimNetwork(std::vector<std::unique_ptr<ProcessBase>> processes,
                       Options options)
    : processes_(std::move(processes)),
      crashed_(processes_.size(), false),
      incarnation_(processes_.size(), 0),
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
      service_queue_(loops_),
      track_in_flight_(options.track_in_flight) {
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
  ++incarnation_[pid];
  ++crash_count_;
  if (trace_ != nullptr) {
    trace_->record(
        TraceEvent{TraceEvent::Kind::kCrash, now_, pid, kNoProcess, 0, -1,
                   false});
  }
  processes_[pid]->on_crash();
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
    const ParkedFrame parked = fifo.pop();
    if (parked.to != pid) {
      fifo.push(parked);
      continue;
    }
    record_drop(parked.from, pid, frame_pool_[parked.frame]);
    release_frame(parked.frame);
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

EventQueue::FrameId SimNetwork::acquire_frame(const Message& msg) {
  if (free_frames_.empty()) {
    frame_pool_.push_back(msg);
    frame_epoch_.push_back(0);
    return static_cast<EventQueue::FrameId>(frame_pool_.size() - 1);
  }
  const EventQueue::FrameId frame = free_frames_.back();
  free_frames_.pop_back();
  // Copy-assign into the recycled slot: the slot's value-string keeps its
  // capacity across reuses, so a warmed pool absorbs any payload size the
  // workload has already seen without allocating.
  frame_pool_[frame] = msg;
  return frame;
}

void SimNetwork::release_frame(EventQueue::FrameId frame) {
  free_frames_.push_back(frame);
}

// ---- send / deliver ----------------------------------------------------------

void SimNetwork::record_drop(ProcessId from, ProcessId to,
                             const Message& msg) {
  stats_.record_drop(msg.type);
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
  const Tick deliver_at = now_ + dt;
  const auto frame = acquire_frame(msg);
  frame_epoch_[frame] = chan_epoch(from, to);
  const auto id = queue_.schedule_deliver(deliver_at, from, to, frame);
  if (track_in_flight_) {
    in_flight_.emplace_back(
        id, InFlight{from, to, msg.type, msg.debug_index, deliver_at});
  }
}

void SimNetwork::deliver_frame(ProcessId from, ProcessId to,
                               EventQueue::FrameId frame) {
  if (frame_epoch_[frame] != chan_epoch(from, to) || crashed_[to]) {
    // The channel was re-established (an endpoint restarted, or the sender
    // fenced it) after this frame left, or its endpoint is gone.
    record_drop(from, to, frame_pool_[frame]);
    release_frame(frame);
    return;
  }
  if (service_time_ > 0) {
    const std::uint32_t loop = loop_of(to);
    if (busy_until_[loop] > now_ || !service_queue_[loop].empty()) {
      // Capacity model: the loop's CPU is mid-frame. Park the pooled frame
      // in the loop's FIFO; the single drain event pending at
      // busy_until_[loop] hands the queue over one service interval at a
      // time.
      const bool first = service_queue_[loop].empty();
      service_queue_[loop].push(ParkedFrame{from, to, frame});
      if (first) queue_.schedule_drain(busy_until_[loop], loop);
      return;  // slot stays acquired until the drain serves it
    }
    busy_until_[loop] = now_ + service_time_;
  }
  hand_over(from, to, frame);
}

void SimNetwork::hand_over(ProcessId from, ProcessId to,
                           EventQueue::FrameId frame) {
  const Message& msg = frame_pool_[frame];
  if (trace_ != nullptr) {
    trace_->record(TraceEvent{TraceEvent::Kind::kDeliver, now_, from, to,
                              msg.type, msg.debug_index, msg.has_value});
  }
  // The slot is released only after the handler returns: handlers hold a
  // reference to the pooled message while their sends recycle OTHER slots
  // (deque-backed pool keeps this one's address stable).
  processes_[to]->on_message(*contexts_[to], from, msg);
  release_frame(frame);
}

void SimNetwork::drain_service_queue(std::uint32_t loop) {
  if (now_ < busy_until_[loop]) return;  // stale: see ParkedFrame
  FrameFifo& fifo = service_queue_[loop];
  while (!fifo.empty()) {
    const ParkedFrame parked = fifo.pop();
    if (crashed_[parked.to]) {
      // Its process died while the frame waited: lost with it, and no CPU
      // is spent on it.
      record_drop(parked.from, parked.to, frame_pool_[parked.frame]);
      release_frame(parked.frame);
      continue;
    }
    busy_until_[loop] = now_ + service_time_;
    if (!fifo.empty()) queue_.schedule_drain(busy_until_[loop], loop);
    if (frame_epoch_[parked.frame] != chan_epoch(parked.from, parked.to)) {
      // Channel re-established while the frame waited for CPU: dead on
      // arrival, same as the pre-service epoch check in deliver_frame.
      record_drop(parked.from, parked.to, frame_pool_[parked.frame]);
      release_frame(parked.frame);
      return;
    }
    hand_over(parked.from, parked.to, parked.frame);
    return;
  }
}

void SimNetwork::forget_in_flight(EventQueue::EventId id) {
  const auto it = std::find_if(
      in_flight_.begin(), in_flight_.end(),
      [id](const auto& entry) { return entry.first == id; });
  if (it != in_flight_.end()) in_flight_.erase(it);
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
      deliver_frame(fired.from, fired.to, fired.frame);
      break;
    case EventQueue::Kind::kDrain:
      drain_service_queue(fired.to);
      break;
  }
  if (track_in_flight_) forget_in_flight(fired.id);
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

std::vector<SimNetwork::InFlight> SimNetwork::in_flight() const {
  TBR_ENSURE(track_in_flight_,
             "in_flight() needs Options::track_in_flight = true");
  std::vector<InFlight> out;
  out.reserve(in_flight_.size());
  for (const auto& [id, info] : in_flight_) out.push_back(info);
  return out;
}

std::vector<SimNetwork::InFlight> SimNetwork::in_flight_between(
    ProcessId from, ProcessId to) const {
  TBR_ENSURE(track_in_flight_,
             "in_flight_between() needs Options::track_in_flight = true");
  std::vector<InFlight> out;
  for (const auto& [id, info] : in_flight_) {
    if (info.from == from && info.to == to) out.push_back(info);
  }
  return out;
}

}  // namespace tbr
