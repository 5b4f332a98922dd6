#include "modelcheck/mc_run.hpp"

#include <algorithm>
#include <utility>

#include "common/contracts.hpp"
#include "core/invariants.hpp"
#include "core/twobit_process.hpp"

namespace tbr {

void Scenario::validate() const {
  cfg.validate();
  TBR_ENSURE(!ops.empty(), "scenario needs at least one operation");
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const McOp& op = ops[k];
    TBR_ENSURE(op.proc < cfg.n, "op process out of range");
    TBR_ENSURE(op.kind != McOp::Kind::kWrite || op.proc == cfg.writer,
               "only the writer may write (SWMR)");
    TBR_ENSURE(op.after < static_cast<int>(k),
               "op dependencies must point backwards");
  }
  TBR_ENSURE(max_crashes <= cfg.t,
             "crash budget beyond t voids the liveness verdicts");
  for (const ProcessId pid : crash_candidates) {
    TBR_ENSURE(pid < cfg.n, "crash candidate out of range");
  }
  TBR_ENSURE(max_recoveries == 0 || recover_factory != nullptr,
             "recoveries need a recover_factory");
}

// The controlled network: sends append to the in-flight queue in program
// order; delivery order is the explorer's choice.
class McRun::McContext final : public NetworkContext {
 public:
  McContext(McRun& run, ProcessId self) : run_(run), self_(self) {}

  void send(ProcessId to, const Message& msg) override {
    TBR_ENSURE(to < run_.processes_.size() && to != self_,
               "bad destination");
    if (run_.crashed_[to]) return;  // endpoint gone; frame can never matter
    run_.in_flight_.push_back(Frame{self_, to, msg});
  }
  ProcessId self() const override { return self_; }
  std::uint32_t process_count() const override {
    return static_cast<std::uint32_t>(run_.processes_.size());
  }
  Tick now() const override { return static_cast<Tick>(run_.steps_); }
  void fence_peer(ProcessId to) override {
    // Re-establish our send side toward `to`: our undelivered frames to it
    // belong to the dead connection and are erased from the frontier.
    std::erase_if(run_.in_flight_, [this, to](const Frame& f) {
      return f.from == self_ && f.to == to;
    });
  }

 private:
  McRun& run_;
  ProcessId self_;
};

McRun::McRun(const Scenario& scenario)
    : scenario_(scenario),
      crashed_(scenario.cfg.n, false),
      op_state_(scenario.ops.size()) {
  scenario_.validate();
  const auto& factory = scenario_.factory;
  processes_.reserve(scenario_.cfg.n);
  contexts_.reserve(scenario_.cfg.n);
  for (ProcessId pid = 0; pid < scenario_.cfg.n; ++pid) {
    processes_.push_back(factory
                             ? factory(scenario_.cfg, pid)
                             : std::make_unique<TwoBitProcess>(scenario_.cfg,
                                                               pid));
    contexts_.push_back(std::make_unique<McContext>(*this, pid));
  }
  invariants_applicable_ =
      dynamic_cast<TwoBitProcess*>(processes_[0].get()) != nullptr;
  for (ProcessId pid = 0; pid < scenario_.cfg.n; ++pid) {
    processes_[pid]->on_start(*contexts_[pid]);
  }
}

McRun::~McRun() = default;

bool McRun::op_startable(std::size_t index) const {
  const McOp& op = scenario_.ops[index];
  const OpState& state = op_state_[index];
  if (state.started || crashed_[op.proc]) return false;
  if (op.after >= 0 && !op_state_[static_cast<std::size_t>(op.after)].done) {
    return false;
  }
  // Per-process sequentiality: an earlier op at the same process that has
  // started but not finished blocks this one (unless its incarnation died
  // and took the op with it).
  for (std::size_t k = 0; k < index; ++k) {
    if (scenario_.ops[k].proc == op.proc && op_state_[k].started &&
        !op_state_[k].done && !op_state_[k].orphaned) {
      return false;
    }
    // An earlier *unstarted* op at the same process also blocks: client
    // programs issue their ops in order.
    if (scenario_.ops[k].proc == op.proc && !op_state_[k].started &&
        !crashed_[scenario_.ops[k].proc]) {
      return false;
    }
  }
  return true;
}

std::vector<McRun::Choice> McRun::enabled() const {
  std::vector<Choice> out;
  out.reserve(in_flight_.size() + scenario_.ops.size());
  for (std::size_t k = 0; k < in_flight_.size(); ++k) {
    out.push_back(Choice{Choice::Kind::kDeliver, k});
  }
  for (std::size_t k = 0; k < scenario_.ops.size(); ++k) {
    if (op_startable(k)) out.push_back(Choice{Choice::Kind::kStartOp, k});
  }
  if (crashes_ < scenario_.max_crashes) {
    for (const ProcessId pid : scenario_.crash_candidates) {
      if (!crashed_[pid]) out.push_back(Choice{Choice::Kind::kCrash, pid});
    }
  }
  if (recoveries_ < scenario_.max_recoveries) {
    for (const ProcessId pid : scenario_.crash_candidates) {
      if (crashed_[pid]) out.push_back(Choice{Choice::Kind::kRecover, pid});
    }
  }
  return out;
}

void McRun::apply_enabled(std::size_t index, bool check_invariants) {
  const auto choices = enabled();
  TBR_ENSURE(index < choices.size(), "choice index out of range");
  apply(choices[index], check_invariants);
}

void McRun::apply(const Choice& choice, bool check_invariants) {
  ++steps_;
  switch (choice.kind) {
    case Choice::Kind::kDeliver: {
      TBR_ENSURE(choice.arg < in_flight_.size(), "no such frame");
      const Frame frame = in_flight_[choice.arg];
      in_flight_.erase(in_flight_.begin() +
                       static_cast<std::ptrdiff_t>(choice.arg));
      TBR_ENSURE(!crashed_[frame.to], "frame addressed to a crashed process");
      processes_[frame.to]->on_message(*contexts_[frame.to], frame.from,
                                       frame.msg);
      break;
    }
    case Choice::Kind::kStartOp:
      start_op(choice.arg);
      break;
    case Choice::Kind::kCrash: {
      const ProcessId pid = static_cast<ProcessId>(choice.arg);
      TBR_ENSURE(!crashed_[pid], "double crash");
      crashed_[pid] = true;
      ++crashes_;
      processes_[pid]->on_crash();
      // An op in flight at the corpse dies with its completion callback.
      for (std::size_t k = 0; k < scenario_.ops.size(); ++k) {
        if (scenario_.ops[k].proc == pid && op_state_[k].started &&
            !op_state_[k].done) {
          op_state_[k].orphaned = true;
        }
      }
      // Frames addressed to the corpse can never influence anything;
      // removing them prunes schedule-tree branches that differ only in
      // when a dead letter is burned.
      std::erase_if(in_flight_,
                    [pid](const Frame& f) { return f.to == pid; });
      break;
    }
    case Choice::Kind::kRecover: {
      const ProcessId pid = static_cast<ProcessId>(choice.arg);
      TBR_ENSURE(crashed_[pid], "recover of a process that is not crashed");
      // Channel reset, both directions: frames to or from the old
      // incarnation are dead (the runtimes' connection-death semantics).
      std::erase_if(in_flight_, [pid](const Frame& f) {
        return f.from == pid || f.to == pid;
      });
      crashed_[pid] = false;
      ++recoveries_;
      processes_[pid] = scenario_.recover_factory(scenario_.cfg, pid);
      TBR_ENSURE(processes_[pid] != nullptr, "recover factory returned null");
      processes_[pid]->on_start(*contexts_[pid]);
      break;
    }
  }
  if (check_invariants && invariants_applicable_ && invariant_error_.empty()) {
    run_invariants();
  }
}

void McRun::start_op(std::size_t index) {
  const McOp& op = scenario_.ops[index];
  OpState& state = op_state_[index];
  TBR_ENSURE(op_startable(index), "op not startable");
  state.started = true;
  const Tick tick = static_cast<Tick>(steps_);
  if (op.kind == McOp::Kind::kWrite) {
    // The write's history index is its position in the writer's sequence,
    // which for a single writer is the count of writes issued before it +1.
    SeqNo wsn = 1;
    for (std::size_t k = 0; k < index; ++k) {
      if (scenario_.ops[k].kind == McOp::Kind::kWrite) ++wsn;
    }
    state.history_id = history_.begin_write(op.proc, tick, wsn, op.value);
    processes_[op.proc]->start_write(
        *contexts_[op.proc], op.value, [this, index] {
          op_state_[index].done = true;
          history_.end_write(op_state_[index].history_id,
                             static_cast<Tick>(steps_));
        });
  } else {
    state.history_id = history_.begin_read(op.proc, tick);
    processes_[op.proc]->start_read(
        *contexts_[op.proc], [this, index](const Value& v, SeqNo idx) {
          op_state_[index].done = true;
          history_.end_read(op_state_[index].history_id,
                            static_cast<Tick>(steps_), v, idx);
        });
  }
}

std::string McRun::liveness_error() const {
  for (std::size_t k = 0; k < scenario_.ops.size(); ++k) {
    const McOp& op = scenario_.ops[k];
    if (op_state_[k].started && !op_state_[k].done &&
        !op_state_[k].orphaned && !crashed_[op.proc]) {
      return "op #" + std::to_string(k) + " at p" + std::to_string(op.proc) +
             " started but cannot complete (deadlock with empty network)";
    }
  }
  return {};
}

void McRun::run_invariants() {
  std::vector<const TwoBitProcess*> procs;
  procs.reserve(processes_.size());
  for (const auto& p : processes_) {
    // A recover_factory may install non-TwoBit incarnations; the lemma
    // suite only speaks about all-TwoBit groups.
    const auto* tp = dynamic_cast<const TwoBitProcess*>(p.get());
    if (tp == nullptr) return;
    procs.push_back(tp);
  }
  invariant_error_ = check_twobit_state_invariants(procs, in_flight_frames());
}

RegisterProcessBase& McRun::process(ProcessId pid) {
  TBR_ENSURE(pid < processes_.size(), "pid out of range");
  return *processes_[pid];
}

std::vector<InFlightFrame> McRun::in_flight_frames() const {
  std::vector<InFlightFrame> out;
  out.reserve(in_flight_.size());
  for (const Frame& f : in_flight_) {
    out.push_back(
        InFlightFrame{f.from, f.to, f.msg.type, f.msg.debug_index});
  }
  return out;
}

}  // namespace tbr
