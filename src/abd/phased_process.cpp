#include "abd/phased_process.hpp"

#include <utility>

namespace tbr {

namespace {
constexpr SeqNo kPhaseSlots = 64;  // phases per op tag; no spec comes close
}

PhasedProcess::PhasedProcess(GroupConfig cfg, ProcessId self,
                             const PhasedSpec& spec)
    : RegisterProcessBase(std::move(cfg), self),
      spec_(spec),
      codec_(spec_, cfg_.n),
      cur_val_(cfg_.initial) {
  TBR_ENSURE(!spec_.write_phases.empty() && !spec_.read_phases.empty(),
             "spec needs at least one phase per operation");
  TBR_ENSURE(static_cast<SeqNo>(spec_.write_phases.size()) < kPhaseSlots &&
                 static_cast<SeqNo>(spec_.read_phases.size()) < kPhaseSlots,
             "phase count exceeds tag encoding");
}

// ---- operations -------------------------------------------------------------

void PhasedProcess::start_write(NetworkContext& net, Value v, WriteDone done) {
  TBR_ENSURE(is_writer(), "only the writer p_w may invoke write()");
  TBR_ENSURE(done != nullptr, "write needs a completion callback");
  begin_operation("write");

  wsn_ += 1;
  adopt(wsn_, v);  // the writer itself is one of the n replicas

  PendingOp op;
  op.is_write = true;
  op.phases = &spec_.write_phases;
  op.op_tag = ++op_counter_;
  op.op_seq = wsn_;
  op.op_val = std::move(v);
  op.wdone = std::move(done);
  pending_ = std::move(op);
  start_phase(net);
}

void PhasedProcess::start_read(NetworkContext& net, ReadDone done) {
  TBR_ENSURE(done != nullptr, "read needs a completion callback");
  begin_operation("read");

  PendingOp op;
  op.is_write = false;
  op.phases = &spec_.read_phases;
  op.op_tag = ++op_counter_;
  // The fold over replica states starts from our own replica state.
  op.op_seq = cur_seq_;
  op.op_val = cur_val_;
  op.rdone = std::move(done);
  pending_ = std::move(op);
  start_phase(net);
}

// ---- phase driving ------------------------------------------------------------

SeqNo PhasedProcess::phase_tag() const {
  TBR_ENSURE(pending_.has_value(), "no operation in flight");
  return pending_->op_tag * kPhaseSlots +
         static_cast<SeqNo>(pending_->phase_idx);
}

void PhasedProcess::start_phase(NetworkContext& net) {
  TBR_ENSURE(pending_.has_value(), "no operation in flight");
  PendingOp& op = *pending_;
  TBR_ENSURE(op.phase_idx < op.phases->size(), "phase index out of range");
  const PhaseKind kind = (*op.phases)[op.phase_idx];

  // Self participates without messaging: we already adopted (disseminate)
  // or folded our own state (query).
  op.votes = 1;
  if (kind == PhaseKind::kDisseminate) adopt(op.op_seq, op.op_val);

  Message msg;
  msg.type = static_cast<std::uint8_t>(PhasedType::kPhaseReq);
  msg.aux = phase_tag();
  if (kind == PhaseKind::kDisseminate) {
    msg.seq = op.op_seq;
    msg.has_value = true;
    msg.value = op.op_val;
    msg.debug_index = op.op_seq;
  }
  msg.wire = codec_.account(msg);
  for (ProcessId j = 0; j < cfg_.n; ++j) {
    if (j != self_) net.send(j, msg);
  }
  advance_if_quorum(net);  // n-t may be 1
}

void PhasedProcess::advance_if_quorum(NetworkContext& net) {
  while (pending_.has_value() && pending_->votes >= cfg_.quorum()) {
    PendingOp& op = *pending_;
    op.phase_idx += 1;
    if (op.phase_idx < op.phases->size()) {
      start_phase(net);
      // start_phase re-enters advance_if_quorum; if it completed or
      // advanced the op, the loop condition re-evaluates correctly.
      return;
    }
    // Operation complete.
    PendingOp finished = std::move(*pending_);
    pending_.reset();
    end_operation();
    if (finished.is_write) {
      finished.wdone();
    } else {
      finished.rdone(finished.op_val, finished.op_seq);
    }
    return;
  }
}

void PhasedProcess::adopt(SeqNo seq, const Value& v) {
  if (seq > cur_seq_) {
    cur_seq_ = seq;
    cur_val_ = v;
  }
}

// ---- message handling -----------------------------------------------------------

void PhasedProcess::on_message(NetworkContext& net, ProcessId from,
                               const Message& msg) {
  TBR_ENSURE(!crashed_, "runtime delivered a message to a crashed process");
  TBR_ENSURE(from < cfg_.n && from != self_, "bad sender");
  switch (static_cast<PhasedType>(msg.type)) {
    case PhasedType::kPhaseReq: {
      // Replica role: adopt any disseminated value, then answer.
      if (msg.has_value) adopt(msg.seq, msg.value);
      Message reply;
      if (msg.has_value) {
        reply.type = static_cast<std::uint8_t>(PhasedType::kPhaseAck);
        reply.aux = msg.aux;
      } else {
        reply.type = static_cast<std::uint8_t>(PhasedType::kQueryReply);
        reply.aux = msg.aux;
        reply.seq = cur_seq_;
        reply.has_value = true;
        reply.value = cur_val_;
      }
      reply.wire = codec_.account(reply);
      net.send(from, reply);

      if (spec_.echo) {
        // Bounded-ABD label-propagation traffic: one gossip frame to every
        // other replica, fire-and-forget (recipients adopt silently).
        Message echo;
        echo.type = static_cast<std::uint8_t>(PhasedType::kEcho);
        echo.aux = msg.aux;
        echo.seq = cur_seq_;
        echo.has_value = true;
        echo.value = cur_val_;
        echo.wire = codec_.account(echo);
        for (ProcessId j = 0; j < cfg_.n; ++j) {
          if (j != self_ && j != from) net.send(j, echo);
        }
      }
      break;
    }
    case PhasedType::kPhaseAck: {
      if (pending_.has_value() && msg.aux == phase_tag() &&
          (*pending_->phases)[pending_->phase_idx] ==
              PhaseKind::kDisseminate) {
        pending_->votes += 1;
        advance_if_quorum(net);
      }
      break;
    }
    case PhasedType::kQueryReply: {
      TBR_ENSURE(msg.has_value, "query reply must carry replica state");
      adopt(msg.seq, msg.value);  // replies are fresh information too
      if (pending_.has_value() && msg.aux == phase_tag() &&
          (*pending_->phases)[pending_->phase_idx] == PhaseKind::kQuery) {
        PendingOp& op = *pending_;
        if (msg.seq > op.op_seq) {
          op.op_seq = msg.seq;
          op.op_val = msg.value;
        }
        op.votes += 1;
        advance_if_quorum(net);
      }
      break;
    }
    case PhasedType::kEcho: {
      TBR_ENSURE(msg.has_value, "echo must carry replica state");
      adopt(msg.seq, msg.value);
      break;
    }
    default:
      TBR_ENSURE(false, "unknown phased frame type");
  }
}

void PhasedProcess::on_crash() { crashed_ = true; }

std::uint64_t PhasedProcess::local_memory_bytes() const {
  // Real state + the modeled bounded-label store (docs/wire-protocol.md,
  // "Phased codec"). For the unbounded spec the modeled store is zero and
  // what remains is O(1) words plus the current value — "unbounded" only
  // through the live sequence number, exactly as Table 1 line 4 reports.
  std::uint64_t bytes = 8 /*cur_seq*/ + cur_val_.size();
  bytes += 8 /*wsn*/ + 8 /*op_counter*/;
  bytes += spec_.modeled_memory_bits(cfg_.n) / 8;
  return bytes;
}

// ---- factories --------------------------------------------------------------------

std::unique_ptr<RegisterProcessBase> make_abd_unbounded_process(
    GroupConfig cfg, ProcessId self) {
  return std::make_unique<PhasedProcess>(std::move(cfg), self,
                                         abd_unbounded_spec());
}

std::unique_ptr<RegisterProcessBase> make_abd_bounded_process(GroupConfig cfg,
                                                              ProcessId self) {
  return std::make_unique<PhasedProcess>(std::move(cfg), self,
                                         abd_bounded_spec());
}

std::unique_ptr<RegisterProcessBase> make_attiya_process(GroupConfig cfg,
                                                         ProcessId self) {
  return std::make_unique<PhasedProcess>(std::move(cfg), self, attiya_spec());
}

std::unique_ptr<RegisterProcessBase> make_abd_regular_process(GroupConfig cfg,
                                                              ProcessId self) {
  return std::make_unique<PhasedProcess>(std::move(cfg), self,
                                         abd_regular_spec());
}

}  // namespace tbr
