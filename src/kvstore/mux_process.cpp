#include "kvstore/mux_process.hpp"

#include <utility>

#include "client/op_slot.hpp"
#include "common/contracts.hpp"

namespace tbr {

namespace {
/// slot_chain_ sentinel: no live chain for this slot in the current plan.
constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;
}  // namespace

// Per-slot view of the network: wraps the inner register's frames in a
// slot-tagged envelope before they reach the real transport. The envelope
// is the mux's one reused outbound Message — the inner frame encodes
// straight into its recycled Value buffer, so a steady-state wrapped send
// allocates nothing. One envelope serves every slot because a send never
// re-enters the mux: the network copies the frame before it returns.
class MuxProcess::SlotContext final : public NetworkContext {
 public:
  SlotContext(MuxProcess& mux, std::uint32_t slot)
      : mux_(mux), slot_(slot) {}

  void send(ProcessId to, const Message& inner) override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    Message& outer = mux_.outbound_;
    outer.type = inner.type;  // per-type stats still reflect the protocol
    outer.seq = slot_;        // routing tag (addressing, not control)
    mux_.slots_[slot_]->codec().encode_into(inner,
                                            outer.value.mutable_bytes());
    outer.has_value = true;
    outer.aux = 0;
    outer.debug_index = inner.debug_index;
    outer.wire.control_bits = inner.wire.control_bits;
    outer.wire.data_bits = inner.wire.data_bits + 32;  // the slot tag
    mux_.net_->send(to, outer);
  }
  ProcessId self() const override { return mux_.self_; }
  std::uint32_t process_count() const override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    return mux_.net_->process_count();
  }
  Tick now() const override {
    TBR_ENSURE(mux_.net_ != nullptr, "slot context used before start");
    return mux_.net_->now();
  }

 private:
  MuxProcess& mux_;
  std::uint32_t slot_;
};

MuxProcess::MuxProcess(std::uint32_t slots,
                       std::function<GroupConfig(std::uint32_t)> slot_cfg,
                       ProcessId self, ProcessFactory factory)
    : self_(self) {
  TBR_ENSURE(slots >= 1, "mux needs at least one slot");
  TBR_ENSURE(slot_cfg != nullptr, "mux needs a slot config source");
  TBR_ENSURE(factory != nullptr, "mux needs a slot register factory");
  slots_.reserve(slots);
  contexts_.reserve(slots);
  batch_versions_.assign(slots, 0);
  slot_chain_.assign(slots, kNoChain);
  for (std::uint32_t s = 0; s < slots; ++s) {
    const GroupConfig cfg = slot_cfg(s);
    slots_.push_back(factory(cfg, self));
    contexts_.push_back(std::make_unique<SlotContext>(*this, s));
  }
}

MuxProcess::~MuxProcess() = default;

void MuxProcess::on_start(NetworkContext& net) {
  net_ = &net;
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    slots_[s]->on_start(*contexts_[s]);
  }
}

void MuxProcess::on_message(NetworkContext& net, ProcessId from,
                            const Message& msg) {
  net_ = &net;
  TBR_ENSURE(msg.has_value, "mux frame without payload");
  TBR_ENSURE(msg.seq >= 0 &&
                 msg.seq < static_cast<SeqNo>(slots_.size()),
             "mux frame for unknown slot");
  const auto slot_index = static_cast<std::uint32_t>(msg.seq);
  // Unwrap into the reused inbound scratch (no per-frame Value string).
  slots_[slot_index]->codec().decode_into(msg.value.bytes(), inbound_);
  slots_[slot_index]->on_message(*contexts_[slot_index], from, inbound_);
}

void MuxProcess::on_crash() {
  crashed_ = true;
  for (auto& reg : slots_) reg->on_crash();
}

void MuxProcess::start_write(NetworkContext& net, std::uint32_t slot_index,
                             Value v, RegisterProcessBase::WriteDone done) {
  net_ = &net;
  TBR_ENSURE(slot_index < slots_.size(), "slot out of range");
  slots_[slot_index]->start_write(*contexts_[slot_index], std::move(v),
                                  std::move(done));
}

void MuxProcess::start_read(NetworkContext& net, std::uint32_t slot_index,
                            RegisterProcessBase::ReadDone done) {
  net_ = &net;
  TBR_ENSURE(slot_index < slots_.size(), "slot out of range");
  slots_[slot_index]->start_read(*contexts_[slot_index], std::move(done));
}

// ---- batching window --------------------------------------------------------
//
// A batch becomes a set of per-slot chains. Each chain is a sequence of
// protocol *steps* in client arrival order; coalescing merges a run of
// consecutive reads into one read step (every caller shares the round's
// (value, index)) and — opt-in — a run of consecutive writes into one write
// step carrying only the last value. Chains for different slots are
// independent registers, so they are all started at once and interleave
// freely in the underlying network.
//
// The plan lives in recycled storage (chains, steps and their op lists
// keep high-water capacity), and the per-step protocol completion captures
// {this, packed chain/step} — 16 bytes, std::function's inline buffer — so
// planning and running a steady-state window is allocation-free.

MuxProcess::BatchPlan::Chain& MuxProcess::BatchPlan::push_chain(
    std::uint32_t slot) {
  if (chain_count == chains.size()) chains.emplace_back();
  Chain& chain = chains[chain_count++];
  chain.slot = slot;
  chain.step_count = 0;
  return chain;
}

MuxProcess::BatchPlan::Step& MuxProcess::BatchPlan::push_step(Chain& chain) {
  if (chain.step_count == chain.steps.size()) chain.steps.emplace_back();
  Step& step = chain.steps[chain.step_count++];
  step.is_write = false;
  step.version = 0;
  step.ops.clear();
  return step;
}

void MuxProcess::start_batch(NetworkContext& net,
                             std::span<OpState* const> ops,
                             bool coalesce_writes, std::function<void()> done,
                             BatchStats* stats) {
  net_ = &net;
  TBR_ENSURE(done != nullptr, "batch needs a completion callback");
  TBR_ENSURE(!ops.empty(), "batch must contain at least one operation");
  TBR_ENSURE(!plan_.active,
             "one batch at a time per mux (wait for the previous window)");
  if (stats != nullptr) {
    stats->batches += 1;
    stats->client_ops += ops.size();
    stats->max_batch_ops = std::max(
        stats->max_batch_ops, static_cast<std::uint64_t>(ops.size()));
  }

  // Plan: ops are already in arrival order; route each to its slot's live
  // chain (creating one on first touch), extending or starting a step run.
  plan_.chain_count = 0;
  const Tick now = net.now();
  for (OpState* op : ops) {
    TBR_ENSURE(op->slot < slots_.size(), "batch op for unknown slot");
    op->start = now;
    std::uint32_t chain_index = slot_chain_[op->slot];
    if (chain_index == kNoChain) {
      chain_index = static_cast<std::uint32_t>(plan_.chain_count);
      slot_chain_[op->slot] = chain_index;
      plan_.push_chain(op->slot);
    }
    BatchPlan::Chain& chain = plan_.chains[chain_index];
    const bool is_write = op->kind == OpKind::kWrite;
    const bool extends_run =
        chain.step_count > 0 &&
        chain.steps[chain.step_count - 1].is_write == is_write &&
        (!is_write || coalesce_writes);
    if (extends_run) {
      // A shared read round, or a write absorbed by the run's last one.
      chain.steps[chain.step_count - 1].ops.push_back(op);
      if (stats != nullptr) {
        (is_write ? stats->absorbed_writes : stats->coalesced_reads) += 1;
      }
    } else {
      BatchPlan::Step& step = BatchPlan::push_step(chain);
      step.is_write = is_write;
      step.ops.push_back(op);
      if (stats != nullptr) {
        (is_write ? stats->protocol_writes : stats->protocol_reads) += 1;
      }
    }
  }
  for (std::size_t c = 0; c < plan_.chain_count; ++c) {
    slot_chain_[plan_.chains[c].slot] = kNoChain;
  }
  plan_.outstanding = plan_.chain_count;
  plan_.active = true;
  plan_.done = std::move(done);

  for (std::size_t c = 0; c < plan_.chain_count; ++c) {
    run_batch_chain(c, 0);
  }
}

void MuxProcess::run_batch_chain(std::size_t chain, std::size_t step) {
  BatchPlan::Chain& ch = plan_.chains[chain];
  if (step == ch.step_count) {
    if (--plan_.outstanding == 0) {
      plan_.active = false;
      // Moved out first: the callback may start the next window, which
      // reuses plan_ (including plan_.done) immediately.
      const std::function<void()> finished = std::move(plan_.done);
      plan_.done = nullptr;
      finished();
    }
    return;
  }
  // {this, packed} is 16 bytes — std::function stores it inline.
  const std::uint64_t packed =
      (static_cast<std::uint64_t>(chain) << 32) |
      static_cast<std::uint64_t>(step);
  BatchPlan::Step& st = ch.steps[step];
  if (st.is_write) {
    st.version = ++batch_versions_[ch.slot];
    // Only the run's last write reaches the register.
    Value& survivor = st.ops.back()->value;
    start_write(*net_, ch.slot, std::move(survivor), [this, packed] {
      const auto chain_index = static_cast<std::size_t>(packed >> 32);
      const auto step_index =
          static_cast<std::size_t>(packed & 0xFFFFFFFFu);
      const auto& done_step = plan_.chains[chain_index].steps[step_index];
      for (std::size_t k = 0; k < done_step.ops.size(); ++k) {
        OpState& op = *done_step.ops[k];
        op.result.version = done_step.version;
        op.result.absorbed = k + 1 != done_step.ops.size();
        complete_op(op, *net_);
      }
      run_batch_chain(chain_index, step_index + 1);
    });
  } else {
    start_read(*net_, ch.slot, [this, packed](const Value& v, SeqNo index) {
      const auto chain_index = static_cast<std::size_t>(packed >> 32);
      const auto step_index =
          static_cast<std::size_t>(packed & 0xFFFFFFFFu);
      for (OpState* op : plan_.chains[chain_index].steps[step_index].ops) {
        op->result.value = v;  // copy into the pooled capacity
        op->result.version = index;
        complete_op(*op, *net_);
      }
      run_batch_chain(chain_index, step_index + 1);
    });
  }
}

RegisterProcessBase& MuxProcess::slot(std::uint32_t index) {
  TBR_ENSURE(index < slots_.size(), "slot out of range");
  return *slots_[index];
}

std::uint64_t MuxProcess::local_memory_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& reg : slots_) bytes += reg->local_memory_bytes();
  return bytes;
}

}  // namespace tbr
