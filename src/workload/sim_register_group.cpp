#include "workload/sim_register_group.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "client/op_slot.hpp"

namespace tbr {

// ---- ClientImpl: the unified client API over the simulator -------------------
//
// Issue = start the op in its process's OpSlot; park = drive the event
// loop until the op's ready flag rises. An op at a crashed process fails
// with kCrashed: at issue, or, if it was in flight, when the network's
// crash hook fires. Heap-held so client handles (and the crash hook's
// `this`) stay valid across moves of the owning group.

class SimRegisterGroup::ClientImpl final : public RegisterClientEngine {
 public:
  ClientImpl(SimNetwork& net, const GroupConfig& cfg)
      : net_(&net), slots_(cfg.n), client_(*this, cfg) {
    net.set_crash_hook(
        [this](ProcessId pid) { slots_[pid].fail(kProcessCrashed); });
  }

  bool client_crashed(ProcessId pid) const override {
    return net_->crashed(pid);
  }

  void client_issue(OpState& st) override {
    if (net_->crashed(st.node)) {
      st.owner->complete_failed(st, kProcessCrashed);
      return;
    }
    slots_[st.node].start(net_->process_as<RegisterProcessBase>(st.node),
                          net_->context(st.node), st);
  }

  void client_park(OpState& st, OpPool& /*pool*/) override {
    // A failed drive (crashed quorum, stuck run) leaves st unready:
    // wait() reports kLivenessLost.
    (void)net_->run_until(
        [&st] { return st.ready.load(std::memory_order_acquire); });
  }

  RegisterClient& client() noexcept { return client_; }

 private:
  SimNetwork* net_;
  std::vector<OpSlot> slots_;  ///< one per process
  RegisterClient client_;
};

SimRegisterGroup::SimRegisterGroup(SimRegisterGroup&&) noexcept = default;
SimRegisterGroup& SimRegisterGroup::operator=(SimRegisterGroup&&) noexcept =
    default;
SimRegisterGroup::~SimRegisterGroup() = default;

RegisterClient& SimRegisterGroup::client() {
  if (!client_impl_) {
    client_impl_ = std::make_unique<ClientImpl>(*net_, cfg_);
  }
  return client_impl_->client();
}

SimRegisterGroup::SimRegisterGroup(Options options)
    : cfg_(options.cfg), algo_(options.algo) {
  cfg_.validate();
  SimNetwork::Options net_opt;
  net_opt.seed = options.seed;
  net_opt.delay = options.delay ? std::move(options.delay)
                                : make_constant_delay(kDefaultDelta);
  net_opt.loss_rate = options.loss_rate;
  net_opt.service_time = options.service_time;
  net_opt.service_loops = options.service_loops;
  if (ProcessFactory rejoin = rejoin_factory(options)) {
    net_opt.recover_factory = [cfg = cfg_, rejoin = std::move(rejoin)](
                                  ProcessId pid) { return rejoin(cfg, pid); };
  }
  std::vector<std::unique_ptr<ProcessBase>> group;
  group.reserve(cfg_.n);
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    group.push_back(make_group_process(options, pid));
  }
  net_ = std::make_unique<SimNetwork>(std::move(group), std::move(net_opt));
}

RegisterProcessBase& SimRegisterGroup::process(ProcessId pid) {
  return net_->process_as<RegisterProcessBase>(pid);
}

void SimRegisterGroup::settle() {
  const bool drained = net_->run();
  TBR_ENSURE(drained, "protocol traffic did not drain");
  // Quiescent point: refresh the local-memory gauge (max across live
  // processes) so benches and CI read memory alongside the wire tallies.
  std::uint64_t peak = 0;
  for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
    if (net_->crashed(pid)) continue;
    peak = std::max(peak, process(pid).local_memory_bytes());
  }
  net_->stats().record_local_memory(peak);
}

void SimRegisterGroup::crash(ProcessId pid) { net_->crash_now(pid); }

void SimRegisterGroup::crash_at(ProcessId pid, Tick t) {
  net_->crash_at(pid, t);
}

void SimRegisterGroup::recover(ProcessId pid) { net_->recover_now(pid); }

void SimRegisterGroup::recover_at(ProcessId pid, Tick t) {
  net_->recover_at(pid, t);
}

}  // namespace tbr
