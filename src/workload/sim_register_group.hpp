// SimRegisterGroup: a ready-to-use register over the simulated network.
//
// client() is the one way in: write_sync/read_sync drive the simulator
// until the operation completes and report a uniform Status; callback-mode
// write/read plus net().run_until gives full control for overlapping
// operations, crash scheduling and latency sweeps (OpResult::latency is in
// virtual ticks). An op in flight at a process that crashes fails with
// kCrashed, as on the threaded and socket engines.
#pragma once

#include <memory>

#include "client/client.hpp"
#include "sim/fault_plan.hpp"
#include "sim/sim_network.hpp"
#include "workload/algorithms.hpp"

namespace tbr {

class SimRegisterGroup {
 public:
  /// cfg, algo, process_factory and recover_factory (RegisterGroupOptions)
  /// plus the simulator's knobs.
  struct Options : RegisterGroupOptions {
    std::uint64_t seed = 1;
    /// nullptr => ConstantDelay(kDefaultDelta).
    std::unique_ptr<DelayModel> delay;

    /// OUT-OF-MODEL loss injection (see SimNetwork::Options::loss_rate);
    /// keep 0 except for the D8 model-boundary experiment.
    double loss_rate = 0.0;

    /// Per-node frame service time (SimNetwork::Options::service_time);
    /// 0 = the pure channel-delay model.
    Tick service_time = 0;
    /// Serial CPUs shared pid % service_loops (SimNetwork::Options::
    /// service_loops); 0 = one per process.
    std::uint32_t service_loops = 0;
  };
  static constexpr Tick kDefaultDelta = 1000;

  explicit SimRegisterGroup(Options options);
  SimRegisterGroup(SimRegisterGroup&&) noexcept;
  SimRegisterGroup& operator=(SimRegisterGroup&&) noexcept;
  ~SimRegisterGroup();

  // ---- the unified client API ------------------------------------------------
  /// Pooled Ticket/callback completions with uniform Status outcomes
  /// (src/client/client.hpp). wait() drives the simulator until the op
  /// completes; submit-side failures (crashed target) complete immediately
  /// with a non-ok Status instead of throwing. Steady state: zero
  /// allocations per operation. Lazily built; stable across group moves.
  RegisterClient& client();

  /// Let all in-flight protocol traffic drain (e.g. to reach the steady
  /// state in which every process knows every value before a measurement).
  void settle();

  // ---- environment ---------------------------------------------------------------
  void crash(ProcessId pid);            ///< immediately
  void crash_at(ProcessId pid, Tick t);
  /// Rejoin a crashed pid as a fresh incarnation (see
  /// RegisterGroupOptions::recover_factory). The rejoiner catches up from
  /// peer checkpoints; client reads routed to it while it bootstraps are
  /// deferred, not refused.
  void recover(ProcessId pid);
  void recover_at(ProcessId pid, Tick t);
  SimNetwork& net() noexcept { return *net_; }
  const GroupConfig& config() const noexcept { return cfg_; }
  Algorithm algorithm() const noexcept { return algo_; }
  RegisterProcessBase& process(ProcessId pid);

 private:
  class ClientImpl;

  GroupConfig cfg_;
  Algorithm algo_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<ClientImpl> client_impl_;  // engine + RegisterClient
};

}  // namespace tbr
