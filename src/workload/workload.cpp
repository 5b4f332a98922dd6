#include "workload/workload.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "core/invariants.hpp"
#include "sim/fault_plan.hpp"

namespace tbr {

namespace {

/// The per-operation half of the closed loop, shared by every engine: the
/// op choice, the history record, latency and quota accounting, and the
/// result. Engines supply the clock, liveness, and done(): what a client
/// does once its operation has finished.
class Driver {
 public:
  Driver(RegisterClient& client, const GroupConfig& cfg,
         const WorkloadOptions& options, std::uint64_t seed)
      : client_(client),
        cfg_(cfg),
        opt_(options),
        rng_(seed ^ 0xC0FFEE123456789ULL),
        completed_(cfg.n, 0),
        issued_(cfg.n, 0) {}

  Tick think() {
    if (opt_.think_time_max <= 0) return 0;
    const std::scoped_lock lock(mu_);
    return rng_.uniform(0, opt_.think_time_max);
  }

  /// Issue pid's next operation; false once pid crashed or met its quota.
  bool issue(ProcessId pid) {
    if (crashed(pid) || issued_[pid] >= opt_.ops_per_process) return false;
    issued_[pid] += 1;
    const Tick start = now();
    if (pid == cfg_.writer && !writer_reads()) {
      const SeqNo index = next_write_index_++;
      Value v = Value::from_int64(index);
      const auto id = log_.begin_write(pid, start, index, v);
      client_.write(std::move(v), [this, pid, id](const OpResult& r) {
        if (r.status.ok()) {
          log_.end_write(id, now());
          record(pid, write_latency_, r.latency);
        }
        done(pid, r.status.ok());
      });
    } else {
      const auto id = log_.begin_read(pid, start);
      client_.read(pid, [this, pid, id](const OpResult& r) {
        if (r.status.ok()) {
          log_.end_read(id, now(), r.value, r.version);
          record(pid, read_latency_, r.latency);
        }
        done(pid, r.status.ok());
      });
    }
    return true;
  }

  /// Assemble the result once every client loop has stopped.
  WorkloadResult finish(MessageStats stats) {
    WorkloadResult result;
    result.ops = log_.ops();
    result.initial = cfg_.initial;
    result.stats = std::move(stats);
    result.duration = now();
    result.write_latency = std::move(write_latency_);
    result.read_latency = std::move(read_latency_);
    for (ProcessId pid = 0; pid < cfg_.n; ++pid) {
      if (crashed(pid)) {
        result.crashes += 1;
        continue;
      }
      result.quota_of_correct += opt_.ops_per_process;
      result.completed_by_correct += completed_[pid];
    }
    return result;
  }

 protected:
  virtual Tick now() const = 0;
  virtual bool crashed(ProcessId pid) const = 0;
  /// pid's operation completed (ok) or failed at the engine.
  virtual void done(ProcessId pid, bool ok) = 0;

 private:
  bool writer_reads() {
    const std::scoped_lock lock(mu_);
    return rng_.chance(opt_.writer_read_fraction);
  }

  void record(ProcessId pid, Histogram& latency, Tick ticks) {
    const std::scoped_lock lock(mu_);
    latency.add(ticks);
    completed_[pid] += 1;
  }

  RegisterClient& client_;
  const GroupConfig& cfg_;
  const WorkloadOptions& opt_;
  HistoryLog log_;  // internally synchronized

  std::mutex mu_;  // runtimes: completions land on engine threads
  Rng rng_;
  Histogram write_latency_;
  Histogram read_latency_;
  std::vector<std::uint32_t> completed_;

  std::vector<std::uint32_t> issued_;  // per-pid, touched by its loop only
  SeqNo next_write_index_ = 1;         // the writer's loop only
};

FaultPlan make_fault_plan(const GroupConfig& cfg,
                          const WorkloadOptions& options, std::uint64_t seed) {
  cfg.validate();
  TBR_ENSURE(options.crashes <= cfg.t,
             "workload cannot crash more than t processes");
  TBR_ENSURE(options.writer_read_fraction >= 0.0 &&
                 options.writer_read_fraction <= 1.0,
             "writer read fraction must be in [0, 1]");
  if (options.crashes == 0) return FaultPlan::none();
  Rng fault_rng(seed ^ 0xFA117ULL);
  return FaultPlan::random(fault_rng, cfg, options.crashes,
                           options.crash_horizon, options.allow_writer_crash);
}

// ---- sim: think times are events, completions re-arm the loop ----------------

class SimDriver final : public Driver {
 public:
  SimDriver(SimRegisterGroup& group, const WorkloadOptions& options,
            std::uint64_t seed)
      : Driver(group.client(), group.config(), options, seed),
        net_(group.net()) {}

  void schedule_next(ProcessId pid) {
    net_.schedule_after(think(), [this, pid] { (void)issue(pid); });
  }

 private:
  Tick now() const override { return net_.now(); }
  bool crashed(ProcessId pid) const override { return net_.crashed(pid); }
  void done(ProcessId pid, bool ok) override {
    if (ok) schedule_next(pid);
  }

  SimNetwork& net_;
};

// ---- runtimes: one real thread per client loop --------------------------------

template <typename Net>
class RuntimeDriver final : public Driver {
 public:
  RuntimeDriver(Net& net, const WorkloadOptions& options, std::uint64_t seed)
      : Driver(net.client(), net.config(), options, seed),
        net_(net),
        state_(net.config().n) {}

  void client_loop(ProcessId pid) {
    std::atomic<int>& state = state_[pid];
    for (;;) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(think()));
      state.store(kPending);
      if (!issue(pid)) return;
      state.wait(kPending);
      if (state.load() == kFailed) return;  // crashed mid-operation
    }
  }

 private:
  static constexpr int kPending = 0;
  static constexpr int kOk = 1;
  static constexpr int kFailed = 2;

  Tick now() const override { return net_.now(); }
  bool crashed(ProcessId pid) const override { return net_.crashed(pid); }
  void done(ProcessId pid, bool ok) override {
    state_[pid].store(ok ? kOk : kFailed);
    state_[pid].notify_one();
  }

  Net& net_;
  std::vector<std::atomic<int>> state_;
};

template <typename Net>
WorkloadResult run_runtime(typename Net::Options engine,
                           const WorkloadOptions& options,
                           std::uint64_t seed) {
  TBR_ENSURE(!options.invariant_checks,
             "lemma invariants are checked on the sim engine only");
  FaultPlan plan = make_fault_plan(engine.cfg, options, seed);
  std::sort(plan.crashes.begin(), plan.crashes.end(),
            [](const CrashEvent& a, const CrashEvent& b) { return a.at < b.at; });

  Net net(std::move(engine));
  net.start();
  RuntimeDriver<Net> driver(net, options, seed);
  {
    std::vector<std::jthread> threads;
    threads.reserve(net.config().n + 1);
    for (ProcessId pid = 0; pid < net.config().n; ++pid) {
      threads.emplace_back([&driver, pid] { driver.client_loop(pid); });
    }
    if (!plan.crashes.empty()) {
      threads.emplace_back([&net, &plan] {
        for (const CrashEvent& c : plan.crashes) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(c.at - net.now()));
          net.crash(c.pid);
        }
      });
    }
  }  // join every loop

  WorkloadResult result = driver.finish(net.stats_snapshot());
  result.drained = true;
  if constexpr (std::is_same_v<Net, SocketNetwork>) {
    result.backpressure = net.backpressure_snapshot();
  }
  net.stop();
  return result;
}

}  // namespace

WorkloadResult run_workload(SimRegisterGroup::Options engine,
                            const WorkloadOptions& options) {
  const std::uint64_t seed = engine.seed;
  const FaultPlan plan = make_fault_plan(engine.cfg, options, seed);
  if (!engine.delay) engine.delay = make_uniform_delay(1, 1000);
  SimRegisterGroup group(std::move(engine));

  std::unique_ptr<TwoBitInvariantObserver> observer;
  if (options.invariant_checks) {
    TBR_ENSURE(group.algorithm() == Algorithm::kTwoBit,
               "lemma invariants apply to the two-bit algorithm");
    observer = std::make_unique<TwoBitInvariantObserver>(group.config());
    group.net().set_post_event_hook(
        [&obs = *observer](SimNetwork& net) { obs(net); });
  }

  SimDriver driver(group, options, seed);
  plan.install(group.net());
  // Kick off every client at a random offset.
  for (ProcessId pid = 0; pid < group.config().n; ++pid) {
    driver.schedule_next(pid);
  }

  const bool drained = group.net().run();
  WorkloadResult result = driver.finish(group.net().stats());
  result.drained = drained;
  if (observer) result.invariant_checks = observer->checks_run();
  return result;
}

WorkloadResult run_workload(ThreadNetwork::Options engine,
                            const WorkloadOptions& options) {
  const std::uint64_t seed = engine.seed;
  return run_runtime<ThreadNetwork>(std::move(engine), options, seed);
}

WorkloadResult run_workload(SocketNetwork::Options engine,
                            const WorkloadOptions& options) {
  return run_runtime<SocketNetwork>(std::move(engine), options, /*seed=*/1);
}

}  // namespace tbr
