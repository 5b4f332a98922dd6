#include "kvstore/kv_store.hpp"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "core/twobit_process.hpp"
#include "kvstore/shard_router.hpp"

namespace tbr {

namespace {
constexpr Status kHomeCrashed{StatusCode::kCrashed,
                              "the key's home replica has crashed"};
constexpr Status kReaderCrashed{StatusCode::kCrashed,
                                "the requested replica has crashed"};
constexpr Status kStoreLiveness{
    StatusCode::kLivenessLost,
    "kv store lost liveness (crashed quorum or stuck run); operations are "
    "refused"};
}  // namespace

// ---- Group: the register group and the window engine ---------------------------
//
// The n MuxProcesses over one SimNetwork, and the one piece of the KV layer
// that plans a window of routed ops into per-replica start_batch calls,
// fails ops at crashed replicas, runs the window, and handles a stall.
// Two hosts feed it windows:
//
//   * client(): a deferred-issue KvClient engine. Submissions queue here;
//     the first wait() (or try_result()/settle()) hands everything queued
//     since the last window to the protocol, then drives the simulation.
//   * run_window(): ShardedKvStore's shard workers, one mailbox drain per
//     window.
//
// Heap-held so client handles and in-flight completions (which capture
// `this`) stay valid across moves of the owning store.

class KvStore::Group final : public KvClientEngine {
 public:
  explicit Group(Options options);

  // ---- KvClientEngine ----------------------------------------------------------
  void client_route(std::string_view key, OpState& st) override {
    const ShardRouter::Placement at = router_.place(key);
    st.slot = at.slot;
    if (st.kind == OpKind::kWrite) {
      st.node = at.home;
    } else {
      TBR_ENSURE(st.node == kAnyReplica || st.node < n_,
                 "reader out of range");
    }
  }

  void client_issue(OpState& st) override { pending_.push_back(&st); }

  void client_flush() override {
    if (pending_.empty()) return;
    // Finish the previous window first: its chains hold the per-slot
    // one-op-at-a-time guards armed until they complete.
    finish_window();
    // Issue from a swapped-out buffer: completions that run while the
    // window is planned (ops failed at issue) may submit into pending_.
    window_.swap(pending_);
    issue_window(window_);
    window_.clear();
  }

  void client_park(OpState& st, OpPool& /*pool*/) override {
    drive([&st] { return st.ready.load(std::memory_order_acquire); });
  }

  // ---- the window engine --------------------------------------------------------
  void run_window(std::span<OpState* const> ops) {
    finish_window();
    issue_window(ops);
    finish_window();
  }

  void settle() {
    client_flush();
    finish_window();
    if (!lost_liveness_) (void)net_->run();
    // Quiescent point: refresh the local-memory gauge (max across live
    // nodes), as SimRegisterGroup::settle() does.
    std::uint64_t peak = 0;
    for (ProcessId pid = 0; pid < n_; ++pid) {
      if (net_->crashed(pid)) continue;
      peak = std::max(peak,
                      net_->process_as<MuxProcess>(pid).local_memory_bytes());
    }
    net_->stats().record_local_memory(peak);
  }

  const ShardRouter& router() const noexcept { return router_; }
  SimNetwork& net() noexcept { return *net_; }
  KvClient& client() noexcept { return client_; }
  const BatchStats& batch_stats() const noexcept { return batch_; }
  std::uint64_t failed_ops() const noexcept { return failed_ops_; }
  bool lost_liveness() const noexcept { return lost_liveness_; }

 private:
  void fail(OpState& op, Status status) {
    ++failed_ops_;
    op.owner->complete_failed(op, status);
  }

  /// Plan the window: one MuxProcess batch per replica that has work.
  /// Reads go to their replica (kAnyReplica rotates over live ones),
  /// writes to their slot's home; ops whose replica has crashed fail
  /// before any protocol traffic. All scratch is reused across windows.
  void issue_window(std::span<OpState* const> ops) {
    if (lost_liveness_) {
      for (OpState* op : ops) fail(*op, kStoreLiveness);
      return;
    }
    for (auto& node_ops : per_node_) node_ops.clear();
    issued_.clear();
    for (OpState* stp : ops) {
      OpState& op = *stp;
      if (op.kind == OpKind::kRead && op.node == kAnyReplica) {
        for (std::uint32_t tries = 0; tries < n_; ++tries) {
          op.node = next_reader_;
          next_reader_ = (next_reader_ + 1) % n_;
          if (!net_->crashed(op.node)) break;
        }
      }
      if (net_->crashed(op.node)) {
        fail(op, op.kind == OpKind::kWrite ? kHomeCrashed : kReaderCrashed);
        continue;
      }
      issued_.emplace_back(&op, op.gen.load(std::memory_order_relaxed));
      per_node_[op.node].push_back(&op);
    }

    // Every node's batch runs in one simulation: chains across nodes and
    // slots interleave exactly as concurrent clients would. The mux
    // completes each op itself.
    if (!issued_.empty()) ++batch_.windows;
    for (ProcessId pid = 0; pid < n_; ++pid) {
      auto& node_ops = per_node_[pid];
      if (node_ops.empty()) continue;
      ++outstanding_;
      net_->process_as<MuxProcess>(pid).start_batch(
          net_->context(pid), node_ops, coalesce_,
          [this] { --outstanding_; }, &batch_);
    }
  }

  void finish_window() {
    if (outstanding_ > 0) drive([this] { return outstanding_ == 0; });
  }

  /// Run the simulation until `done` holds. If it cannot (more than t
  /// crashes, or an event-budget blowout), the store latches: the open
  /// window's unfinished ops fail with kLivenessLost, and the simulator
  /// never runs again. The stalled registers keep their one-op-at-a-time
  /// guard armed, so no later op may be issued into them, and the stuck
  /// completions can never fire late into recycled op state.
  void drive(const std::function<bool()>& done) {
    if (lost_liveness_ || net_->run_until(done)) return;
    lost_liveness_ = true;
    // Ops that already completed are ready (wait mode) or recycled with a
    // new generation (callback mode, or a consumed ticket); only the stuck
    // ones fail. The pool lock orders this scan after any acquire() that
    // re-armed a recycled slot's `ready`, so its new `gen` shows here too.
    std::vector<OpState*> stuck;
    if (!issued_.empty()) {
      OpPool& pool = issued_.front().first->owner->pool();
      const std::scoped_lock lock(pool.mu());
      for (const auto& [op, gen] : issued_) {
        if (op->ready.load(std::memory_order_acquire) ||
            op->gen.load(std::memory_order_relaxed) != gen) {
          continue;
        }
        stuck.push_back(op);
      }
    }
    for (OpState* op : stuck) fail(*op, kStoreLiveness);
  }

  std::uint32_t n_ = 0;
  bool coalesce_ = true;
  ShardRouter router_;
  std::unique_ptr<SimNetwork> net_;

  // Window state.
  std::vector<OpState*> pending_;  ///< client(): submitted, not yet issued
  std::vector<OpState*> window_;   ///< client(): the window being issued
  std::vector<std::vector<OpState*>> per_node_;  ///< the window, by replica
  std::vector<std::pair<OpState*, std::uint32_t>> issued_;  // (op, gen)
  ProcessId next_reader_ = 0;
  std::size_t outstanding_ = 0;  ///< node batches still running
  bool lost_liveness_ = false;
  BatchStats batch_;
  std::uint64_t failed_ops_ = 0;

  KvClient client_;
};

KvStore::Group::Group(Options options)
    : n_(options.n),
      coalesce_(options.coalesce_writes),
      router_(1, options.slots, options.n),
      client_(*this) {
  const std::uint32_t n = options.n;
  const std::uint32_t t = options.t;
  const Value initial = options.initial;
  auto slot_cfg = [n, t, initial](std::uint32_t slot) {
    GroupConfig cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.writer = slot % n;  // shard placement: slot's home node
    cfg.initial = initial;
    cfg.validate();
    return cfg;
  };

  // An explicit factory wins; otherwise the engine knob picks the per-slot
  // register protocol (two-bit default, or a fast-path read engine). The
  // two-bit slots run known-prefix GC: the same frames as the faithful
  // protocol, with history held flat at O(lag) instead of O(writes).
  ProcessFactory factory = std::move(options.register_factory);
  if (!factory && options.engine == Algorithm::kTwoBit) {
    factory = [](const GroupConfig& cfg, ProcessId pid) {
      TwoBitOptions bounded;
      bounded.bounded_history = true;
      return std::make_unique<TwoBitProcess>(cfg, pid, bounded);
    };
  } else if (!factory) {
    const Algorithm engine = options.engine;
    factory = [engine](const GroupConfig& cfg, ProcessId pid) {
      return make_register_process(engine, cfg, pid);
    };
  }

  std::vector<std::unique_ptr<ProcessBase>> processes;
  processes.reserve(n);
  for (ProcessId pid = 0; pid < n; ++pid) {
    processes.push_back(
        std::make_unique<MuxProcess>(options.slots, slot_cfg, pid, factory));
  }
  SimNetwork::Options net_opt;
  net_opt.seed = options.seed;
  net_opt.service_time = options.service_time;
  net_opt.delay =
      options.delay ? std::move(options.delay) : make_constant_delay(1000);
  net_ = std::make_unique<SimNetwork>(std::move(processes),
                                      std::move(net_opt));
  per_node_.resize(n);
}

// ---- KvStore: the facade -----------------------------------------------------

KvStore::KvStore(Options options)
    : group_(std::make_unique<Group>(std::move(options))) {}
KvStore::KvStore(KvStore&&) noexcept = default;
KvStore& KvStore::operator=(KvStore&&) noexcept = default;
KvStore::~KvStore() = default;

KvClient& KvStore::client() { return group_->client(); }

void KvStore::run_window(std::span<OpState* const> ops) {
  group_->run_window(ops);
}

std::uint32_t KvStore::slot_of(std::string_view key) const {
  return group_->router().slot_of(key);
}

ProcessId KvStore::home_node(std::string_view key) const {
  return group_->router().home_node(key);
}

void KvStore::crash(ProcessId node) { group_->net().crash_now(node); }

bool KvStore::crashed(ProcessId node) const {
  return group_->net().crashed(node);
}

void KvStore::settle() { group_->settle(); }

SimNetwork& KvStore::net() noexcept { return group_->net(); }

std::uint32_t KvStore::node_count() const noexcept {
  return group_->router().nodes_per_shard();
}

std::uint32_t KvStore::slot_count() const noexcept {
  return group_->router().slots_per_shard();
}

std::uint64_t KvStore::total_memory_bytes() {
  std::uint64_t bytes = 0;
  for (ProcessId pid = 0; pid < node_count(); ++pid) {
    bytes += net().process_as<MuxProcess>(pid).local_memory_bytes();
  }
  return bytes;
}

const BatchStats& KvStore::batch_stats() const noexcept {
  return group_->batch_stats();
}

std::uint64_t KvStore::failed_ops() const noexcept {
  return group_->failed_ops();
}

bool KvStore::lost_liveness() const noexcept {
  return group_->lost_liveness();
}

}  // namespace tbr
