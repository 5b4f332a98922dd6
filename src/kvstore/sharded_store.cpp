#include "kvstore/sharded_store.hpp"

#include <atomic>
#include <mutex>
#include <utility>

#include "common/contracts.hpp"
#include "runtime/mailbox.hpp"

namespace tbr {

namespace {

constexpr Status kStoreShutdown{StatusCode::kShutdown, "store is shut down"};

}  // namespace

/// One queued client request (or a crash marker) bound for a shard worker.
/// The operation itself is a pooled OpState owned by the store's client;
/// the mailbox entry is just a pointer — no promises, no shared state.
struct ShardedKvStore::ShardOp {
  OpState* op = nullptr;             ///< null => crash marker
  ProcessId crash_node = kNoProcess; ///< crash markers only
};

/// Everything one register group owns. The worker thread is the only one
/// touching `store` and `ops`; cross-thread state is the mailbox, the
/// inflight counter, and the report snapshot, each with its own
/// synchronization.
struct ShardedKvStore::Shard {
  Shard(std::uint32_t shard_id, KvStore::Options options)
      : id(shard_id), store(std::move(options)) {}

  std::uint32_t id = 0;
  MailboxT<ShardOp> mailbox;

  // Worker-only: the shard's register group and the window's op list
  // (reused every window: steady state allocates nothing).
  KvStore store;
  std::vector<OpState*> ops;

  // drain(): ops (and crash markers) accepted but not yet resolved. A
  // 32-bit count, which std::atomic::wait handles natively on Linux, on a
  // cache line of its own: submitters bump it on every op.
  alignas(64) std::atomic<std::int32_t> inflight{0};

  // Published after every window; readable from any thread.
  mutable std::mutex report_mu;
  ShardReport report;

  void ops_accepted(std::int32_t count) {
    inflight.fetch_add(count, std::memory_order_relaxed);
  }
  /// Only the drop to zero wakes drain(): the waiter wants an idle shard,
  /// not every window's progress.
  void ops_resolved(std::int32_t count) {
    const std::int32_t left =
        inflight.fetch_sub(count, std::memory_order_acq_rel) - count;
    TBR_ENSURE(left >= 0, "inflight underflow");
    if (left == 0) inflight.notify_all();
  }
};

// ---- ClientImpl: the unified client API over the shard workers ---------------

class ShardedKvStore::ClientImpl final : public KvClientEngine {
 public:
  explicit ClientImpl(ShardedKvStore& store) : store_(store), client_(*this) {}

  void client_route(std::string_view key, OpState& st) override {
    const ShardRouter::Placement at = store_.router_.place(key);
    st.shard = at.shard;
    st.slot = at.slot;
    if (st.kind == OpKind::kWrite) {
      st.node = at.home;
    } else {
      TBR_ENSURE(st.node == kAnyReplica || st.node < store_.opt_.n,
                 "reader out of range");
    }
  }

  void client_issue(OpState& st) override {
    Shard& shard = *store_.shards_[st.shard];
    shard.ops_accepted(1);
    ShardOp op;
    op.op = &st;
    if (!shard.mailbox.push(std::move(op))) {
      shard.ops_resolved(1);
      st.owner->complete_failed(st, kStoreShutdown);
    }
  }

  /// Hand each shard its share of the run with one mailbox push, so a
  /// worker never wakes to a partial share. Under the pool mutex, which
  /// resolves the run's links: take the head's shard, unlink that shard's
  /// ops (keeping their order), push them, repeat. Ops a closed shard
  /// refuses are relinked into `refused` and failed once the locks drop.
  void client_issue_run(std::uint32_t first, OpPool& pool) override {
    std::uint32_t refused = Ticket::kEmpty;
    std::uint32_t* refused_tail = &refused;
    {
      const std::scoped_lock lock(pool.mu());
      while (first != Ticket::kEmpty) {
        Shard& shard = *store_.shards_[pool.slot_locked(first).shard];
        std::uint32_t share = Ticket::kEmpty;
        std::uint32_t* share_tail = &share;
        std::int32_t count = 0;
        for (std::uint32_t* link = &first; *link != Ticket::kEmpty;) {
          const std::uint32_t index = *link;
          OpState& st = pool.slot_locked(index);
          if (st.shard != shard.id) {
            link = &st.next_pending;
            continue;
          }
          *link = st.next_pending;
          *share_tail = index;
          share_tail = &st.next_pending;
          ++count;
        }
        *share_tail = Ticket::kEmpty;
        shard.ops_accepted(count);
        const bool queued = shard.mailbox.push_n(
            static_cast<std::size_t>(count), [&](ShardOp& op) {
              op = ShardOp{&pool.slot_locked(share), kNoProcess};
              share = op.op->next_pending;
            });
        if (!queued) {
          shard.ops_resolved(count);
          *refused_tail = share;
          refused_tail = share_tail;
        }
      }
    }
    // Refused ops are ours alone again. Issuing them one at a time fails
    // each against its closed mailbox, exactly as client_issue does.
    KvClientEngine::client_issue_run(refused, pool);
  }

  KvClient& client() noexcept { return client_; }

 private:
  ShardedKvStore& store_;
  KvClient client_;
};

KvStore::Options ShardedKvStore::shard_options(const Options& options,
                                               std::uint32_t shard) {
  KvStore::Options group;
  group.n = options.n;
  group.t = options.t;
  group.slots = options.slots_per_shard;
  group.seed = options.seed ^ (0x5A17ULL * (shard + 1));
  group.engine = options.engine;
  group.initial = options.initial;
  group.coalesce_writes = options.coalesce_writes;
  return group;
}

ShardedKvStore::ShardedKvStore(Options options)
    : opt_(std::move(options)),
      router_(opt_.shards, opt_.slots_per_shard, opt_.n) {
  shards_.reserve(opt_.shards);
  for (std::uint32_t s = 0; s < opt_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(s, shard_options(opt_, s)));
  }

  client_impl_ = std::make_unique<ClientImpl>(*this);

  workers_.reserve(opt_.shards);
  for (auto& shard : shards_) {
    workers_.emplace_back([this, s = shard.get()](std::stop_token st) {
      worker_loop(*s, st);
    });
  }
}

ShardedKvStore::~ShardedKvStore() { stop(); }

void ShardedKvStore::stop() {
  for (auto& shard : shards_) shard->mailbox.close();
  workers_.clear();  // jthread: request_stop + join (drains queued windows)
}

KvClient& ShardedKvStore::client() noexcept { return client_impl_->client(); }

std::uint32_t ShardedKvStore::shard_count() const noexcept {
  return static_cast<std::uint32_t>(shards_.size());
}

std::uint32_t ShardedKvStore::node_count() const noexcept { return opt_.n; }

void ShardedKvStore::crash(std::uint32_t shard, ProcessId node) {
  TBR_ENSURE(shard < shards_.size(), "shard out of range");
  TBR_ENSURE(node < opt_.n, "node out of range");
  ShardOp op;
  op.crash_node = node;
  Shard& s = *shards_[shard];
  s.ops_accepted(1);
  if (!s.mailbox.push(std::move(op))) s.ops_resolved(1);
}

void ShardedKvStore::drain() {
  for (auto& shard : shards_) {
    for (std::int32_t left = shard->inflight.load(std::memory_order_acquire);
         left != 0; left = shard->inflight.load(std::memory_order_acquire)) {
      shard->inflight.wait(left, std::memory_order_acquire);
    }
  }
}

// ---- observability ------------------------------------------------------------

ShardedKvStore::ShardReport ShardedKvStore::shard_report(
    std::uint32_t shard) const {
  TBR_ENSURE(shard < shards_.size(), "shard out of range");
  const std::scoped_lock lock(shards_[shard]->report_mu);
  return shards_[shard]->report;
}

BatchStats ShardedKvStore::batch_stats() const {
  BatchStats merged;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    merged.merge(shard_report(s).batch);
  }
  return merged;
}

std::uint64_t ShardedKvStore::frames_sent() const {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    total += shard_report(s).net.total_sent();
  }
  return total;
}

// ---- the shard worker ---------------------------------------------------------

void ShardedKvStore::worker_loop(Shard& shard, std::stop_token st) {
  // One window buffer for the worker's lifetime: pop_all refills it in
  // place, so steady-state batching never allocates for the window itself.
  std::vector<ShardOp> window;
  while (true) {
    shard.mailbox.pop_all(st, window, opt_.max_batch, opt_.min_batch,
                          opt_.min_batch_wait);
    if (window.empty()) {
      // Closed and drained, or stop requested: drain the protocol traffic
      // and publish a final report with the local-memory gauge.
      shard.store.settle();
      publish_report(shard);
      return;
    }

    // Crash markers apply between batching windows: everything in this
    // window is planned against the post-crash group.
    shard.ops.clear();
    for (const ShardOp& op : window) {
      if (op.op == nullptr) {
        shard.store.crash(op.crash_node);
      } else {
        shard.ops.push_back(op.op);
      }
    }
    shard.store.run_window(shard.ops);

    publish_report(shard);
    shard.ops_resolved(static_cast<std::int32_t>(window.size()));
  }
}

void ShardedKvStore::publish_report(Shard& shard) {
  const std::scoped_lock lock(shard.report_mu);
  shard.report.batch = shard.store.batch_stats();
  shard.report.net = shard.store.net().stats();
  shard.report.virtual_now = shard.store.net().now();
  shard.report.failed_ops = shard.store.failed_ops();
  shard.report.lost_liveness = shard.store.lost_liveness();
}

}  // namespace tbr
