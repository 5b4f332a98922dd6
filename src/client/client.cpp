#include "client/client.hpp"

#include <utility>

namespace tbr {

// ---- ClientBase --------------------------------------------------------------

Ticket ClientBase::dispatch(OpState& st) {
  const bool callback_mode = st.callback != nullptr;
  Ticket t;
  if (!callback_mode) {
    t.index = st.index;
    t.gen = st.gen.load(std::memory_order_relaxed);
  }
  if (st.node < chains_.size()) {
    bool queued = false;
    {
      const std::scoped_lock lock(pool_.mu());
      Chain& chain = chains_[st.node];
      if (chain.busy) {
        st.next_pending = Ticket::kEmpty;
        if (chain.tail == Ticket::kEmpty) {
          chain.head = st.index;
        } else {
          pool_.slot_locked(chain.tail).next_pending = st.index;
        }
        chain.tail = st.index;
        queued = true;
      } else {
        chain.busy = true;
      }
    }
    if (queued) return t;
  }
  engine_.client_issue(st);
  return t;
}

void ClientBase::complete(OpState& st) {
  if (st.abandoned) {
    // Late completion of an op whose wait() already gave up (sim liveness
    // loss): nobody is listening any more, just free the quarantined slot.
    pool_.reclaim_abandoned(st);
    return;
  }
  const bool callback_mode = st.callback != nullptr;
  if (callback_mode) {
    OpCallback cb = std::move(st.callback);
    st.callback = nullptr;
    cb(st.result);
  }
  std::uint32_t next = Ticket::kEmpty;
  if (st.node < chains_.size()) {
    const std::scoped_lock lock(pool_.mu());
    Chain& chain = chains_[st.node];
    if (chain.head != Ticket::kEmpty) {
      next = chain.head;
      chain.head = pool_.slot_locked(next).next_pending;
      if (chain.head == Ticket::kEmpty) chain.tail = Ticket::kEmpty;
    } else {
      chain.busy = false;
    }
  }
  // Callback mode returns the slot lock-free: a kv shard worker completing
  // a window takes no lock per op.
  if (callback_mode) {
    pool_.release(st);
  } else {
    pool_.mark_ready(st);
  }
  if (next != Ticket::kEmpty) issue_chained(next);
}

void ClientBase::issue_chained(std::uint32_t first) {
  {
    const std::scoped_lock lock(pool_.mu());
    deferred_issues_.push_back(first);
    // Someone (an outer frame of this very cascade, or a concurrent
    // completion thread) already owns the drain loop: it will pick this
    // up. Returning here is what bounds the cascade's stack depth.
    if (unwinding_) return;
    unwinding_ = true;
  }
  for (;;) {
    OpState* st = nullptr;
    {
      // Resolve the slot under the lock: a concurrent acquire() may grow
      // the pool's deque, which moves its index map (slots stay put).
      const std::scoped_lock lock(pool_.mu());
      if (deferred_head_ == deferred_issues_.size()) {
        deferred_issues_.clear();
        deferred_head_ = 0;
        unwinding_ = false;
        return;
      }
      st = &pool_.slot_locked(deferred_issues_[deferred_head_++]);
    }
    // May complete synchronously (terminal engine paths), re-entering
    // complete() -> issue_chained(), which defers to this loop.
    engine_.client_issue(*st);
  }
}

OpResult ClientBase::wait(Ticket t) {
  OpState* st = pool_.find(t);
  TBR_ENSURE(st != nullptr, "wait on an empty, stale or consumed ticket");
  if (!st->ready.load(std::memory_order_acquire)) {
    engine_.client_flush();
    if (!st->ready.load(std::memory_order_acquire)) {
      engine_.client_park(*st, pool_);
    }
  }
  if (!st->ready.load(std::memory_order_acquire)) {
    // The drive failed (liveness lost): quarantine the slot in case its
    // completion fires on a later drive.
    pool_.abandon(*st);
    OpResult out;
    out.status = Status(StatusCode::kLivenessLost,
                        "operation cannot complete (crashed quorum or "
                        "stuck run)");
    return out;
  }
  OpResult out = st->result;
  pool_.release(*st);
  return out;
}

bool ClientBase::try_result(Ticket t, OpResult& out) {
  OpState* st = pool_.find(t);
  TBR_ENSURE(st != nullptr, "poll on an empty, stale or consumed ticket");
  if (!st->ready.load(std::memory_order_acquire)) {
    // Deferred-issue engines (the flat KvStore) hand the window to the
    // protocol here, so a poll loop makes progress; the caller still
    // drives completion (wait(), or the sim facade's settle()).
    engine_.client_flush();
  }
  if (!st->ready.load(std::memory_order_acquire)) return false;
  out = st->result;
  pool_.release(*st);
  return true;
}

// ---- RegisterClient ----------------------------------------------------------

RegisterClient::RegisterClient(RegisterClientEngine& engine,
                               const GroupConfig& cfg)
    : ClientBase(engine, cfg.n),
      replicas_(engine),
      n_(cfg.n),
      writer_(cfg.writer) {}

ProcessId RegisterClient::pick_reader() {
  for (std::uint32_t tries = 0; tries < n_; ++tries) {
    const auto r = static_cast<ProcessId>(
        next_reader_.fetch_add(1, std::memory_order_relaxed) % n_);
    if (!replicas_.client_crashed(r)) return r;
  }
  return 0;
}

Ticket RegisterClient::write(Value v, OpCallback cb) {
  OpState& st = fresh_op();
  st.kind = OpKind::kWrite;
  st.node = writer_;
  st.value = std::move(v);
  st.callback = std::move(cb);
  return dispatch(st);
}

Ticket RegisterClient::read(ProcessId reader, OpCallback cb) {
  TBR_ENSURE(reader == kAnyReplica || reader < n_, "reader id out of range");
  OpState& st = fresh_op();
  st.kind = OpKind::kRead;
  st.node = reader == kAnyReplica ? pick_reader() : reader;
  st.callback = std::move(cb);
  return dispatch(st);
}

std::size_t RegisterClient::submit(std::span<RegisterOp> ops,
                                   Ticket* tickets) {
  std::size_t k = 0;
  for (RegisterOp& op : ops) {
    const Ticket t = op.kind == OpKind::kWrite ? write(std::move(op.value))
                                               : read(op.reader);
    if (tickets != nullptr) tickets[k] = t;
    ++k;
  }
  return k;
}

// ---- KvClient ----------------------------------------------------------------

KvClient::KvClient(KvClientEngine& engine)
    : ClientBase(engine, /*nodes=*/0), kv_(engine) {}

OpState& KvClient::routed_op(KvOp& op) {
  OpState& st = fresh_op();
  st.kind = op.kind;
  if (op.kind == OpKind::kWrite) {
    st.value = std::move(op.value);
  } else {
    st.node = op.reader;
  }
  kv_.client_route(op.key, st);
  return st;
}

Ticket KvClient::put(std::string_view key, Value value, OpCallback cb) {
  KvOp op{OpKind::kWrite, key, std::move(value), kAnyReplica};
  OpState& st = routed_op(op);
  st.callback = std::move(cb);
  return dispatch(st);
}

Ticket KvClient::get(std::string_view key, ProcessId reader, OpCallback cb) {
  KvOp op{OpKind::kRead, key, Value(), reader};
  OpState& st = routed_op(op);
  st.callback = std::move(cb);
  return dispatch(st);
}

std::size_t KvClient::submit(std::span<KvOp> ops, Ticket* tickets) {
  // Route the whole span before the engine sees any of it, linking the ops
  // through next_pending: the run costs no allocation, and an engine that
  // queues across threads can hand it over in one piece.
  std::uint32_t first = Ticket::kEmpty;
  OpState* last = nullptr;
  std::size_t k = 0;
  for (KvOp& op : ops) {
    OpState& st = routed_op(op);
    (last == nullptr ? first : last->next_pending) = st.index;
    last = &st;
    if (tickets != nullptr) {
      tickets[k].index = st.index;
      tickets[k].gen = st.gen.load(std::memory_order_relaxed);
    }
    ++k;
  }
  if (first != Ticket::kEmpty) kv_.client_issue_run(first, pool_);
  return k;
}

// ---- KvClientEngine ------------------------------------------------------------

void KvClientEngine::client_issue_run(std::uint32_t first, OpPool& pool) {
  while (first != Ticket::kEmpty) {
    OpState* st = nullptr;
    {
      const std::scoped_lock lock(pool.mu());
      st = &pool.slot_locked(first);
    }
    // Read the link first: an issued op may complete (and be recycled)
    // before client_issue returns.
    first = st->next_pending;
    client_issue(*st);
  }
}

}  // namespace tbr
