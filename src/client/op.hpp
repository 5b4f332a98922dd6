// The unified operation model: pooled OpState fronted by a Ticket.
//
// One completion shape for every engine in the tree. A client submits an
// operation and gets back a Ticket — an 8-byte generation-checked handle
// into the client's OpPool — or attaches a callback, in which case the
// pooled state auto-recycles after the callback runs. Either way the
// per-operation storage is an OpState slot recycled through an intrusive
// freelist, exactly the discipline the frame pool gave the message hot
// path: after warm-up, an operation round-trip performs zero heap
// allocations regardless of which API shape the caller prefers.
//
// Threading: OpPool is internally synchronized: any thread may submit or
// wait, and engine threads complete. Per op, each side takes at most:
//   * submit: the pool mutex once, in acquire(), plus whatever queue the
//     engine hands the op through (a sharded kv shard's mailbox mutex);
//   * ticket wait: the pool mutex in find(), and the park on the pool's
//     condition variable if the op is still running;
//   * completion: the pool mutex in mark_ready() for a ticket, none for a
//     callback-mode op; RegisterClient's per-node chains add the pool
//     mutex either way.
// Returning a slot never takes a lock: release() pushes it onto an atomic
// stack, and acquire() takes that whole stack back when its own freelist
// runs dry. The sim-backed engines are driven from the waiting thread
// itself, so their park() drives the event loop rather than blocking on
// the pool's condition variable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "client/status.hpp"
#include "common/contracts.hpp"
#include "common/ids.hpp"
#include "common/value.hpp"

namespace tbr {

class ClientBase;

enum class OpKind : std::uint8_t { kWrite, kRead };

/// Replica selector for reads routed by a client: rotate over the target
/// group's live-looking replicas. (ShardedKvStore::kAnyReplica aliases it.)
inline constexpr ProcessId kAnyReplica = kNoProcess;

/// What every completed operation reports, regardless of engine.
struct OpResult {
  Status status;
  /// Reads: the value returned by the register/store.
  Value value;
  /// Reads: the history index of `value` (0 = initial). Writes: the
  /// version the write landed as, on engines that count versions
  /// (kv batching); 0 otherwise.
  SeqNo version = 0;
  /// Operation latency in the engine's native ticks (virtual ticks for the
  /// sim engines, nanoseconds for the threaded ones).
  Tick latency = 0;
  /// Writes only: the value never reached the register because a later
  /// queued write to the same slot superseded it (last-write-wins
  /// coalescing). The op still linearizes — immediately before the
  /// surviving write — so this is an outcome, not an error.
  bool absorbed = false;
};

/// Optional per-op completion hook; runs on the engine's completion thread
/// (the process/worker thread, or the submitting thread for sim engines
/// while they are driven). Captures of up to two pointers stay inside
/// std::function's inline storage — keep it lean and non-blocking.
using OpCallback = std::function<void(const OpResult&)>;

/// Generation-checked handle to a pooled operation. Default-constructed
/// tickets are empty (callback-mode submissions return one).
class Ticket {
 public:
  Ticket() = default;
  bool valid() const noexcept { return index != kEmpty; }

  // The pool's coordinates; treat as opaque.
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  std::uint32_t index = kEmpty;
  std::uint32_t gen = 0;
};

/// One pooled operation: submission fields in, result fields out. Lives in
/// an OpPool slot; recycled via the pool's freelist. Engines treat it as
/// the operation's identity — callbacks capture a single OpState pointer.
struct OpState {
  // ---- submission (client fills, engine consumes) -------------------------
  OpKind kind = OpKind::kRead;
  /// Resolved target process (writer / reader / key's home replica), or
  /// kAnyReplica for reads the engine rotates itself.
  ProcessId node = kNoProcess;
  std::uint32_t slot = 0;   ///< kv engines: register slot within the group
  std::uint32_t shard = 0;  ///< sharded engine: owning shard
  Value value;              ///< writes: payload (moved in, consumed)
  Tick start = 0;           ///< engine clock at issue (latency bookkeeping)

  // ---- completion (engine fills, client consumes) -------------------------
  OpResult result;
  OpCallback callback;  ///< set => auto-recycle after it runs

  // ---- pool / chain plumbing ---------------------------------------------
  ClientBase* owner = nullptr;
  std::atomic<bool> ready{false};
  /// Park failed (sim liveness lost): the slot is quarantined — excluded
  /// from the freelist until the engine's late completion (if any) frees it.
  bool abandoned = false;
  std::uint32_t index = 0;
  /// Bumped by every return to the pool (and by abandon()): a ticket or a
  /// stall scan holding an older generation knows the slot moved on. Read
  /// from threads other than the one returning the slot, hence atomic;
  /// relaxed is enough, since the slot itself is handed over through the
  /// pool's mutex or its return stack.
  std::atomic<std::uint32_t> gen{0};
  /// Intrusive link, by slot index, for whichever list holds the slot: a
  /// per-node submission chain (ClientBase serializes ops per target
  /// process for engines whose processes admit one op at a time), a
  /// KvClient::submit run, or one of the pool's free lists.
  std::uint32_t next_pending = Ticket::kEmpty;
};

/// Recycling slab of OpStates. Slots live in a deque (stable addresses
/// while the pool grows). Free slots are linked through next_pending in two
/// lists: `free_`, which acquire() pops under the mutex, and the lock-free
/// `returned_` stack that release() pushes onto. Steady state:
/// acquire/release never allocate.
class OpPool {
 public:
  /// Take a warmed slot (or grow by one). Resets submission/result fields
  /// to a just-constructed shape while keeping Value capacities.
  OpState& acquire() {
    const std::scoped_lock lock(mu_);
    if (free_ == Ticket::kEmpty) {
      // Take back every slot returned since the last refill at once. The
      // stack is only ever emptied whole, so its pushes cannot suffer ABA.
      free_ = returned_.exchange(Ticket::kEmpty, std::memory_order_acquire);
    }
    OpState* st = nullptr;
    if (free_ != Ticket::kEmpty) {
      st = &slots_[free_];
      free_ = st->next_pending;
    } else {
      st = &slots_.emplace_back();
      st->index = static_cast<std::uint32_t>(slots_.size() - 1);
    }
    st->kind = OpKind::kRead;
    st->node = kNoProcess;
    st->slot = 0;
    st->shard = 0;
    st->start = 0;
    st->result.status = Status();
    // Cleared in place: a write never sets it, and a read's copy reuses
    // the capacity.
    st->result.value.mutable_bytes().clear();
    st->result.version = 0;
    st->result.latency = 0;
    st->result.absorbed = false;
    st->abandoned = false;
    st->ready.store(false, std::memory_order_relaxed);
    st->next_pending = Ticket::kEmpty;
    return *st;
  }

  /// Return a slot and invalidate outstanding tickets. Lock-free: any
  /// thread may return a slot it owns while others acquire.
  void release(OpState& st) {
    st.gen.store(st.gen.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    st.callback = nullptr;
    std::uint32_t head = returned_.load(std::memory_order_relaxed);
    do {
      st.next_pending = head;
    } while (!returned_.compare_exchange_weak(head, st.index,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  }

  /// Resolve a ticket; nullptr if stale (already recycled) or empty.
  OpState* find(Ticket t) {
    const std::scoped_lock lock(mu_);
    if (t.index >= slots_.size()) return nullptr;
    OpState& st = slots_[t.index];
    return st.gen.load(std::memory_order_relaxed) == t.gen ? &st : nullptr;
  }

  /// Resolve a slot index the caller holds (a chain or run link). The
  /// caller holds mu(): a concurrent acquire() may grow the deque, which
  /// moves its index map (the slots themselves stay put).
  OpState& slot_locked(std::uint32_t index) { return slots_[index]; }

  /// Engine side: publish completion and wake blocked waiters. The store
  /// happens under the pool mutex: a waiter that just evaluated the
  /// predicate (false) still holds the lock until it is parked, so the
  /// notify cannot slip into that gap and be lost.
  void mark_ready(OpState& st) {
    {
      const std::scoped_lock lock(mu_);
      st.ready.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Blocking-park for thread-backed engines (sim engines drive their
  /// event loop instead). Completion is guaranteed by those engines'
  /// crash/shutdown paths, so this wait cannot hang.
  void block_until_ready(const OpState& st) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&st] { return st.ready.load(std::memory_order_acquire); });
  }

  /// Quarantine a slot whose completion may still arrive later (sim
  /// liveness loss): tickets die now, the slot rejoins the freelist only
  /// when/if the engine's completion shows up.
  void abandon(OpState& st) {
    const std::scoped_lock lock(mu_);
    st.gen.store(st.gen.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    st.abandoned = true;
  }

  /// Free an abandoned slot from the engine's late completion path.
  void reclaim_abandoned(OpState& st) {
    TBR_ENSURE(st.abandoned, "reclaim of a live op");
    st.abandoned = false;
    release(st);
  }

  std::mutex& mu() noexcept { return mu_; }
  std::size_t capacity() const {
    const std::scoped_lock lock(mu_);
    return slots_.size();
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<OpState> slots_;
  std::uint32_t free_ = Ticket::kEmpty;  ///< guarded by mu_
  /// On its own cache line: engine threads push here on every completed
  /// callback op, and sharing a line with the fields acquire() reads
  /// would cost the submitting thread a miss per op.
  alignas(64) std::atomic<std::uint32_t> returned_{Ticket::kEmpty};
};

}  // namespace tbr
