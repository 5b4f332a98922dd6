// MailboxT: the per-process event queue of the threaded runtime and the
// per-shard operation queue of the sharded KV engine.
//
// Exactly one consumer (the owning thread) pops; any thread may push.
// Blocking pop integrates with jthread stop tokens so shutdown never hangs
// (Core Guidelines CP.42: always wait with a condition). `pop_all` is the
// batching primitive: it drains everything queued into a caller-owned
// buffer in one pass, which is what makes a natural batching window — the
// consumer takes whatever accumulated while it was busy with the previous
// batch.
//
// Storage is a recycled power-of-two ring over a vector, not a deque: a
// deque crosses (and frees/reallocates) a chunk boundary every ~few dozen
// envelopes, which on the message hot path is a steady allocation drip.
// The ring grows to the high-water mark once and then never allocates.
//
// A push notifies the condition variable only when the consumer is parked
// on it (a sleeper count kept under the mutex). A busy consumer finds the
// items when it next looks, so pushes into its box skip the notify, whose
// condition_variable_any takes an internal lock of its own.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

namespace tbr {

template <typename T>
class MailboxT {
 public:
  /// Enqueue; returns false if the box has been closed (shutdown). Takes an
  /// rvalue and moves from it only on success, so a rejected item — e.g. an
  /// envelope carrying a completion callback — is still intact for the
  /// caller's failure handling.
  bool push(T&& item) {
    return push_n(1, [&item](T& slot) { slot = std::move(item); });
  }

  /// Enqueue `count` items under one lock, waking a parked consumer at
  /// most once: `fill(slot)` moves the next item into `slot`, in arrival
  /// order. Returns false, without calling `fill`, if the box is closed.
  template <typename Fill>
  bool push_n(std::size_t count, Fill&& fill) {
    bool wake = false;
    {
      const std::scoped_lock lock(mu_);
      if (closed_) return false;
      if (count_ + count > ring_.size()) grow(count_ + count);
      for (std::size_t k = 0; k < count; ++k) {
        fill(ring_[(head_ + count_) & (ring_.size() - 1)]);
        ++count_;
      }
      wake = sleepers_ > 0;
    }
    if (wake) cv_.notify_one();
    return true;
  }

  /// Block until an item is available or stop is requested / box closed.
  std::optional<T> pop(std::stop_token st) {
    std::unique_lock lock(mu_);
    ++sleepers_;
    cv_.wait(lock, st, [this] { return count_ > 0 || closed_; });
    --sleepers_;
    if (count_ == 0) return std::nullopt;  // stopped or closed
    return take();
  }

  /// Block until at least one item is available, then drain up to
  /// `max_items` of them in arrival order (0 = everything queued) into
  /// `out`, which is cleared first — reuse one buffer across calls and the
  /// drain itself never allocates. `out` left empty means stopped or
  /// closed: the consumer's exit signal.
  ///
  /// `min_items` > 1 is a batching-window floor (group-commit style): the
  /// consumer lingers up to `min_wait` for the queue to reach `min_items`
  /// before draining, so pipelined producers get deterministic window
  /// sizes; close(), stop, or the timeout open a partial window anyway.
  void pop_all(std::stop_token st, std::vector<T>& out,
               std::size_t max_items = 0, std::size_t min_items = 1,
               std::chrono::microseconds min_wait =
                   std::chrono::microseconds(0)) {
    out.clear();
    std::unique_lock lock(mu_);
    // Counted as a sleeper through both waits: a push that lands while
    // the consumer lingers for min_items must wake it to re-check.
    ++sleepers_;
    cv_.wait(lock, st, [this] { return count_ > 0 || closed_; });
    if (min_items > 1 && count_ < min_items && !closed_ &&
        min_wait.count() > 0) {
      (void)cv_.wait_for(lock, st, min_wait, [this, min_items] {
        return count_ >= min_items || closed_;
      });
    }
    --sleepers_;
    if (count_ == 0) return;  // stopped or closed
    const std::size_t take_n =
        max_items == 0 ? count_ : std::min(count_, max_items);
    for (std::size_t k = 0; k < take_n; ++k) out.push_back(take());
  }

  /// Wake consumers and reject further pushes.
  void close() {
    {
      const std::scoped_lock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    const std::scoped_lock lock(mu_);
    return count_;
  }

 private:
  T take() {
    T item = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    return item;
  }

  /// Reallocate to the smallest power of two (at least 8) that holds
  /// `need` items.
  void grow(std::size_t need) {
    std::size_t size = std::max<std::size_t>(ring_.size(), 8);
    while (size < need) size *= 2;
    std::vector<T> bigger(size);
    for (std::size_t k = 0; k < count_; ++k) {
      bigger[k] = std::move(ring_[(head_ + k) & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
    head_ = 0;
  }

  mutable std::mutex mu_;
  std::condition_variable_any cv_;
  std::vector<T> ring_;  // capacity always a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t sleepers_ = 0;  ///< consumers waiting on cv_
  bool closed_ = false;
};

}  // namespace tbr
