// BoundedHistoryLog: history ownership for the two-bit protocol, factored
// out of TwoBitProcess so bounded memory is a subsystem rather than an
// ablation hack.
//
// The log stores the contiguous index range [base, head] of the writer's
// history. Entry `base` is the *checkpoint record*: a (index, value) pair
// that supersedes the whole prefix history[0..base]. Faithful mode never
// moves the base, reproducing the paper's unbounded history. Bounded mode
// advances the base to the known-prefix watermark (the minimum index every
// peer provably stores), reclaiming superseded entries; crash-rejoin resets
// the whole log to a checkpoint received from a peer.
//
// Storage is a ring of fixed-size segments. Retired segments go to a
// freelist and are recycled on append, so steady-state bounded operation
// performs zero allocations once the ring and each Value's capacity have
// warmed up (the property the alloc gates assert). The structural bytes
// (slots ever allocated) are a high-water mark: they grow to the workload's
// maximum retained window and then stay flat, which is what makes
// memory_bytes() a *stable* per-process bound.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "common/value.hpp"

namespace tbr {

class BoundedHistoryLog {
 public:
  /// Values per segment. Small enough that a handful of segments cover the
  /// usual GC windows, large enough to amortise segment rotation.
  static constexpr std::size_t kSegmentSlots = 16;

  /// The log starts as the genesis checkpoint: index 0 = `initial`.
  explicit BoundedHistoryLog(Value initial);

  // ---- the retained range --------------------------------------------------
  SeqNo base() const noexcept { return base_; }   // checkpoint index
  SeqNo head() const noexcept { return head_; }
  /// Retained entries, checkpoint included: head - base + 1.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_ - base_ + 1);
  }
  bool has(SeqNo idx) const noexcept { return idx >= base_ && idx <= head_; }
  const Value& at(SeqNo idx) const;
  const Value& checkpoint_value() const { return at(base_); }

  // ---- mutation ------------------------------------------------------------
  /// history[head+1] <- v.
  void append(const Value& v);
  void append(Value&& v);

  /// Advance the checkpoint to `to` (base <= to <= head): entries below `to`
  /// are superseded by the new checkpoint record and their segments are
  /// recycled. Returns the number of entries reclaimed.
  std::uint64_t advance_checkpoint(SeqNo to);

  /// Drop exactly the oldest entry (the lossy window ablation's eviction).
  /// Mechanically advance_checkpoint(base+1); the *caller* decides whether
  /// the drop was safe.
  void evict_front() { (void)advance_checkpoint(base_ + 1); }

  /// Crash-rejoin: discard everything and become the checkpoint (idx, v)
  /// received from a peer. base == head == idx afterwards.
  void reset_to_checkpoint(SeqNo idx, const Value& v);

  // ---- accounting ----------------------------------------------------------
  /// Bytes of retained payloads (checkpoint included).
  std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
  /// Stable structural + live bound: retained entry overhead, retained
  /// payloads, and every slot ever allocated (active or recycled).
  std::uint64_t memory_bytes() const noexcept {
    return payload_bytes_ + 8ull * size() +
           8ull * kSegmentSlots * allocated_segments_;
  }
  /// Segments currently allocated (active + freelist). Flat in steady state.
  std::size_t allocated_segments() const noexcept {
    return allocated_segments_;
  }

 private:
  struct Segment {
    std::vector<Value> slots;
    Segment() : slots(kSegmentSlots) {}
  };

  static SeqNo seg_no(SeqNo idx) noexcept {
    return idx / static_cast<SeqNo>(kSegmentSlots);
  }
  Segment& segment(SeqNo idx);
  const Segment& segment(SeqNo idx) const;
  Value& slot(SeqNo idx);
  /// Make sure the segment holding `idx` exists (idx == head_+1 only).
  void ensure_segment_for(SeqNo idx);
  void grow_ring();
  void recycle_segment(SeqNo seg);

  // Ring of segment pointers; segment s lives at ring_[s & mask_]. The
  // active segments [seg_no(base_), seg_no(head_)] are contiguous, so the
  // ring never holds two live segments in one slot as long as it is big
  // enough (grow_ring doubles it when it is not).
  std::vector<std::unique_ptr<Segment>> ring_;
  std::size_t mask_ = 0;
  std::vector<std::unique_ptr<Segment>> freelist_;
  std::size_t allocated_segments_ = 0;

  SeqNo base_ = 0;
  SeqNo head_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

}  // namespace tbr
