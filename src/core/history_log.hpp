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
// Storage is a ring of fixed-size segments, each one byte buffer plus a
// stride and a layout flag. A segment whose payloads all have one size
// (the common case: a register's values are usually one size) is
// *uniform*: its buffer holds only the packed payloads, and entry k of the
// segment sits at k * stride. Entries below the first index of a
// segment's life count as empty payloads; reset_to_checkpoint can start a
// life mid-segment. The first payload of another size switches the
// segment once, in place, to the *offsets* layout: one uint32 end offset
// per entry of the segment, then the payloads in index order, entry k
// spanning [end[k-1], end[k]) past the offsets (entry 0 starts at 0).
// Either way an 8-byte value costs its 8 bytes and a share of the
// segment's buffer header, `Segment` record and ring pointer, not a
// std::string of its own. Entries are handed out as string_views into the
// buffer; a view stays valid until the next append, advance_checkpoint or
// reset_to_checkpoint.
//
// The entries per segment are fixed at construction and follow what the
// log retains. A log that keeps everything (faithful mode, rejoiners) uses
// kFullSegmentSlots = 256, amortising each segment's 32-B record and
// buffer header over many entries: ~8.3 requested bytes per 8-B entry. A
// log that keeps a few entries (known-prefix GC, which leaves one or two
// live, and the history_window ablation) uses kGcSegmentSlots = 2: a
// larger segment there would hold a buffer sized for many payloads to keep
// a few. The trade-off: a bounded log whose GC has stalled (a crashed peer
// pins the watermark) grows like a faithful one, in 2-entry segments,
// which request ~40 B per 8-B entry.
//
// Whenever a segment's capacity falls short of what the next payload
// needs, its buffer is reserved for the whole segment at the average size
// of the non-empty payloads it holds (the incoming one included), offsets
// included, and never for less than it needs. For payloads of one size,
// and for a genesis segment that holds the empty initial value, that is a
// full set of payloads the incoming size, not only at capacity 0: a
// segment whose first life held smaller payloads (the KV stores' empty
// genesis value, then one write) is thereby sized for its later lives
// while it is still live, and does not grow again when it comes back from
// the freelist. A log of mixed sizes reserves for its average, not for a
// full set of the largest payload it meets.
//
// Retired segments go to a freelist and are recycled on append with their
// byte capacity kept, so steady-state bounded operation performs zero
// allocations once the ring and each segment's byte capacity have warmed up
// (the property the alloc gates assert). The structural bytes (slots ever
// allocated) are a high-water mark: they grow to the workload's maximum
// retained window and then stay flat, which is what makes memory_bytes() a
// *stable* per-process bound.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace tbr {

class BoundedHistoryLog {
 public:
  /// Entries per segment for a log that keeps everything, and the largest
  /// segment a log may use.
  static constexpr std::size_t kFullSegmentSlots = 256;
  /// Entries per segment for a log that keeps a few entries: known-prefix
  /// GC and the history_window ablation.
  static constexpr std::size_t kGcSegmentSlots = 2;

  /// The log starts as the genesis checkpoint: index 0 = `initial`.
  /// `segment_slots` is a power of two, at most kFullSegmentSlots.
  explicit BoundedHistoryLog(std::string_view initial,
                             std::size_t segment_slots = kFullSegmentSlots);

  // ---- the retained range --------------------------------------------------
  SeqNo base() const noexcept { return base_; }   // checkpoint index
  SeqNo head() const noexcept { return head_; }
  /// Retained entries, checkpoint included: head - base + 1.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(head_ - base_ + 1);
  }
  bool has(SeqNo idx) const noexcept { return idx >= base_ && idx <= head_; }
  /// The payload of retained entry `idx`, valid until the next mutation.
  std::string_view at(SeqNo idx) const;
  std::string_view checkpoint_value() const { return at(base_); }

  // ---- mutation ------------------------------------------------------------
  /// history[head+1] <- v. `v` may not point into this log.
  void append(std::string_view v);

  /// Advance the checkpoint to `to` (base <= to <= head): entries below `to`
  /// are superseded by the new checkpoint record and their segments are
  /// recycled. Returns the number of entries reclaimed.
  std::uint64_t advance_checkpoint(SeqNo to);

  /// Drop exactly the oldest entry (the lossy window ablation's eviction).
  /// Mechanically advance_checkpoint(base+1); the *caller* decides whether
  /// the drop was safe.
  void evict_front() { (void)advance_checkpoint(base_ + 1); }

  /// Crash-rejoin: discard everything and become the checkpoint (idx, v)
  /// received from a peer. base == head == idx afterwards. `v` may not
  /// point into this log.
  void reset_to_checkpoint(SeqNo idx, std::string_view v);

  // ---- accounting ----------------------------------------------------------
  /// Bytes of retained payloads (checkpoint included).
  std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }
  /// The protocol-state model Table 1 line 4 and the memory gates report:
  /// retained payloads, 8 B per retained entry, and 8 B per slot ever
  /// allocated (active or recycled). For a faithful log of equal-sized
  /// payloads it is an upper bound on the heap bytes the log requests (24 B
  /// modelled against ~8.3 B requested per 8-B entry in 256-entry uniform
  /// segments); it does not count the byte capacity recycled segments keep.
  std::uint64_t memory_bytes() const noexcept {
    return payload_bytes_ + 8ull * size() +
           8ull * segment_slots() * allocated_segments_;
  }
  /// Segments currently allocated (active + freelist). Flat in steady state.
  std::size_t allocated_segments() const noexcept {
    return allocated_segments_;
  }
  /// Entries per segment, as given at construction.
  std::size_t segment_slots() const noexcept { return slot_mask_ + 1; }

 private:
  /// Uniform: [payloads, `stride` bytes each], entry k at k * stride;
  /// entries below the first slot of the segment's life count as empty.
  /// Otherwise: [end offsets of the segment's entries][payloads, packed].
  struct Segment {
    std::vector<char> bytes;
    std::uint32_t stride = 0;
    bool uniform = true;
  };
  // A stalled 2-entry log pays this record once per two entries.
  static_assert(sizeof(Segment) <= sizeof(std::vector<char>) + 8);

  SeqNo seg_no(SeqNo idx) const noexcept { return idx >> seg_shift_; }
  std::size_t slot_of(SeqNo idx) const noexcept {
    return static_cast<std::size_t>(idx) & slot_mask_;
  }
  /// Bytes of end offsets at the front of an offsets-layout buffer.
  std::size_t offsets_bytes() const noexcept {
    return segment_slots() * sizeof(std::uint32_t);
  }
  Segment& segment(SeqNo idx);
  const Segment& segment(SeqNo idx) const;
  /// Make sure the segment holding `idx` exists (idx == head_+1 only).
  void ensure_segment_for(SeqNo idx);
  /// Write `v` as the payload of `idx`, the newest index in its segment.
  void store(SeqNo idx, std::string_view v);
  /// Non-empty payloads `seg` holds in slots [0, k).
  std::size_t nonempty_payloads(const Segment& seg, std::size_t k) const;
  /// Switch uniform `seg`, which holds slots [0, k), to the offsets layout
  /// in place.
  void to_offsets(Segment& seg, std::size_t k) const;
  void grow_ring();
  void recycle_segment(SeqNo seg);

  std::size_t slot_mask_ = 0;  // segment_slots() - 1
  int seg_shift_ = 0;          // log2(segment_slots())

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
