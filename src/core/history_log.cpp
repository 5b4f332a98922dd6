#include "core/history_log.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "common/contracts.hpp"

namespace tbr {

namespace {

std::uint32_t end_offset(const std::vector<char>& bytes, std::size_t k) {
  std::uint32_t end = 0;
  std::memcpy(&end, bytes.data() + k * sizeof end, sizeof end);
  return end;
}

}  // namespace

BoundedHistoryLog::BoundedHistoryLog(std::string_view initial,
                                     std::size_t segment_slots) {
  TBR_ENSURE(std::has_single_bit(segment_slots) &&
                 segment_slots <= kFullSegmentSlots,
             "segment slots must be a power of two, at most 16");
  slot_mask_ = segment_slots - 1;
  seg_shift_ = std::countr_zero(segment_slots);
  ring_.resize(2);
  mask_ = ring_.size() - 1;
  ensure_segment_for(0);
  store(0, initial);
  payload_bytes_ = initial.size();
}

BoundedHistoryLog::Segment& BoundedHistoryLog::segment(SeqNo idx) {
  auto& seg = ring_[static_cast<std::size_t>(seg_no(idx)) & mask_];
  TBR_ENSURE(seg != nullptr, "history segment missing for retained index");
  return *seg;
}

const BoundedHistoryLog::Segment& BoundedHistoryLog::segment(
    SeqNo idx) const {
  const auto& seg = ring_[static_cast<std::size_t>(seg_no(idx)) & mask_];
  TBR_ENSURE(seg != nullptr, "history segment missing for retained index");
  return *seg;
}

std::string_view BoundedHistoryLog::at(SeqNo idx) const {
  TBR_ENSURE(has(idx), "history index superseded or out of range");
  const Segment& seg = segment(idx);
  const std::size_t k = slot_of(idx);
  const std::uint32_t begin = k == 0 ? 0 : end_offset(seg.bytes, k - 1);
  return {seg.bytes.data() + offsets_bytes() + begin,
          end_offset(seg.bytes, k) - begin};
}

void BoundedHistoryLog::store(SeqNo idx, std::string_view v) {
  Segment& seg = segment(idx);
  // Room for a full set of payloads this size, offsets included, whenever
  // the capacity falls short of it, so every later life of this segment
  // with payloads this size fills it without allocating.
  const std::size_t full = offsets_bytes() + segment_slots() * v.size();
  if (seg.bytes.capacity() < full) seg.bytes.reserve(full);
  // First payload of this segment life: zero every end offset.
  if (seg.bytes.empty()) seg.bytes.resize(offsets_bytes());
  const std::size_t used = seg.bytes.size() - offsets_bytes();
  TBR_ENSURE(v.size() <= std::numeric_limits<std::uint32_t>::max() - used,
             "history segment exceeds 4 GiB");
  // `idx` is the newest index in its segment, so its payload starts where
  // the previous slot's ends (at 0 below the segment's first index).
  seg.bytes.insert(seg.bytes.end(), v.begin(), v.end());
  const auto end = static_cast<std::uint32_t>(used + v.size());
  std::memcpy(seg.bytes.data() + slot_of(idx) * sizeof end, &end, sizeof end);
}

void BoundedHistoryLog::grow_ring() {
  std::vector<std::unique_ptr<Segment>> next(ring_.size() * 2);
  const std::size_t next_mask = next.size() - 1;
  for (SeqNo s = seg_no(base_); s <= seg_no(head_); ++s) {
    next[static_cast<std::size_t>(s) & next_mask] =
        std::move(ring_[static_cast<std::size_t>(s) & mask_]);
  }
  ring_ = std::move(next);
  mask_ = next_mask;
}

void BoundedHistoryLog::ensure_segment_for(SeqNo idx) {
  const SeqNo s = seg_no(idx);
  // Contiguity check: does the ring have room for one more segment?
  if (allocated_segments_ > 0 && s > seg_no(head_)) {
    const SeqNo active = seg_no(head_) - seg_no(base_) + 1;
    if (static_cast<std::size_t>(active) + 1 > ring_.size()) grow_ring();
  }
  auto& cell = ring_[static_cast<std::size_t>(s) & mask_];
  if (cell != nullptr) return;  // idx extends the segment already in place
  if (!freelist_.empty()) {
    cell = std::move(freelist_.back());
    freelist_.pop_back();
  } else {
    cell = std::make_unique<Segment>();
    ++allocated_segments_;
  }
}

void BoundedHistoryLog::recycle_segment(SeqNo seg) {
  auto& cell = ring_[static_cast<std::size_t>(seg) & mask_];
  TBR_ENSURE(cell != nullptr, "recycling an absent segment");
  cell->bytes.clear();  // keeps the byte capacity for the next life
  freelist_.push_back(std::move(cell));
}

void BoundedHistoryLog::append(std::string_view v) {
  const SeqNo idx = head_ + 1;
  ensure_segment_for(idx);
  head_ = idx;
  store(idx, v);
  payload_bytes_ += v.size();
}

std::uint64_t BoundedHistoryLog::advance_checkpoint(SeqNo to) {
  TBR_ENSURE(to >= base_ && to <= head_,
             "checkpoint must advance within the retained range");
  const std::uint64_t reclaimed = static_cast<std::uint64_t>(to - base_);
  for (SeqNo idx = base_; idx < to; ++idx) {
    payload_bytes_ -= at(idx).size();
    // Leaving the last slot of a segment: the whole segment is superseded.
    if (slot_of(idx) == slot_mask_) recycle_segment(seg_no(idx));
  }
  base_ = to;
  return reclaimed;
}

void BoundedHistoryLog::reset_to_checkpoint(SeqNo idx, std::string_view v) {
  TBR_ENSURE(idx >= 0, "checkpoint index must be a history index");
  for (SeqNo s = seg_no(base_); s <= seg_no(head_); ++s) recycle_segment(s);
  base_ = head_ = idx;
  ensure_segment_for(idx);
  store(idx, v);
  payload_bytes_ = v.size();
}

}  // namespace tbr
