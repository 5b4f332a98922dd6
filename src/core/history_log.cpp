#include "core/history_log.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <utility>

#include "common/contracts.hpp"

namespace tbr {

namespace {

// Buffer positions go through vector::operator[], so a build with
// -D_GLIBCXX_ASSERTIONS bounds-checks every offset computed here.
std::uint32_t end_offset(const std::vector<char>& bytes, std::size_t k) {
  std::uint32_t end = 0;
  std::memcpy(&end, &bytes[k * sizeof end], sizeof end);
  return end;
}

void set_end_offset(std::vector<char>& bytes, std::size_t k,
                    std::uint32_t end) {
  std::memcpy(&bytes[k * sizeof end], &end, sizeof end);
}

// The `len` bytes of `bytes` from `pos`.
std::string_view slice(const std::vector<char>& bytes, std::size_t pos,
                       std::size_t len) {
  if (len == 0) return {};
  (void)bytes[pos + len - 1];  // the last byte is in the buffer too
  return {&bytes[pos], len};
}

}  // namespace

BoundedHistoryLog::BoundedHistoryLog(std::string_view initial,
                                     std::size_t segment_slots) {
  TBR_ENSURE(std::has_single_bit(segment_slots) &&
                 segment_slots <= kFullSegmentSlots,
             "segment slots must be a power of two, at most 256");
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
  if (seg.uniform) return slice(seg.bytes, k * seg.stride, seg.stride);
  const std::uint32_t begin = k == 0 ? 0 : end_offset(seg.bytes, k - 1);
  return slice(seg.bytes, offsets_bytes() + begin,
               end_offset(seg.bytes, k) - begin);
}

void BoundedHistoryLog::store(SeqNo idx, std::string_view v) {
  Segment& seg = segment(idx);
  const std::size_t k = slot_of(idx);
  const std::size_t held =
      seg.bytes.size() - (seg.uniform ? 0 : offsets_bytes());
  TBR_ENSURE(v.size() <= std::numeric_limits<std::uint32_t>::max() - held,
             "history segment exceeds 4 GiB");
  // Slot 0 begins a segment life (a recycled segment comes back uniform),
  // and the life's first payload sets the stride.
  if (k == 0) seg.stride = static_cast<std::uint32_t>(v.size());
  const bool uniform = seg.uniform && v.size() == seg.stride;
  const std::size_t header = uniform ? 0 : offsets_bytes();
  const std::size_t needed = header + held + v.size();
  if (seg.bytes.capacity() < needed) {
    // Room for the whole segment at the average non-empty payload size.
    const std::size_t count = nonempty_payloads(seg, k) + (v.empty() ? 0 : 1);
    const std::size_t average = count == 0 ? 0 : (held + v.size()) / count;
    seg.bytes.reserve(std::max(needed, header + average * segment_slots()));
  }
  if (seg.uniform && !uniform) to_offsets(seg, k);
  // `idx` is the newest index in its segment, so its payload goes last.
  seg.bytes.insert(seg.bytes.end(), v.begin(), v.end());
  if (!uniform) {
    set_end_offset(seg.bytes, k, static_cast<std::uint32_t>(held + v.size()));
  }
}

std::size_t BoundedHistoryLog::nonempty_payloads(const Segment& seg,
                                                 std::size_t k) const {
  if (seg.uniform) return seg.stride > 0 ? k : 0;
  std::size_t count = 0;
  std::uint32_t prev = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint32_t end = end_offset(seg.bytes, j);
    if (end > prev) ++count;
    prev = end;
  }
  return count;
}

void BoundedHistoryLog::to_offsets(Segment& seg, std::size_t k) const {
  seg.bytes.insert(seg.bytes.begin(), offsets_bytes(), char{0});
  for (std::size_t j = 0; j < k; ++j) {
    set_end_offset(seg.bytes, j,
                   static_cast<std::uint32_t>((j + 1) * seg.stride));
  }
  seg.uniform = false;
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
  cell->stride = 0;
  cell->uniform = true;
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
