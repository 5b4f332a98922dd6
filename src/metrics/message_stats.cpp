#include "metrics/message_stats.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace tbr {

void MessageStats::record_send(std::uint8_t type, const WireAccounting& wire) {
  TBR_ENSURE(type < kMaxTypes, "message type id out of range");
  ++sent_by_type_[type];
  ++total_sent_;
  control_bits_ += wire.control_bits;
  data_bits_ += wire.data_bits;
  max_control_bits_ = std::max(max_control_bits_, wire.control_bits);
}

void MessageStats::record_drop() { ++total_dropped_; }

std::uint64_t MessageStats::sent_of_type(std::uint8_t type) const {
  TBR_ENSURE(type < kMaxTypes, "message type id out of range");
  return sent_by_type_[type];
}

MessageStats MessageStats::diff_since(const MessageStats& earlier) const {
  MessageStats out;
  for (std::size_t i = 0; i < kMaxTypes; ++i) {
    TBR_ENSURE(sent_by_type_[i] >= earlier.sent_by_type_[i],
               "diff_since requires an earlier snapshot");
    out.sent_by_type_[i] = sent_by_type_[i] - earlier.sent_by_type_[i];
  }
  out.total_sent_ = total_sent_ - earlier.total_sent_;
  out.total_dropped_ = total_dropped_ - earlier.total_dropped_;
  out.control_bits_ = control_bits_ - earlier.control_bits_;
  out.data_bits_ = data_bits_ - earlier.data_bits_;
  // Max over the window is not derivable from snapshots; report the global
  // max, which upper-bounds the window (documented behaviour).
  out.max_control_bits_ = max_control_bits_;
  // Gauges are not monotone either; the window inherits the current values.
  out.local_memory_peak_ = local_memory_peak_;
  out.local_memory_last_ = local_memory_last_;
  return out;
}

void MessageStats::record_local_memory(std::uint64_t bytes) {
  local_memory_last_ = bytes;
  local_memory_peak_ = std::max(local_memory_peak_, bytes);
}

void MessageStats::reset() { *this = MessageStats{}; }

}  // namespace tbr
