// The one message shape shared by every algorithm in the repository.
//
// Each algorithm defines its own small enum of type ids (the two-bit
// algorithm uses exactly four; that is the paper's point) and its own Codec
// which decides what actually reaches the wire and how many control bits it
// costs. Fields unused by an algorithm are never serialized by its codec.
#pragma once

#include "common/ids.hpp"
#include "common/value.hpp"
#include "metrics/message_stats.hpp"

namespace tbr {

struct Message {
  /// Algorithm-local message-type id (0..15).
  std::uint8_t type = 0;

  /// Baseline control fields (ABD sequence number, phase/request tags).
  /// The two-bit algorithm leaves these at 0 on its four Fig. 1 frames and
  /// its codec never encodes them there — sequence numbers stay local, per
  /// the paper. The bounded-memory extension frames (ACK / CHECKPOINT /
  /// CATCHUP, TwoBitType 4..6) use `seq` as the explicit history index they
  /// carry, accounted as extra control bits.
  SeqNo seq = 0;
  SeqNo aux = 0;

  bool has_value = false;
  Value value;

  /// Wire cost, filled in by the algorithm's Codec before sending.
  WireAccounting wire;

  /// Simulator-side diagnostic tag (e.g. which history index a WRITE frame
  /// disseminates). Never serialized; used only by invariant observers and
  /// trace output. Kept out of `wire` accounting by construction.
  SeqNo debug_index = -1;
};

/// A frame sent but not yet handled, as the lemma predicate
/// (core/invariants) reads it: the simulator and the model checker both
/// list their undelivered frames this way.
struct InFlightFrame {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  std::uint8_t type = 0;
  SeqNo debug_index = -1;
};

}  // namespace tbr
