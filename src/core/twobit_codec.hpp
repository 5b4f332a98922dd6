// Wire format of the two-bit algorithm: the paper's headline property.
//
// Four frame types — WRITE0, WRITE1, READ, PROCEED — and *no* control field
// beyond the type. WRITE frames carry the register value (data plane);
// READ/PROCEED carry nothing at all. Control cost of every frame: 2 bits.
//
// On a byte-oriented wire the 2-bit type necessarily occupies one byte; the
// control-bit accounting counts the 2 meaningful bits, exactly the quantity
// the paper compares in Table 1 line 3 (the 6 padding bits are an artifact
// of byte framing, not protocol information).
//
// The bounded-memory extension (Imbs–Mostéfaoui–Perrin–Raynal-style acked
// prefixes; see README "Bounded memory & recovery") adds three frames
// *outside* the paper's protocol: ACK (prefix acknowledgement), CHECKPOINT
// (index + value superseding a prefix) and CATCHUP (rejoin request). These
// carry an explicit 64-bit index and are accounted honestly as 2 + 64
// control bits — the paper's 2-bit claim covers exactly the Fig. 1 frames,
// which remain byte-identical.
#pragma once

#include "net/codec.hpp"

namespace tbr {

/// The four message types of Fig. 1 (WRITE parity = type & 1), plus the
/// bounded-memory extension frames. Type 7 stays invalid.
enum class TwoBitType : std::uint8_t {
  kWrite0 = 0,
  kWrite1 = 1,
  kRead = 2,
  kProceed = 3,
  kAck = 4,        // seq = highest history index the sender has applied
  kCheckpoint = 5, // seq = checkpoint index, value = history[seq]
  kCatchUp = 6,    // rejoin request: "send me your checkpoint"
};

class TwoBitCodec final : public Codec {
 public:
  void encode_into(const Message& msg, std::string& out) const override;
  void decode_into(std::string_view bytes, Message& out) const override;
  WireAccounting account(const Message& msg) const override;
  std::string type_name(std::uint8_t type) const override;
  std::size_t value_frame_overhead() const override;

  static constexpr std::uint64_t kControlBitsPerMessage = 2;
  /// Extra control bits of the extension frames carrying an index.
  static constexpr std::uint64_t kIndexBits = 64;
};

/// Shared immutable codec instance.
const TwoBitCodec& twobit_codec();

}  // namespace tbr
