// Wire formats of the two fast-path read engines (src/fastread/).
//
// Both codecs follow the repository's accounting convention (docs/
// wire-protocol.md): the register value plus its u32 length framing are
// data-plane bits; the type tag, sequence numbers and read tags the
// protocols add to coordinate are control bits.
//
//   OhRamCodec        — the one-and-a-half-round read protocol. Seven
//                       types (3 meaningful bits); reads ride relayed
//                       replica states, so most frames carry a 64-bit read
//                       tag next to the 64-bit timestamp.
//   TimeEfficientCodec — the Mostéfaoui–Raynal time-efficient register.
//                       Three types (2 meaningful bits): an adopt-echo
//                       that doubles as the write frame, a bare read
//                       query, and a state reply.
//
// Layouts are byte-exact in fastread_codec.cpp and documented in
// docs/wire-protocol.md.
#pragma once

#include "net/codec.hpp"

namespace tbr {

// ---- Oh-RAM! one-and-a-half-round read --------------------------------------

enum class OhRamType : std::uint8_t {
  kWrite = 0,         ///< writer disseminates (wsn, v)
  kWriteAck = 1,      ///< replica confirms wsn
  kRead = 2,          ///< reader announces a read; carries its own state
  kRelay = 3,         ///< replica relays its state for (reader, tag)
  kReadAck = 4,       ///< relay-quorum holder reports its best to the reader
  kWriteBack = 5,     ///< fallback round: reader disseminates the max
  kWriteBackAck = 6,  ///< replica confirms the write-back
};

class OhRamCodec final : public Codec {
 public:
  /// 7 live types fit in 3 bits.
  static constexpr std::uint64_t kTypeBits = 3;
  static constexpr std::uint64_t kSeqBits = 64;
  static constexpr std::uint64_t kTagBits = 64;

  void encode_into(const Message& msg, std::string& out) const override;
  void decode_into(std::string_view bytes, Message& out) const override;
  WireAccounting account(const Message& msg) const override;
  std::string type_name(std::uint8_t type) const override;
  std::size_t value_frame_overhead() const override;
};

/// Shared immutable instance (codecs are stateless).
const OhRamCodec& ohram_codec();

// ---- Mostéfaoui–Raynal time-efficient register ------------------------------

enum class TimeEffType : std::uint8_t {
  kEcho = 0,   ///< adopt-echo of (sn, v); a write is the writer's echo of a
               ///< fresh sn
  kRead = 1,   ///< bare read query carrying only the read tag
  kState = 2,  ///< per-query state reply (tag, sn, v)
};

class TimeEfficientCodec final : public Codec {
 public:
  /// 3 live types fit in 2 bits.
  static constexpr std::uint64_t kTypeBits = 2;
  static constexpr std::uint64_t kSeqBits = 64;
  static constexpr std::uint64_t kTagBits = 64;

  void encode_into(const Message& msg, std::string& out) const override;
  void decode_into(std::string_view bytes, Message& out) const override;
  WireAccounting account(const Message& msg) const override;
  std::string type_name(std::uint8_t type) const override;
  std::size_t value_frame_overhead() const override;
};

/// Shared immutable instance (codecs are stateless).
const TimeEfficientCodec& time_efficient_codec();

}  // namespace tbr
