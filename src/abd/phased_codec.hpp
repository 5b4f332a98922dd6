// Wire format for the phased (ABD-family) protocols.
//
// Frame layout: type byte, op/phase tag, optional sequence number and value,
// plus — for the bounded baselines — a label blob of the modeled size.
// Control-bit accounting: 3 bits of type (6 types) + minimal encodings of
// the tag/seq fields + the modeled label bits. Physical label bytes are
// capped (kMaxPhysicalLabelBytes) so n-sweeps stay affordable; accounting
// always uses the analytic size. See the bounded-label bullet under
// "Phased codec" in docs/wire-protocol.md.
#pragma once

#include "abd/specs.hpp"
#include "net/codec.hpp"

namespace tbr {

/// Message types of the phased engine.
enum class PhasedType : std::uint8_t {
  kPhaseReq = 0,    ///< initiator -> replicas (query or disseminate)
  kPhaseAck = 1,    ///< replica -> initiator (disseminate ack)
  kQueryReply = 2,  ///< replica -> initiator (carries replica state)
  kEcho = 3,        ///< replica -> replicas (bounded-ABD gossip; no reply)
};

class PhasedCodec final : public Codec {
 public:
  PhasedCodec(const PhasedSpec& spec, std::uint32_t n);

  void encode_into(const Message& msg, std::string& out) const override;
  void decode_into(std::string_view bytes, Message& out) const override;
  WireAccounting account(const Message& msg) const override;
  std::string type_name(std::uint8_t type) const override;
  std::size_t value_frame_overhead() const override;

  std::uint64_t label_bits() const noexcept { return label_bits_; }

  static constexpr std::uint64_t kTypeBits = 3;
  static constexpr std::uint64_t kMaxPhysicalLabelBytes = 4096;

 private:
  std::uint64_t label_bits_;
  std::uint64_t physical_label_bytes_;
};

}  // namespace tbr
