#include "abd/phased_codec.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/contracts.hpp"

namespace tbr {

PhasedCodec::PhasedCodec(const PhasedSpec& spec, std::uint32_t n)
    : label_bits_(spec.label_bits(n)),
      physical_label_bytes_(
          std::min<std::uint64_t>(bits_to_bytes(label_bits_),
                                  kMaxPhysicalLabelBytes)) {}

void PhasedCodec::encode_into(const Message& msg, std::string& out) const {
  TBR_ENSURE(msg.type <= 3, "unknown phased frame type");
  out.clear();
  out.push_back(static_cast<char>(msg.type));
  wire::put_u64(out, static_cast<std::uint64_t>(msg.aux));
  wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
  out.push_back(msg.has_value ? '\1' : '\0');
  if (msg.has_value) {
    wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
    out.append(msg.value.bytes());
  }
  // The bounded-label blob (zeros: the emulation models its size, not its
  // algebra). Length-prefixed so decode round-trips under the physical cap.
  wire::put_u32(out, static_cast<std::uint32_t>(physical_label_bytes_));
  out.append(physical_label_bytes_, '\0');
}

void PhasedCodec::decode_into(std::string_view bytes, Message& msg) const {
  wire::reset_for_decode(msg);
  std::size_t pos = 0;
  msg.type = wire::get_u8(bytes, pos);
  TBR_ENSURE(msg.type <= 3, "unknown phased frame type");
  msg.aux = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  const auto has_value = wire::get_u8(bytes, pos);
  TBR_ENSURE(has_value <= 1, "bad value flag");
  if (has_value == 1) {
    const auto len = wire::get_u32(bytes, pos);
    wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
    msg.has_value = true;
  }
  const auto label_len = wire::get_u32(bytes, pos);
  wire::skip_blob(bytes, pos, label_len);
  TBR_ENSURE(pos == bytes.size(), "trailing bytes in phased frame");
  msg.wire = account(msg);
}

WireAccounting PhasedCodec::account(const Message& msg) const {
  WireAccounting wire;
  wire.control_bits = kTypeBits + min_bits_seqno(msg.aux) +
                      min_bits_seqno(msg.seq) + label_bits_;
  wire.data_bits = msg.has_value ? 32 + msg.value.size_bits() : 0;
  return wire;
}

std::size_t PhasedCodec::value_frame_overhead() const {
  // type, tag, seq, value flag, value length, label length, label blob
  return 1 + 8 + 8 + 1 + 4 + 4 +
         static_cast<std::size_t>(physical_label_bytes_);
}

std::string PhasedCodec::type_name(std::uint8_t type) const {
  switch (static_cast<PhasedType>(type)) {
    case PhasedType::kPhaseReq:
      return "PHASE_REQ";
    case PhasedType::kPhaseAck:
      return "PHASE_ACK";
    case PhasedType::kQueryReply:
      return "QUERY_REPLY";
    case PhasedType::kEcho:
      return "ECHO";
  }
  return "UNKNOWN(" + std::to_string(type) + ")";
}

}  // namespace tbr
