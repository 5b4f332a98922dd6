#include "link/link_codec.hpp"

#include "common/contracts.hpp"

namespace tbr {

void LinkCodec::encode_into(const Message& msg, std::string& out) const {
  TBR_ENSURE(msg.type <= 1, "link codec has exactly two types");
  TBR_ENSURE(msg.seq >= 0, "link sequence numbers are non-negative");
  out.clear();
  out.push_back(static_cast<char>(msg.type));  // 1 meaningful bit
  wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
  if (msg.type == static_cast<std::uint8_t>(LinkType::kData)) {
    TBR_ENSURE(msg.has_value, "DATA frames carry a payload");
    wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
    out.append(msg.value.bytes());
  } else {
    TBR_ENSURE(!msg.has_value, "ACK frames carry no payload");
  }
}

void LinkCodec::decode_into(std::string_view bytes, Message& msg) const {
  wire::reset_for_decode(msg);
  std::size_t pos = 0;
  msg.type = wire::get_u8(bytes, pos);
  TBR_ENSURE(msg.type <= 1, "bad link frame type");
  msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  TBR_ENSURE(msg.seq >= 0, "link sequence numbers are non-negative");
  if (msg.type == static_cast<std::uint8_t>(LinkType::kData)) {
    const auto len = wire::get_u32(bytes, pos);
    wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
    msg.has_value = true;
  }
  TBR_ENSURE(pos == bytes.size(), "trailing bytes in link frame");
  msg.wire = account(msg);
}

WireAccounting LinkCodec::account(const Message& msg) const {
  WireAccounting wire;
  // Transport header: type bit + 64-bit sequence/ack number. The payload
  // (an encoded register-protocol frame, with its own control bits inside)
  // is counted as link data; the ReliableLinkProcess tracks the payload's
  // inner control bits separately so benches can report both layers.
  wire.control_bits = kHeaderControlBits;
  wire.data_bits = msg.has_value ? 32 + msg.value.size_bits() : 0;
  return wire;
}

std::string LinkCodec::type_name(std::uint8_t type) const {
  switch (static_cast<LinkType>(type)) {
    case LinkType::kData:
      return "LINK_DATA";
    case LinkType::kAck:
      return "LINK_ACK";
  }
  return "UNKNOWN(" + std::to_string(type) + ")";
}

const LinkCodec& link_codec() {
  static const LinkCodec codec;
  return codec;
}

}  // namespace tbr
