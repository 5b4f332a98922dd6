#include "core/twobit_codec.hpp"

#include "common/contracts.hpp"

namespace tbr {

namespace {
bool is_write_type(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(TwoBitType::kWrite0) ||
         type == static_cast<std::uint8_t>(TwoBitType::kWrite1);
}
bool carries_index(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(TwoBitType::kAck) ||
         type == static_cast<std::uint8_t>(TwoBitType::kCheckpoint);
}
}  // namespace

void TwoBitCodec::encode_into(const Message& msg, std::string& out) const {
  TBR_ENSURE(msg.type <= 6, "bad two-bit frame type");
  TBR_ENSURE(msg.aux == 0, "two-bit frames carry no aux field");
  out.clear();
  out.push_back(static_cast<char>(msg.type));  // 2 meaningful bits
  if (is_write_type(msg.type)) {
    TBR_ENSURE(msg.seq == 0,
               "two-bit frames carry no sequence numbers — that is the point");
    TBR_ENSURE(msg.has_value, "WRITE frames carry the written value");
    wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
    out.append(msg.value.bytes());
    return;
  }
  if (carries_index(msg.type)) {
    wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
    if (msg.type == static_cast<std::uint8_t>(TwoBitType::kCheckpoint)) {
      TBR_ENSURE(msg.has_value, "CHECKPOINT frames carry the checkpoint value");
      wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
      out.append(msg.value.bytes());
    } else {
      TBR_ENSURE(!msg.has_value, "ACK frames carry no value");
    }
    return;
  }
  // READ / PROCEED / CATCHUP: bare type byte.
  TBR_ENSURE(msg.seq == 0,
             "two-bit frames carry no sequence numbers — that is the point");
  TBR_ENSURE(!msg.has_value, "READ/PROCEED/CATCHUP frames carry no value");
}

void TwoBitCodec::decode_into(std::string_view bytes, Message& msg) const {
  wire::reset_for_decode(msg);
  std::size_t pos = 0;
  msg.type = wire::get_u8(bytes, pos);
  TBR_ENSURE(msg.type <= 6, "bad two-bit frame type");
  if (is_write_type(msg.type)) {
    const auto len = wire::get_u32(bytes, pos);
    wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
    msg.has_value = true;
  } else if (carries_index(msg.type)) {
    msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
    if (msg.type == static_cast<std::uint8_t>(TwoBitType::kCheckpoint)) {
      const auto len = wire::get_u32(bytes, pos);
      wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
      msg.has_value = true;
    }
  }
  TBR_ENSURE(pos == bytes.size(), "trailing bytes in two-bit frame");
  msg.wire = account(msg);
}

WireAccounting TwoBitCodec::account(const Message& msg) const {
  WireAccounting wire;
  wire.control_bits = kControlBitsPerMessage;
  if (carries_index(msg.type)) wire.control_bits += kIndexBits;
  wire.data_bits = msg.has_value ? 32 + msg.value.size_bits() : 0;
  return wire;
}

std::size_t TwoBitCodec::value_frame_overhead() const {
  return 1 + 8 + 4;  // CHECKPOINT: type, index, value length
}

std::string TwoBitCodec::type_name(std::uint8_t type) const {
  switch (static_cast<TwoBitType>(type)) {
    case TwoBitType::kWrite0:
      return "WRITE0";
    case TwoBitType::kWrite1:
      return "WRITE1";
    case TwoBitType::kRead:
      return "READ";
    case TwoBitType::kProceed:
      return "PROCEED";
    case TwoBitType::kAck:
      return "ACK";
    case TwoBitType::kCheckpoint:
      return "CHECKPOINT";
    case TwoBitType::kCatchUp:
      return "CATCHUP";
  }
  return "UNKNOWN(" + std::to_string(type) + ")";
}

const TwoBitCodec& twobit_codec() {
  static const TwoBitCodec codec;
  return codec;
}

}  // namespace tbr
