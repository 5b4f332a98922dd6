#include "fastread/fastread_codec.hpp"

#include "common/contracts.hpp"

namespace tbr {

// ---- Oh-RAM codec -----------------------------------------------------------
//
// | type | name          | layout                                        |
// |------|---------------|-----------------------------------------------|
// | 0    | WRITE         | u8 | u64 seq | u32 len | value[len]           |
// | 1    | WRITE_ACK     | u8 | u64 seq                                  |
// | 2    | READ          | u8 | u64 aux | u64 seq | u32 len | value[len] |
// | 3    | RELAY         | u8 | u64 aux | u64 seq | u32 len | value[len] |
// | 4    | READ_ACK      | u8 | u64 aux | u64 seq | u32 len | value[len] |
// | 5    | WRITE_BACK    | u8 | u64 aux | u64 seq | u32 len | value[len] |
// | 6    | WRITE_BACK_ACK| u8 | u64 aux                                  |
//
// aux is the read tag; RELAY packs the reader id into its low byte
// (tag << 8 | reader), which is why groups are capped at 256 processes.

namespace {

bool ohram_carries_tag(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(OhRamType::kRead);
}

bool ohram_carries_state(std::uint8_t type) {
  return type != static_cast<std::uint8_t>(OhRamType::kWriteAck) &&
         type != static_cast<std::uint8_t>(OhRamType::kWriteBackAck);
}

}  // namespace

void OhRamCodec::encode_into(const Message& msg, std::string& out) const {
  TBR_ENSURE(msg.type <= 6, "bad ohram frame type");
  out.clear();
  out.push_back(static_cast<char>(msg.type));
  if (ohram_carries_tag(msg.type)) {
    wire::put_u64(out, static_cast<std::uint64_t>(msg.aux));
  } else {
    TBR_ENSURE(msg.aux == 0, "write-path ohram frames carry no read tag");
  }
  if (ohram_carries_state(msg.type)) {
    wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
    TBR_ENSURE(msg.has_value, "state-carrying ohram frames carry the value");
    wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
    out.append(msg.value.bytes());
  } else if (msg.type == static_cast<std::uint8_t>(OhRamType::kWriteAck)) {
    wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
    TBR_ENSURE(!msg.has_value, "ack frames carry no value");
  } else {
    TBR_ENSURE(msg.seq == 0 && !msg.has_value,
               "WRITE_BACK_ACK is tag-only");
  }
}

void OhRamCodec::decode_into(std::string_view bytes, Message& msg) const {
  wire::reset_for_decode(msg);
  std::size_t pos = 0;
  msg.type = wire::get_u8(bytes, pos);
  TBR_ENSURE(msg.type <= 6, "bad ohram frame type");
  if (ohram_carries_tag(msg.type)) {
    msg.aux = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  }
  if (ohram_carries_state(msg.type)) {
    msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
    const auto len = wire::get_u32(bytes, pos);
    wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
    msg.has_value = true;
  } else if (msg.type == static_cast<std::uint8_t>(OhRamType::kWriteAck)) {
    msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  }
  TBR_ENSURE(pos == bytes.size(), "trailing bytes in ohram frame");
  msg.wire = account(msg);
}

WireAccounting OhRamCodec::account(const Message& msg) const {
  WireAccounting wire;
  wire.control_bits = kTypeBits;
  if (ohram_carries_tag(msg.type)) wire.control_bits += kTagBits;
  if (ohram_carries_state(msg.type) ||
      msg.type == static_cast<std::uint8_t>(OhRamType::kWriteAck)) {
    wire.control_bits += kSeqBits;
  }
  wire.data_bits = msg.has_value ? 32 + msg.value.size_bits() : 0;
  return wire;
}

std::size_t OhRamCodec::value_frame_overhead() const {
  return 1 + 8 + 8 + 4;  // read-path state: type, tag, seq, value length
}

std::string OhRamCodec::type_name(std::uint8_t type) const {
  switch (static_cast<OhRamType>(type)) {
    case OhRamType::kWrite:
      return "WRITE";
    case OhRamType::kWriteAck:
      return "WRITE_ACK";
    case OhRamType::kRead:
      return "READ";
    case OhRamType::kRelay:
      return "RELAY";
    case OhRamType::kReadAck:
      return "READ_ACK";
    case OhRamType::kWriteBack:
      return "WRITE_BACK";
    case OhRamType::kWriteBackAck:
      return "WRITE_BACK_ACK";
  }
  return "UNKNOWN(" + std::to_string(type) + ")";
}

const OhRamCodec& ohram_codec() {
  static const OhRamCodec codec;
  return codec;
}

// ---- Time-efficient codec ---------------------------------------------------
//
// | type | name  | layout                                        |
// |------|-------|-----------------------------------------------|
// | 0    | ECHO  | u8 | u64 seq | u32 len | value[len]           |
// | 1    | READ  | u8 | u64 aux                                  |
// | 2    | STATE | u8 | u64 aux | u64 seq | u32 len | value[len] |
//
// There is no separate write frame: a write is the writer's ECHO of a
// fresh sequence number, and every adopt triggers at most one echo per
// sn — the reliable-broadcast step that makes storage public.

void TimeEfficientCodec::encode_into(const Message& msg,
                                     std::string& out) const {
  TBR_ENSURE(msg.type <= 2, "bad timeeff frame type");
  out.clear();
  out.push_back(static_cast<char>(msg.type));
  switch (static_cast<TimeEffType>(msg.type)) {
    case TimeEffType::kEcho:
      TBR_ENSURE(msg.aux == 0, "ECHO frames carry no read tag");
      wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
      break;
    case TimeEffType::kRead:
      TBR_ENSURE(msg.seq == 0 && !msg.has_value, "READ is tag-only");
      wire::put_u64(out, static_cast<std::uint64_t>(msg.aux));
      return;
    case TimeEffType::kState:
      wire::put_u64(out, static_cast<std::uint64_t>(msg.aux));
      wire::put_u64(out, static_cast<std::uint64_t>(msg.seq));
      break;
  }
  TBR_ENSURE(msg.has_value, "ECHO/STATE frames carry the value");
  wire::put_u32(out, static_cast<std::uint32_t>(msg.value.size()));
  out.append(msg.value.bytes());
}

void TimeEfficientCodec::decode_into(std::string_view bytes,
                                     Message& msg) const {
  wire::reset_for_decode(msg);
  std::size_t pos = 0;
  msg.type = wire::get_u8(bytes, pos);
  TBR_ENSURE(msg.type <= 2, "bad timeeff frame type");
  if (msg.type != static_cast<std::uint8_t>(TimeEffType::kEcho)) {
    msg.aux = static_cast<SeqNo>(wire::get_u64(bytes, pos));
  }
  if (msg.type != static_cast<std::uint8_t>(TimeEffType::kRead)) {
    msg.seq = static_cast<SeqNo>(wire::get_u64(bytes, pos));
    const auto len = wire::get_u32(bytes, pos);
    wire::get_blob_into(bytes, pos, len, msg.value.mutable_bytes());
    msg.has_value = true;
  }
  TBR_ENSURE(pos == bytes.size(), "trailing bytes in timeeff frame");
  msg.wire = account(msg);
}

WireAccounting TimeEfficientCodec::account(const Message& msg) const {
  WireAccounting wire;
  wire.control_bits = kTypeBits + kSeqBits;  // every frame has one u64 field
  if (msg.type == static_cast<std::uint8_t>(TimeEffType::kState)) {
    wire.control_bits += kTagBits;  // STATE carries both tag and sn
  }
  wire.data_bits = msg.has_value ? 32 + msg.value.size_bits() : 0;
  return wire;
}

std::size_t TimeEfficientCodec::value_frame_overhead() const {
  return 1 + 8 + 8 + 4;  // STATE: type, tag, seq, value length
}

std::string TimeEfficientCodec::type_name(std::uint8_t type) const {
  switch (static_cast<TimeEffType>(type)) {
    case TimeEffType::kEcho:
      return "ECHO";
    case TimeEffType::kRead:
      return "READ";
    case TimeEffType::kState:
      return "STATE";
  }
  return "UNKNOWN(" + std::to_string(type) + ")";
}

const TimeEfficientCodec& time_efficient_codec() {
  static const TimeEfficientCodec codec;
  return codec;
}

}  // namespace tbr
