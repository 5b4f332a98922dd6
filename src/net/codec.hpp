// Codec: what an algorithm's frames look like on a byte-oriented wire and
// how many *control bits* they carry (the quantity Table 1 line 3 compares).
//
// Accounting convention (matches the paper's): the register value itself and
// its length framing are data-plane bytes; everything an implementation adds
// to coordinate — type tags, sequence numbers, bounded labels — is control.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "net/message.hpp"

namespace tbr {

class Codec {
 public:
  virtual ~Codec() = default;
  Codec() = default;
  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  /// Serialize to wire bytes, appending into `out` after clearing it. The
  /// buffer-pooled runtimes pass recycled strings whose capacity survives
  /// across frames, making steady-state encoding allocation-free.
  virtual void encode_into(const Message& msg, std::string& out) const = 0;

  /// Serialize to a fresh string (convenience over encode_into).
  std::string encode(const Message& msg) const {
    std::string out;
    encode_into(msg, out);
    return out;
  }

  /// Parse wire bytes into a caller-owned Message, the decode-side mirror
  /// of encode_into: every field is reset/overwritten, and the payload is
  /// assigned into `out.value`'s existing buffer — a recycled scratch
  /// Message makes steady-state decoding of large payloads allocation-free
  /// (the threaded receive path and the mux slot demultiplexer do this).
  /// Throws ContractViolation on malformed input; `out` may hold a partial
  /// decode afterwards, callers must not use it.
  virtual void decode_into(std::string_view bytes, Message& out) const = 0;

  /// Parse wire bytes into a fresh Message (convenience over decode_into).
  /// Inverse of encode for all fields the codec carries.
  Message decode(std::string_view bytes) const {
    Message out;
    decode_into(bytes, out);
    return out;
  }

  /// Control/data bit accounting for this frame.
  virtual WireAccounting account(const Message& msg) const = 0;

  /// The most bytes any frame adds around the one value it carries (type
  /// tag, counters, value length, label blob): a frame carrying a v-byte
  /// value encodes to at most v + value_frame_overhead() bytes. The socket
  /// engine sizes its largest write from it.
  virtual std::size_t value_frame_overhead() const = 0;

  /// Human-readable name of a type id ("WRITE0", "ACK_W", ...).
  virtual std::string type_name(std::uint8_t type) const = 0;
};

// Shared little-endian field helpers for codec implementations.
namespace wire {

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Bounds-checked reads; throw ContractViolation when truncated.
std::uint32_t get_u32(std::string_view bytes, std::size_t& pos);
std::uint64_t get_u64(std::string_view bytes, std::size_t& pos);
std::uint8_t get_u8(std::string_view bytes, std::size_t& pos);
std::string get_blob(std::string_view bytes, std::size_t& pos,
                     std::size_t len);
/// Bounds-checked blob read into a caller-owned buffer (assign reuses its
/// capacity — the decode_into hot path).
void get_blob_into(std::string_view bytes, std::size_t& pos, std::size_t len,
                   std::string& out);
/// Bounds-check and skip `len` blob bytes without materializing a string
/// (for fields whose content is modeled but never read, e.g. the phased
/// codec's bounded-label padding).
void skip_blob(std::string_view bytes, std::size_t& pos, std::size_t len);

/// Reset a scratch Message for decode_into: every field back to its
/// default, keeping the value buffer's capacity.
void reset_for_decode(Message& msg);

}  // namespace wire

}  // namespace tbr
