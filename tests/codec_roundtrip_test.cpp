// Codec round-trip property tests over randomized Message fields.
//
// decode(encode(m)) must reproduce every field the codec carries, for any
// well-formed message — the buffer-pooled runtimes now encode into recycled
// strings of arbitrary prior content, so "encode_into fully determines the
// wire bytes" is load-bearing, not cosmetic. Each codec is additionally
// exercised through one deliberately dirty reused buffer to pin exactly
// that property, and through its truncation contract (every prefix of a
// valid frame must throw, never misparse).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "abd/phased_codec.hpp"
#include "abd/specs.hpp"
#include "common/rng.hpp"
#include "core/twobit_codec.hpp"

namespace tbr {
namespace {

Value random_value(Rng& rng) {
  switch (rng.uniform(0, 3)) {
    case 0:
      return Value();
    case 1:
      return Value::from_int64(rng.uniform(-1'000'000, 1'000'000));
    case 2:
      return Value::from_string("v" + std::to_string(rng.uniform(0, 999)));
    default:
      return Value::filler(static_cast<std::size_t>(rng.uniform(0, 2048)),
                           static_cast<std::uint8_t>(rng.uniform(0, 255)));
  }
}

void expect_roundtrip(const Codec& codec, const Message& msg,
                      std::string& reused_buffer) {
  // encode_into must fully determine the bytes regardless of what the
  // recycled buffer held before.
  codec.encode_into(msg, reused_buffer);
  const std::string fresh = codec.encode(msg);
  EXPECT_EQ(reused_buffer, fresh)
      << "encode_into must clear and overwrite the reused buffer";

  const Message back = codec.decode(reused_buffer);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_EQ(back.aux, msg.aux);
  EXPECT_EQ(back.has_value, msg.has_value);
  if (msg.has_value) {
    EXPECT_EQ(back.value, msg.value);
  }

  // Truncation contract: no prefix may parse.
  for (std::size_t cut = 0; cut < reused_buffer.size(); ++cut) {
    EXPECT_THROW((void)codec.decode(
                     std::string_view(reused_buffer).substr(0, cut)),
                 ContractViolation)
        << "prefix of length " << cut << " must not parse";
  }
}

std::string dirty_buffer() { return std::string(512, '\xEE'); }

TEST(CodecRoundtrip, TwoBitRandomized) {
  Rng rng(2024);
  const TwoBitCodec& codec = twobit_codec();
  std::string buf = dirty_buffer();
  for (int iter = 0; iter < 400; ++iter) {
    Message msg;
    msg.type = static_cast<std::uint8_t>(rng.uniform(0, 3));
    // WRITE0/WRITE1 carry a value; READ/PROCEED must not.
    const bool is_write = msg.type <= 1;
    msg.has_value = is_write;
    if (is_write) msg.value = random_value(rng);
    expect_roundtrip(codec, msg, buf);
  }
}

TEST(CodecRoundtrip, PhasedAbdRandomized) {
  // Every spec the phased engine runs. The truncation contract decodes
  // every prefix of a frame, and a bounded spec's label blob is n^5 (ABD
  // bounded) or n^3 (Attiya) bits, so the specs after the first take fewer
  // draws, and ABD bounded runs at small n.
  struct Case {
    const PhasedSpec& spec;
    std::vector<std::uint32_t> ns;
    int iters;
  };
  const Case cases[] = {{abd_unbounded_spec(), {3, 5, 9}, 150},
                        {abd_regular_spec(), {3, 5, 9}, 20},
                        {abd_bounded_spec(), {3, 4}, 20},
                        {attiya_spec(), {3, 5, 9}, 20}};
  Rng rng(2025);
  std::string buf = dirty_buffer();
  for (const Case& c : cases) {
    for (const std::uint32_t n : c.ns) {
      SCOPED_TRACE(c.spec.name + " n=" + std::to_string(n));
      const PhasedCodec codec(c.spec, n);
      for (int iter = 0; iter < c.iters; ++iter) {
        Message msg;
        msg.type = static_cast<std::uint8_t>(rng.uniform(0, 3));
        msg.seq = rng.uniform(0, 1'000'000);
        msg.aux = rng.uniform(0, 1'000'000);
        msg.has_value = rng.chance(0.5);
        if (msg.has_value) msg.value = random_value(rng);
        expect_roundtrip(codec, msg, buf);
      }
    }
  }
}

}  // namespace
}  // namespace tbr
