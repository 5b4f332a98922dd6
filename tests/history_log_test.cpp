// BoundedHistoryLog unit tests: the checkpoint-record contract, known-prefix
// reclamation, crash-rejoin resets, the packed segment layout (payloads of
// any size across segment boundaries, recycled and mid-segment segments),
// and the flat-allocation guarantee the steady-state memory gates depend on.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "common/value.hpp"
#include "core/history_log.hpp"

namespace tbr {
namespace {

std::string v(std::int64_t x) { return Value::from_int64(x).bytes(); }

std::int64_t i64(std::string_view bytes) {
  return Value::from_bytes(std::string(bytes)).to_int64();
}

// A payload of `size` bytes whose content depends on `k`, so a view that
// lands on a neighbouring slot's bytes compares unequal.
std::string sized(std::size_t size, std::int64_t k) {
  return Value::filler(size, static_cast<std::uint8_t>(k * 31 + 7)).bytes();
}

// Mixed layout: 0, 1, 8, 300 and 4096 B in turn, so empty, tiny and
// multi-KiB payloads sit on both sides of every segment boundary.
std::string mixed(std::int64_t k) {
  static constexpr std::size_t kSizes[] = {0, 1, 8, 300, 4096};
  return sized(kSizes[static_cast<std::size_t>(k) % 5], k);
}

TEST(HistoryLog, StartsAsGenesisCheckpoint) {
  BoundedHistoryLog log(v(7));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.has(0));
  EXPECT_FALSE(log.has(1));
  EXPECT_EQ(i64(log.at(0)), 7);
  EXPECT_EQ(i64(log.checkpoint_value()), 7);
}

TEST(HistoryLog, AppendExtendsTheRetainedRange) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 40; ++k) log.append(v(k));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 40);
  EXPECT_EQ(log.size(), 41u);
  for (SeqNo idx = 0; idx <= 40; ++idx) {
    ASSERT_TRUE(log.has(idx));
    EXPECT_EQ(i64(log.at(idx)), idx);
  }
  EXPECT_FALSE(log.has(41));

  // The same range with mixed payload sizes across three segments.
  BoundedHistoryLog packed(mixed(0));
  std::uint64_t bytes = mixed(0).size();
  for (std::int64_t k = 1; k <= 40; ++k) {
    packed.append(mixed(k));
    bytes += mixed(k).size();
  }
  EXPECT_EQ(packed.head(), 40);
  EXPECT_EQ(packed.payload_bytes(), bytes);
  for (SeqNo idx = 0; idx <= 40; ++idx) {
    EXPECT_EQ(packed.at(idx), mixed(idx)) << "at index " << idx;
  }
}

TEST(HistoryLog, AdvanceCheckpointReclaimsThePrefix) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 20; ++k) log.append(v(k));

  EXPECT_EQ(log.advance_checkpoint(15), 15u);
  EXPECT_EQ(log.base(), 15);
  EXPECT_EQ(log.head(), 20);
  EXPECT_EQ(log.size(), 6u);
  // The checkpoint record supersedes the reclaimed prefix: entry 15 is now
  // the (index, value) pair a rejoiner would bootstrap from.
  EXPECT_EQ(i64(log.checkpoint_value()), 15);
  EXPECT_FALSE(log.has(14));
  for (SeqNo idx = 15; idx <= 20; ++idx) {
    EXPECT_EQ(i64(log.at(idx)), idx);
  }

  // Idempotent at the current base; can go all the way to the head.
  EXPECT_EQ(log.advance_checkpoint(15), 0u);
  EXPECT_EQ(log.advance_checkpoint(20), 5u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(i64(log.checkpoint_value()), 20);
}

TEST(HistoryLog, AdvanceCheckpointEnforcesItsBounds) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 5; ++k) log.append(v(k));
  ASSERT_EQ(log.advance_checkpoint(3), 3u);
  EXPECT_THROW((void)log.advance_checkpoint(2), ContractViolation);  // < base
  EXPECT_THROW((void)log.advance_checkpoint(6), ContractViolation);  // > head
  EXPECT_THROW((void)log.at(2), ContractViolation);                  // evicted
}

TEST(HistoryLog, EvictFrontDropsExactlyOneEntry) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 3; ++k) log.append(v(k));
  log.evict_front();
  log.evict_front();
  EXPECT_EQ(log.base(), 2);
  EXPECT_EQ(log.head(), 3);
  EXPECT_EQ(log.size(), 2u);
}

TEST(HistoryLog, ResetToCheckpointRestartsTheLog) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 10; ++k) log.append(v(k));

  log.reset_to_checkpoint(100, v(100));
  EXPECT_EQ(log.base(), 100);
  EXPECT_EQ(log.head(), 100);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_FALSE(log.has(99));
  EXPECT_EQ(i64(log.checkpoint_value()), 100);

  // Appends continue from the adopted index.
  log.append(v(101));
  EXPECT_EQ(log.head(), 101);
  EXPECT_EQ(i64(log.at(101)), 101);

  // A second reset lands in the middle of a segment (200 = 12 * 16 + 8)
  // with a payload of a new size, on a recycled segment; appends then
  // cross into the next segment with mixed sizes.
  log.reset_to_checkpoint(200, sized(300, 200));
  EXPECT_EQ(log.checkpoint_value(), sized(300, 200));
  EXPECT_EQ(log.payload_bytes(), 300u);
  for (std::int64_t k = 201; k <= 220; ++k) log.append(mixed(k));
  EXPECT_EQ(log.base(), 200);
  EXPECT_EQ(log.head(), 220);
  EXPECT_EQ(log.at(200), sized(300, 200));
  std::uint64_t bytes = 300;
  for (SeqNo idx = 201; idx <= 220; ++idx) {
    EXPECT_EQ(log.at(idx), mixed(idx)) << "at index " << idx;
    bytes += mixed(idx).size();
  }
  EXPECT_EQ(log.payload_bytes(), bytes);
}

TEST(HistoryLog, SlidingWindowRecyclesSegmentsWithoutGrowth) {
  // A bounded-mode steady state: append one, reclaim down to a fixed lag.
  // After warmup, both the segment count and the accounted bytes must be
  // exactly flat — this is the property the CI memory gates lean on.
  constexpr SeqNo kLag = 8;
  BoundedHistoryLog log(v(0));
  std::size_t warm_segments = 0;
  std::uint64_t warm_bytes = 0;
  for (std::int64_t k = 1; k <= 2000; ++k) {
    log.append(v(k));
    if (log.head() - kLag > log.base()) {
      (void)log.advance_checkpoint(log.head() - kLag);
    }
    if (k == 200) {
      warm_segments = log.allocated_segments();
      warm_bytes = log.memory_bytes();
    }
    if (k > 200) {
      EXPECT_EQ(log.allocated_segments(), warm_segments) << "at append " << k;
      EXPECT_EQ(log.memory_bytes(), warm_bytes) << "at append " << k;
    }
  }
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kLag) + 1u);
  EXPECT_EQ(log.head(), 2000);

  // Recycled segments refilled with payloads larger than in their first
  // life (8 B): the buffers grow, the segment count does not.
  for (std::int64_t k = 2001; k <= 2100; ++k) {
    log.append(k <= 2050 ? sized(300, k) : sized(4096, k));
    (void)log.advance_checkpoint(log.head() - kLag);
    for (SeqNo idx = log.base(); idx <= log.head(); ++idx) {
      const std::string want =
          idx <= 2000 ? v(idx) : sized(idx <= 2050 ? 300 : 4096, idx);
      ASSERT_EQ(log.at(idx), want) << "at index " << idx << ", append " << k;
    }
    EXPECT_EQ(log.allocated_segments(), warm_segments) << "at append " << k;
  }
  EXPECT_EQ(log.payload_bytes(), 4096u * (static_cast<std::size_t>(kLag) + 1));
}

}  // namespace
}  // namespace tbr
