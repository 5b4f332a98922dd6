// BoundedHistoryLog unit tests: the checkpoint-record contract, known-prefix
// reclamation, crash-rejoin resets, and the flat-allocation guarantee the
// steady-state memory gates depend on.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "core/history_log.hpp"

namespace tbr {
namespace {

Value v(std::int64_t x) { return Value::from_int64(x); }

TEST(HistoryLog, StartsAsGenesisCheckpoint) {
  BoundedHistoryLog log(v(7));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.has(0));
  EXPECT_FALSE(log.has(1));
  EXPECT_EQ(log.at(0).to_int64(), 7);
  EXPECT_EQ(log.checkpoint_value().to_int64(), 7);
}

TEST(HistoryLog, AppendExtendsTheRetainedRange) {
  BoundedHistoryLog log(v(0));
  for (std::int64_t k = 1; k <= 40; ++k) log.append(v(k));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 40);
  EXPECT_EQ(log.size(), 41u);
  for (SeqNo idx = 0; idx <= 40; ++idx) {
    ASSERT_TRUE(log.has(idx));
    EXPECT_EQ(log.at(idx).to_int64(), idx);
  }
  EXPECT_FALSE(log.has(41));
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
  EXPECT_EQ(log.checkpoint_value().to_int64(), 15);
  EXPECT_FALSE(log.has(14));
  for (SeqNo idx = 15; idx <= 20; ++idx) {
    EXPECT_EQ(log.at(idx).to_int64(), idx);
  }

  // Idempotent at the current base; can go all the way to the head.
  EXPECT_EQ(log.advance_checkpoint(15), 0u);
  EXPECT_EQ(log.advance_checkpoint(20), 5u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.checkpoint_value().to_int64(), 20);
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
  EXPECT_EQ(log.checkpoint_value().to_int64(), 100);

  // Appends continue from the adopted index.
  log.append(v(101));
  EXPECT_EQ(log.head(), 101);
  EXPECT_EQ(log.at(101).to_int64(), 101);
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
}

}  // namespace
}  // namespace tbr
