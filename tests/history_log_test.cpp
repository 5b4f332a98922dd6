// BoundedHistoryLog unit tests: the checkpoint-record contract, known-prefix
// reclamation, crash-rejoin resets, the packed segment layouts (uniform
// segments, the switch to end offsets on a payload of a new size or a
// mid-segment reset, payloads of any size across segment boundaries,
// recycled segments), and the flat-allocation guarantee the steady-state
// memory gates depend on. Every HistoryLog case runs at both segment sizes
// the protocol uses: 2 entries (logs that keep a few: known-prefix GC and
// the window ablation) and 256 (logs that keep everything); one of them
// checks the log against a std::deque model over seeded random operations.
// The GcSegmentLog cases cover layouts only 2-entry segments reach: a
// segment recycled every second append, a checkpoint at a segment's second
// entry, and tiny segments holding mixed payload sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
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

// The parameter is the log's entries per segment.
class HistoryLog : public ::testing::TestWithParam<std::size_t> {
 protected:
  BoundedHistoryLog make(std::string_view initial) const {
    return BoundedHistoryLog(initial, GetParam());
  }
};

INSTANTIATE_TEST_SUITE_P(
    SegmentSizes, HistoryLog,
    ::testing::Values(BoundedHistoryLog::kGcSegmentSlots,
                      BoundedHistoryLog::kFullSegmentSlots),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "Slots" + std::to_string(info.param);
    });

TEST_P(HistoryLog, StartsAsGenesisCheckpoint) {
  BoundedHistoryLog log = make(v(7));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.has(0));
  EXPECT_FALSE(log.has(1));
  EXPECT_EQ(i64(log.at(0)), 7);
  EXPECT_EQ(i64(log.checkpoint_value()), 7);
  EXPECT_EQ(log.segment_slots(), GetParam());
}

TEST_P(HistoryLog, AppendExtendsTheRetainedRange) {
  BoundedHistoryLog log = make(v(0));
  for (std::int64_t k = 1; k <= 40; ++k) log.append(v(k));
  EXPECT_EQ(log.base(), 0);
  EXPECT_EQ(log.head(), 40);
  EXPECT_EQ(log.size(), 41u);
  for (SeqNo idx = 0; idx <= 40; ++idx) {
    ASSERT_TRUE(log.has(idx));
    EXPECT_EQ(i64(log.at(idx)), idx);
  }
  EXPECT_FALSE(log.has(41));

  // The same range with mixed payload sizes across several segments.
  BoundedHistoryLog packed = make(mixed(0));
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

TEST_P(HistoryLog, AdvanceCheckpointReclaimsThePrefix) {
  BoundedHistoryLog log = make(v(0));
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

TEST_P(HistoryLog, AdvanceCheckpointEnforcesItsBounds) {
  BoundedHistoryLog log = make(v(0));
  for (std::int64_t k = 1; k <= 5; ++k) log.append(v(k));
  ASSERT_EQ(log.advance_checkpoint(3), 3u);
  EXPECT_THROW((void)log.advance_checkpoint(2), ContractViolation);  // < base
  EXPECT_THROW((void)log.advance_checkpoint(6), ContractViolation);  // > head
  EXPECT_THROW((void)log.at(2), ContractViolation);                  // evicted
}

TEST_P(HistoryLog, EvictFrontDropsExactlyOneEntry) {
  BoundedHistoryLog log = make(v(0));
  for (std::int64_t k = 1; k <= 3; ++k) log.append(v(k));
  log.evict_front();
  log.evict_front();
  EXPECT_EQ(log.base(), 2);
  EXPECT_EQ(log.head(), 3);
  EXPECT_EQ(log.size(), 2u);
}

TEST_P(HistoryLog, ResetToCheckpointRestartsTheLog) {
  BoundedHistoryLog log = make(v(0));
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

  // A second reset, with a payload of a new size, on a recycled segment:
  // in the middle of a 256-entry one, so the segment starts with end
  // offsets, and at the start of a 2-entry one, so it starts uniform and
  // switches on the next size. Appends then add mixed sizes, across
  // segment boundaries in 2-entry segments.
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

TEST_P(HistoryLog, SlidingWindowRecyclesSegmentsWithoutGrowth) {
  // A bounded-mode steady state: append one, reclaim down to a fixed lag.
  // After warmup, both the segment count and the accounted bytes must be
  // exactly flat — this is the property the CI memory gates lean on. The
  // warmup covers two segments' worth of appends, so the second segment
  // has opened and the first has come back from the freelist.
  constexpr SeqNo kLag = 8;
  const std::int64_t warm =
      std::max<std::int64_t>(200, 2 * static_cast<std::int64_t>(GetParam()));
  BoundedHistoryLog log = make(v(0));
  std::size_t warm_segments = 0;
  std::uint64_t warm_bytes = 0;
  for (std::int64_t k = 1; k <= 2000; ++k) {
    log.append(v(k));
    if (log.head() - kLag > log.base()) {
      (void)log.advance_checkpoint(log.head() - kLag);
    }
    if (k == warm) {
      warm_segments = log.allocated_segments();
      warm_bytes = log.memory_bytes();
    }
    if (k > warm) {
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

TEST_P(HistoryLog, MatchesADequeModelUnderRandomOps) {
  // Differential test: seeded random appends, checkpoint advances,
  // evictions and resets ahead of and behind the head, against a
  // std::deque<std::string> of the retained entries. Payloads come in runs
  // of one size (0 B included) that switch at random points, so segments
  // go uniform, switch to end offsets mid-segment and come back from the
  // freelist for sizes they did not hold. Phases that rarely reclaim let
  // the log span several 256-entry segments. After every op, the retained
  // range, every retained entry and payload_bytes() match the model.
  static constexpr std::size_t kSizes[] = {0, 1, 7, 8, 64, 300};
  constexpr int kOps = 20'000;
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    auto draw = [&rng](std::uint64_t bound) { return rng() % bound; };
    std::uint64_t stamp = 0;  // makes every payload's bytes distinct
    std::size_t size = 8;
    auto next_payload = [&]() {
      if (draw(16) == 0) size = kSizes[draw(std::size(kSizes))];
      std::string p(size, '\0');
      for (std::size_t i = 0; i < size; ++i) {
        p[i] = static_cast<char>(stamp * 131 + i);
      }
      ++stamp;
      return p;
    };

    std::string initial = next_payload();
    BoundedHistoryLog log = make(initial);
    std::deque<std::string> model{std::move(initial)};
    SeqNo base = 0;
    std::uint64_t bytes = model.front().size();
    auto drop_front = [&](std::uint64_t count) {
      for (; count > 0; --count) {
        bytes -= model.front().size();
        model.pop_front();
        ++base;
      }
    };
    auto reset_to = [&](SeqNo idx) {
      std::string p = next_payload();
      log.reset_to_checkpoint(idx, p);
      model.assign(1, std::move(p));
      base = idx;
      bytes = model.front().size();
    };

    bool keep = false;  // a phase that rarely reclaims
    for (int op = 0; op < kOps; ++op) {
      if (op % 500 == 0) keep = draw(2) == 0;
      const SeqNo head = base + static_cast<SeqNo>(model.size()) - 1;
      const std::uint64_t r = draw(1000);
      if (r < (keep ? 10 : 100) && model.size() > 1) {
        const auto to = base + static_cast<SeqNo>(draw(model.size()));
        ASSERT_EQ(log.advance_checkpoint(to),
                  static_cast<std::uint64_t>(to - base));
        drop_front(static_cast<std::uint64_t>(to - base));
      } else if (r >= 100 && r < (keep ? 110 : 150) && model.size() > 1) {
        log.evict_front();
        drop_front(1);
      } else if (r == 998) {
        reset_to(head + 1 + static_cast<SeqNo>(draw(600)));  // ahead
      } else if (r == 999 && head > 0) {  // behind, maybe below the base
        reset_to(static_cast<SeqNo>(draw(static_cast<std::uint64_t>(head))));
      } else {
        std::string p = next_payload();
        log.append(p);
        bytes += p.size();
        model.push_back(std::move(p));
      }
      ASSERT_EQ(log.base(), base) << "seed " << seed << ", op " << op;
      ASSERT_EQ(log.size(), model.size()) << "seed " << seed << ", op " << op;
      ASSERT_EQ(log.payload_bytes(), bytes) << "seed " << seed << ", op " << op;
      for (std::size_t k = 0; k < model.size(); ++k) {
        ASSERT_EQ(log.at(base + static_cast<SeqNo>(k)), model[k])
            << "seed " << seed << ", op " << op << ", index "
            << base + static_cast<SeqNo>(k);
      }
    }
  }
}

TEST(GcSegmentLog, RejectsSegmentSizesOutsidePowersOfTwoUpTo256) {
  for (const std::size_t slots : {0u, 3u, 12u, 257u, 512u}) {
    EXPECT_THROW(BoundedHistoryLog(v(0), slots), ContractViolation)
        << slots << " slots";
  }
  for (const std::size_t slots :
       {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    EXPECT_EQ(BoundedHistoryLog(v(0), slots).segment_slots(), slots);
  }
}

TEST(GcSegmentLog, GcThatRecyclesASegmentEverySecondAppend) {
  // The bounded register's steady state at its tightest: each append is
  // reclaimed by the next GC step, so the checkpoint leaves a 2-entry
  // segment on every second append and the freelist hands it straight
  // back. The segment count and the model stay flat from the start.
  BoundedHistoryLog log(v(0), BoundedHistoryLog::kGcSegmentSlots);
  std::size_t segments = 0;
  std::uint64_t model = 0;
  std::uint64_t reclaimed = 0;
  for (std::int64_t k = 1; k <= 1000; ++k) {
    log.append(v(k));
    ASSERT_EQ(i64(log.at(k - 1)), k - 1);
    ASSERT_EQ(i64(log.at(k)), k);
    reclaimed += log.advance_checkpoint(k);
    ASSERT_EQ(log.size(), 1u);
    ASSERT_EQ(i64(log.checkpoint_value()), k);
    if (k == 4) {
      segments = log.allocated_segments();
      model = log.memory_bytes();
    }
    if (k > 4) {
      EXPECT_EQ(log.allocated_segments(), segments) << "at append " << k;
      EXPECT_EQ(log.memory_bytes(), model) << "at append " << k;
    }
  }
  EXPECT_EQ(reclaimed, 1000u);
  EXPECT_EQ(segments, 2u);  // the live segment and the one just recycled
  EXPECT_EQ(log.payload_bytes(), 8u);
}

TEST(GcSegmentLog, ResetToAnOddIndexThenAppendAcrossTheBoundary) {
  // An odd checkpoint index lands on a segment's second entry, so the
  // segment starts mid-way with its first entry unused; the next append
  // opens a fresh segment. A second odd reset reuses recycled segments.
  BoundedHistoryLog log(v(0), BoundedHistoryLog::kGcSegmentSlots);
  for (std::int64_t k = 1; k <= 6; ++k) log.append(v(k));

  log.reset_to_checkpoint(101, sized(300, 101));
  EXPECT_EQ(log.base(), 101);
  EXPECT_EQ(log.head(), 101);
  EXPECT_FALSE(log.has(100));
  EXPECT_EQ(log.at(101), sized(300, 101));
  for (std::int64_t k = 102; k <= 107; ++k) log.append(sized(8, k));
  EXPECT_EQ(log.at(101), sized(300, 101));
  std::uint64_t bytes = 300;
  for (SeqNo idx = 102; idx <= 107; ++idx) {
    EXPECT_EQ(log.at(idx), sized(8, idx)) << "at index " << idx;
    bytes += 8;
  }
  EXPECT_EQ(log.payload_bytes(), bytes);

  // GC across the odd boundary: 101 leaves segment 50 (its second entry),
  // so that segment is recycled; 103 leaves segment 51.
  EXPECT_EQ(log.advance_checkpoint(104), 3u);
  EXPECT_EQ(log.at(104), sized(8, 104));
  EXPECT_EQ(log.payload_bytes(), 4u * 8u);

  log.reset_to_checkpoint(333, v(333));
  log.append(v(334));
  log.append(v(335));
  EXPECT_EQ(log.base(), 333);
  EXPECT_EQ(log.head(), 335);
  for (SeqNo idx = 333; idx <= 335; ++idx) EXPECT_EQ(i64(log.at(idx)), idx);
  EXPECT_EQ(log.payload_bytes(), 3u * 8u);
}

TEST(GcSegmentLog, MixedPayloadSizesShareTinySegments) {
  // 0-, 8- and 256-B payloads in turn, so each 2-entry segment pairs two
  // different sizes and recycled segments come back for a size they did
  // not hold before. GC keeps a lag of 3 entries.
  auto payload = [](std::int64_t k) {
    static constexpr std::size_t kSizes[] = {0, 8, 256};
    return sized(kSizes[static_cast<std::size_t>(k) % 3], k);
  };
  BoundedHistoryLog log(payload(0), BoundedHistoryLog::kGcSegmentSlots);
  for (std::int64_t k = 1; k <= 300; ++k) {
    log.append(payload(k));
    if (log.head() - 3 > log.base()) {
      (void)log.advance_checkpoint(log.head() - 3);
    }
    std::uint64_t bytes = 0;
    for (SeqNo idx = log.base(); idx <= log.head(); ++idx) {
      ASSERT_EQ(log.at(idx), payload(idx)) << "at index " << idx;
      bytes += payload(idx).size();
    }
    ASSERT_EQ(log.payload_bytes(), bytes) << "at append " << k;
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_LE(log.allocated_segments(), 4u);
}

}  // namespace
}  // namespace tbr
