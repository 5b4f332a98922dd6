// Cross-validation against the exhaustive Wing-Gong oracle. On thousands of
// randomly generated small single-writer histories the fast SwmrChecker must
// agree with it exactly; generated histories deliberately include legal and
// illegal ones: reads are given indices from a window around plausibility so
// both verdicts occur. MwmrChecker is checked on the multi-writer histories
// of KV registers, and on seeded mutations of them.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "checker/mwmr_checker.hpp"
#include "checker/swmr_checker.hpp"
#include "checker/wg_checker.hpp"
#include "common/rng.hpp"
#include "workload/sharded_workload.hpp"

namespace tbr {
namespace {

const Value kInit = Value::from_int64(0);

struct GeneratedHistory {
  std::vector<OpRecord> ops;
};

// Generate a random single-writer history: the writer performs sequential
// writes 1..W; readers perform reads whose intervals land anywhere and whose
// reported indices are sampled from [0, W] (sometimes deliberately wrong).
GeneratedHistory generate(Rng& rng) {
  HistoryLog log;
  const int writes = static_cast<int>(rng.uniform(0, 4));
  const int readers = static_cast<int>(rng.uniform(1, 3));
  const int reads_per_reader = static_cast<int>(rng.uniform(1, 3));

  Tick t = 0;
  struct WriteSpan {
    Tick start, end;
  };
  std::vector<WriteSpan> spans;
  for (int k = 1; k <= writes; ++k) {
    const Tick start = t + rng.uniform(1, 20);
    const Tick end = start + rng.uniform(1, 40);
    spans.push_back({start, end});
    t = end;
  }
  const bool last_incomplete = writes > 0 && rng.chance(0.3);

  // Writer ops must be recorded in start order mixed with reader ops in any
  // order; HistoryLog orders are assigned at record time, so record
  // everything in global time order of their begin, interleaving ends.
  // Simpler: record writes first (their order fields only matter relative
  // to reads via tick comparison — but Stamp.order embeds record order!).
  // To keep order consistent with ticks, collect all begin/end events and
  // record them sorted by tick.
  struct Ev {
    Tick at;
    int kind;  // 0 = write begin, 1 = write end, 2 = read begin, 3 = read end
    int idx;   // write number or read slot
  };
  std::vector<Ev> events;
  for (int k = 0; k < writes; ++k) {
    events.push_back({spans[static_cast<size_t>(k)].start, 0, k});
    if (!(last_incomplete && k == writes - 1)) {
      events.push_back({spans[static_cast<size_t>(k)].end, 1, k});
    }
  }
  struct ReadSpec {
    ProcessId proc;
    Tick start, end;
    SeqNo index;
    bool complete;
  };
  std::vector<ReadSpec> readspecs;
  const Tick horizon = t + 50;
  for (int r = 0; r < readers; ++r) {
    Tick rt = rng.uniform(0, 15);
    for (int q = 0; q < reads_per_reader; ++q) {
      ReadSpec spec;
      spec.proc = static_cast<ProcessId>(r + 1);
      spec.start = rt + rng.uniform(0, 25);
      spec.end = spec.start + rng.uniform(1, 45);
      spec.index = rng.uniform(0, writes);  // any index, maybe illegal
      spec.complete = rng.chance(0.9);
      if (spec.end > horizon) spec.complete = false;
      readspecs.push_back(spec);
      rt = spec.end + rng.uniform(1, 10);
      if (!spec.complete) break;  // a crashed reader stops
    }
  }
  int slot = 0;
  for (const auto& spec : readspecs) {
    events.push_back({spec.start, 2, slot});
    if (spec.complete) events.push_back({spec.end, 3, slot});
    ++slot;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Ev& a, const Ev& b) { return a.at < b.at; });

  std::vector<HistoryLog::OpId> write_ids(static_cast<size_t>(writes));
  std::vector<HistoryLog::OpId> read_ids(readspecs.size());
  for (const auto& ev : events) {
    switch (ev.kind) {
      case 0:
        write_ids[static_cast<size_t>(ev.idx)] = log.begin_write(
            0, ev.at, ev.idx + 1, Value::from_int64(ev.idx + 1));
        break;
      case 1:
        log.end_write(write_ids[static_cast<size_t>(ev.idx)], ev.at);
        break;
      case 2:
        read_ids[static_cast<size_t>(ev.idx)] =
            log.begin_read(readspecs[static_cast<size_t>(ev.idx)].proc, ev.at);
        break;
      case 3: {
        const auto& spec = readspecs[static_cast<size_t>(ev.idx)];
        log.end_read(read_ids[static_cast<size_t>(ev.idx)], ev.at,
                     spec.index == 0 ? kInit : Value::from_int64(spec.index),
                     spec.index);
        break;
      }
      default:
        break;
    }
  }
  return {log.ops()};
}

class CheckerCrossValidation : public testing::TestWithParam<std::uint64_t> {
};

TEST_P(CheckerCrossValidation, FastCheckerAgreesWithWingGong) {
  Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto hist = generate(rng);
    if (hist.ops.size() > 20) continue;
    const bool fast_ok = SwmrChecker::check(hist.ops, kInit).ok;
    const bool wg_ok = wg_linearizable(hist.ops, kInit);
    EXPECT_EQ(fast_ok, wg_ok) << "disagreement on trial " << trial << " ("
                              << hist.ops.size() << " ops)";
    fast_ok ? ++accepted : ++rejected;
  }
  // The generator must produce a meaningful mix of verdicts.
  EXPECT_GT(accepted, 20);
  EXPECT_GT(rejected, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckerCrossValidation,
                         testing::Range<std::uint64_t>(0, 10));

// ---- multi-writer: KV register histories ---------------------------------------
//
// A KV register is one (shard, slot); its home replica turns the puts of
// many clients into versions 1..W. Each case projects a tiny store in
// virtual time with write coalescing off, so every put is one protocol write
// and each history goes to both checkers exactly as recorded, at most 20 ops
// so Wing-Gong stays exhaustive. MwmrChecker is sufficient for
// linearizability but not necessary: it also demands that versions follow
// real time, which holds for this register but not for every linearizable
// history. So on mutated histories the test asserts an implication, not
// agreement.

bool overlap(const OpRecord& a, const OpRecord& b) {
  return a.start < b.end && b.start < a.end;
}

class MwmrWgCrossval : public testing::TestWithParam<std::uint64_t> {};

TEST_P(MwmrWgCrossval, KvRegisterHistoriesAgreeWithWingGong) {
  ShardedKvStore::Options store;
  store.shards = 1;
  store.n = 3;
  store.t = 1;
  store.slots_per_shard = 4;
  store.seed = GetParam();
  store.coalesce_writes = false;
  KvOpMix mix;
  mix.keys = 3;
  mix.zipf_s = 0;
  mix.read_fraction = 0.5;
  mix.total_ops = 24;
  const CapacityProjection run =
      project_sharded_capacity(store, mix, /*inter_arrival=*/300);
  ASSERT_FALSE(run.registers.empty());

  Rng rng(GetParam() ^ 0x3A7A7E);
  int with_overlapping_puts = 0;
  int mutants_wg_rejects = 0;
  for (const KvRegisterHistory& reg : run.registers) {
    SCOPED_TRACE("slot " + std::to_string(reg.slot));
    const std::vector<OpRecord>& ops = reg.ops;
    ASSERT_LE(ops.size(), 20u);
    ASSERT_TRUE(reg.absorbed.empty());

    const CheckResult fast = MwmrChecker::check(ops, run.initial);
    EXPECT_TRUE(fast.ok) << fast.error;
    EXPECT_TRUE(wg_linearizable(ops, run.initial));

    std::vector<const OpRecord*> puts;
    for (const OpRecord& op : ops) {
      if (op.kind == OpRecord::Kind::kWrite && op.completed) {
        puts.push_back(&op);
      }
    }
    bool overlapping = false;
    for (std::size_t i = 0; i < puts.size(); ++i) {
      for (std::size_t j = i + 1; j < puts.size(); ++j) {
        overlapping = overlapping || overlap(*puts[i], *puts[j]);
      }
    }
    if (overlapping) ++with_overlapping_puts;

    // Mutants: move each completed read, one at a time, to another
    // completed put's (version, value) or to (0, initial), drawn by seed.
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const OpRecord& read = ops[k];
      if (read.kind != OpRecord::Kind::kRead || !read.completed) continue;
      std::vector<std::pair<SeqNo, Value>> targets;
      if (read.index != 0) targets.emplace_back(0, run.initial);
      for (const OpRecord* put : puts) {
        if (put->index != read.index) {
          targets.emplace_back(put->index, put->value);
        }
      }
      if (targets.empty()) continue;
      std::vector<OpRecord> mutant = ops;
      std::tie(mutant[k].index, mutant[k].value) =
          targets[static_cast<std::size_t>(rng.uniform(
              0, static_cast<std::int64_t>(targets.size()) - 1))];
      const bool wg_ok = wg_linearizable(mutant, run.initial);
      const CheckResult fast_mutant = MwmrChecker::check(mutant, run.initial);
      EXPECT_TRUE(wg_ok || !fast_mutant.ok)
          << "MwmrChecker accepts a history Wing-Gong rejects: op " << k
          << " moved to version " << mutant[k].index;
      if (!wg_ok) ++mutants_wg_rejects;
    }
  }
  EXPECT_GE(with_overlapping_puts, 1);
  EXPECT_GT(mutants_wg_rejects, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MwmrWgCrossval,
                         testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace tbr
