// Model checker (src/modelcheck): run mechanics, bounded-exhaustive
// verification of the two-bit register on small instances, detection power
// against the ablated variants (the explorer must FIND the bugs the paper's
// waits prevent), scripted-adversary reproduction of the Claim-3 window,
// and the liveness/invariant verdict paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "checker/swmr_checker.hpp"
#include "core/twobit_codec.hpp"
#include "core/twobit_process.hpp"
#include "modelcheck/explorer.hpp"

namespace tbr {
namespace {

Scenario base(std::uint32_t n, std::uint32_t t) {
  Scenario s;
  s.cfg.n = n;
  s.cfg.t = t;
  s.cfg.writer = 0;
  s.cfg.initial = Value::from_int64(0);
  return s;
}

McOp write_op(ProcessId proc, std::int64_t v, int after = -1) {
  return McOp{McOp::Kind::kWrite, proc, Value::from_int64(v), after};
}

McOp read_op(ProcessId proc, int after = -1) {
  return McOp{McOp::Kind::kRead, proc, Value(), after};
}

// ---- McRun mechanics ---------------------------------------------------------

TEST(McRun, InitialFrontierIsOpStartsOnly) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1), read_op(1)};
  McRun run(s);
  const auto choices = run.enabled();
  ASSERT_EQ(choices.size(), 2u);  // no frames yet, both ops startable
  EXPECT_EQ(choices[0].kind, McRun::Choice::Kind::kStartOp);
  EXPECT_EQ(choices[1].kind, McRun::Choice::Kind::kStartOp);
}

TEST(McRun, WriteStartEmitsFramesToAllOthers) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  McRun run(s);
  run.apply_enabled(0);  // start the write
  EXPECT_EQ(run.in_flight_count(), 2u);  // WRITE(v1) to p1 and p2
  for (const auto& f : run.in_flight_frames()) {
    EXPECT_EQ(f.from, 0u);
    EXPECT_LE(f.type, 1u);
  }
}

TEST(McRun, PerProcessProgramOrderGatesOps) {
  auto s = base(3, 1);
  s.ops = {read_op(1), read_op(1)};  // same process: issue in order
  McRun run(s);
  auto choices = run.enabled();
  ASSERT_EQ(choices.size(), 1u) << "second op must wait for the first";
  EXPECT_EQ(choices[0].arg, 0u);
}

TEST(McRun, AfterDependencyGatesAcrossProcesses) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1), read_op(1, /*after=*/0)};
  McRun run(s);
  auto choices = run.enabled();
  ASSERT_EQ(choices.size(), 1u) << "read must wait for the write to finish";
  EXPECT_EQ(choices[0].kind, McRun::Choice::Kind::kStartOp);
  EXPECT_EQ(choices[0].arg, 0u);
}

TEST(McRun, CrashRemovesDeadLetters) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  s.max_crashes = 1;
  s.crash_candidates = {1};
  McRun run(s);
  run.apply_enabled(0);  // start write: frames to p1, p2 + crash choice
  const auto choices = run.enabled();
  ASSERT_EQ(choices.size(), 3u);
  EXPECT_EQ(choices[2].kind, McRun::Choice::Kind::kCrash);
  run.apply_enabled(2);  // crash p1
  EXPECT_EQ(run.crashes(), 1u);
  EXPECT_EQ(run.in_flight_count(), 1u) << "frame to the corpse burned";
  EXPECT_EQ(run.in_flight_frames()[0].to, 2u);
}

TEST(McRun, ScenarioValidationRejectsNonsense) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  s.ops[0].proc = 1;  // non-writer writing
  EXPECT_THROW(McRun run(s), ContractViolation);

  auto s2 = base(3, 1);
  s2.ops = {read_op(1, /*after=*/0)};  // self-dependency
  EXPECT_THROW(McRun run2(s2), ContractViolation);

  auto s3 = base(3, 1);
  s3.ops = {write_op(0, 1)};
  s3.max_crashes = 2;  // beyond t
  EXPECT_THROW(McRun run3(s3), ContractViolation);
}

// ---- bounded-exhaustive verification -------------------------------------------

TEST(McExhaustive, SingleWriteAllSchedules) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  // Theorem 2's write frame count n(n-1) = 6, plus the op start, bounds the
  // depth; every terminal schedule delivered all of them.
  EXPECT_EQ(result.max_depth_seen, 7u);
  EXPECT_GT(result.terminal_schedules, 100u);
}

TEST(McExhaustive, WriteThenReadNeverStale) {
  // Claim 2 (no overwritten reads), exhaustively: across every delivery
  // order, a read that *starts after the write completed* returns v1.
  auto s = base(3, 1);
  s.ops = {write_op(0, 1), read_op(2, /*after=*/0)};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 10'000u);
}

TEST(McExhaustive, WriteConcurrentReadIsAtomicEverySchedule) {
  // The flagship: one write racing one read at n=3 — every reachable
  // schedule (~300k terminals) checked for atomicity, liveness, and
  // Lemmas 2-5 / P1 / P2 after every single step.
  auto s = base(3, 1);
  s.ops = {write_op(0, 1), read_op(1)};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete) << "state space should fit the budget";
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 250'000u);
}

TEST(McExhaustive, WriteSurvivesAnyCrashTiming) {
  // Lemma 8 with the adversary also choosing *when* (and whether) to crash
  // one reader: the write must complete in every terminal schedule (the
  // quorum n-t = 2 never needs the victim).
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  s.max_crashes = 1;
  s.crash_candidates = {1, 2};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 500u);
}

TEST(McExhaustive, ResultIsDeterministic) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  const auto a = explore(s);
  const auto b = explore(s);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.terminal_schedules, b.terminal_schedules);
}

TEST(McExhaustive, BudgetTruncationIsReported) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1), read_op(1), read_op(2)};
  ExploreOptions opt;
  opt.max_nodes = 5'000;
  const auto result = explore(s, opt);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.nodes_visited, 5'000u);
  EXPECT_TRUE(result.ok());
}

// ---- detection power: the ablations must be caught ------------------------------

TEST(McAblation, EagerProceedBreaksClaim2Exhaustively) {
  // Remove the responder's freshness wait (Fig. 1 line 20): the explorer
  // must find C2 stale reads — and every violation must be C2, because
  // line 20 pays for exactly that claim (experiment D6's attribution).
  auto s = base(3, 1);
  s.factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions topt;
    topt.eager_proceed = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, topt);
  };
  s.ops = {write_op(0, 1), read_op(2, /*after=*/0)};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.violations_found, 0u)
      << "the ablated register has reachable stale reads; exhaustive "
         "search must find them";
  for (const auto& v : result.violations) {
    EXPECT_EQ(v.kind, McViolation::Kind::kAtomicity);
    EXPECT_NE(v.detail.find("C2"), std::string::npos) << v.detail;
  }
}

TEST(McAblation, ViolationScheduleReplays) {
  auto s = base(3, 1);
  s.factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions topt;
    topt.eager_proceed = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, topt);
  };
  s.ops = {write_op(0, 1), read_op(2, /*after=*/0)};
  const auto result = explore(s);
  ASSERT_FALSE(result.violations.empty());
  const auto& violation = result.violations.front();
  const auto run = replay(s, violation.schedule);
  ASSERT_TRUE(run->terminal());
  const auto check = SwmrChecker::check(run->records(), s.cfg.initial);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.error, violation.detail) << "replay must reproduce";
}

TEST(McAblation, WindowEvictionTripsTheInvariantVerdict) {
  // The bounded-history ablation (the paper's open problem) breaks the
  // "history length tracks w_sync" predicate as soon as eviction starts;
  // the explorer's invariant verdict must catch it and prune.
  auto s = base(3, 1);
  s.factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions topt;
    topt.history_window = 1;
    return std::make_unique<TwoBitProcess>(cfg, pid, topt);
  };
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0)};
  ExploreOptions opt;
  opt.max_nodes = 200'000;
  const auto result = explore(s, opt);
  EXPECT_GT(result.violations_found, 0u);
  bool saw_invariant = false;
  for (const auto& v : result.violations) {
    if (v.kind == McViolation::Kind::kInvariant) saw_invariant = true;
  }
  EXPECT_TRUE(saw_invariant);
}

// ---- scripted adversary: the Claim-3 window --------------------------------------

/// Apply the first enabled delivery matching (from, to, type); fails the
/// test if none matches.
void deliver(McRun& run, ProcessId from, ProcessId to,
             std::optional<TwoBitType> type = std::nullopt) {
  const auto frames = run.in_flight_frames();
  for (std::size_t k = 0; k < frames.size(); ++k) {
    if (frames[k].from != from || frames[k].to != to) continue;
    if (type.has_value() &&
        frames[k].type != static_cast<std::uint8_t>(*type)) {
      continue;
    }
    run.apply_enabled(k);  // kDeliver choices lead and align with frames
    return;
  }
  FAIL() << "no in-flight frame " << from << "->" << to;
}

void start_op(McRun& run, std::size_t op_index) {
  const auto choices = run.enabled();
  for (std::size_t k = 0; k < choices.size(); ++k) {
    if (choices[k].kind == McRun::Choice::Kind::kStartOp &&
        choices[k].arg == op_index) {
      run.apply_enabled(k);
      return;
    }
  }
  FAIL() << "op " << op_index << " not startable";
}

TEST(McScripted, SkipSecondWaitAllowsNewOldInversion) {
  // Drop Fig. 1 line 9 (the read's second quorum wait) and script the
  // exact Claim-3 alignment the proof of Lemma 10 rules out: read A at p1
  // returns v1 while p2..p4 are still stale; read B at p4 then assembles a
  // PROCEED quorum {p4, p2, p3} of stale processes and returns v0 — a
  // new/old inversion. (At n=3 this window is closed structurally: B's
  // quorum of 2 must touch a fresh process. n=5 is the smallest SWMR
  // instance where line 9 has work to do for this op pattern.)
  auto s = base(5, 2);
  s.factory = [](const GroupConfig& cfg, ProcessId pid) {
    TwoBitOptions topt;
    topt.skip_read_second_wait = true;
    return std::make_unique<TwoBitProcess>(cfg, pid, topt);
  };
  s.ops = {write_op(0, 1), read_op(1), read_op(4, /*after=*/1)};
  McRun run(s);

  start_op(run, 0);              // write(v1): WRITE -> p1..p4 in flight
  deliver(run, 0, 1);            // p1 learns v1, forwards to p0,p2,p3,p4
  deliver(run, 1, 0);            // ping-pong back: p0 knows p1 knows v1

  start_op(run, 1);              // read A at p1
  deliver(run, 1, 0, TwoBitType::kRead);
  deliver(run, 1, 2, TwoBitType::kRead);
  deliver(run, 0, 1, TwoBitType::kProceed);  // p0 fresh AND sees p1 fresh
  deliver(run, 2, 1, TwoBitType::kProceed);  // p2 stale: proceeds at once
  // Quorum {p1, p0, p2} reached; line 9 skipped: A returned index 1.

  start_op(run, 2);              // read B at p4 — starts after A ended
  deliver(run, 4, 2, TwoBitType::kRead);
  deliver(run, 4, 3, TwoBitType::kRead);
  deliver(run, 2, 4, TwoBitType::kProceed);  // both responders stale
  deliver(run, 3, 4, TwoBitType::kProceed);
  // Quorum {p4, p2, p3}: B returned index 0. Inversion committed.

  while (!run.terminal()) run.apply_enabled(0);  // drain the rest
  EXPECT_TRUE(run.invariant_error().empty())
      << "the write-path lemmas are untouched by the read ablation";
  const auto check = SwmrChecker::check(run.records(), s.cfg.initial);
  ASSERT_FALSE(check.ok) << "the scripted schedule must exhibit C3";
  EXPECT_NE(check.error.find("C3"), std::string::npos) << check.error;
}

TEST(McScripted, FaithfulAlgorithmClosesTheSameWindow) {
  // Same script against the faithful register: after A's PROCEED quorum,
  // line 9 parks the read until n-t processes are known fresh, so A is
  // simply not finished yet when B would need to start — the adversary
  // cannot commit the inversion. (B never becomes startable before more
  // dissemination happens; the run stays atomic through the drain.)
  auto s = base(5, 2);
  s.ops = {write_op(0, 1), read_op(1), read_op(4, /*after=*/1)};
  McRun run(s);

  start_op(run, 0);
  deliver(run, 0, 1);
  deliver(run, 1, 0);
  start_op(run, 1);
  deliver(run, 1, 0, TwoBitType::kRead);
  deliver(run, 1, 2, TwoBitType::kRead);
  deliver(run, 0, 1, TwoBitType::kProceed);
  deliver(run, 2, 1, TwoBitType::kProceed);

  // Line 9 is in force: A must still be running, so B is not startable.
  bool b_startable = false;
  for (const auto& c : run.enabled()) {
    if (c.kind == McRun::Choice::Kind::kStartOp && c.arg == 2) {
      b_startable = true;
    }
  }
  EXPECT_FALSE(b_startable)
      << "line 9 must hold read A open until a fresh quorum exists";

  while (!run.terminal()) run.apply_enabled(0);
  EXPECT_TRUE(run.invariant_error().empty()) << run.invariant_error();
  EXPECT_TRUE(run.liveness_error().empty()) << run.liveness_error();
  const auto check = SwmrChecker::check(run.records(), s.cfg.initial);
  EXPECT_TRUE(check.ok) << check.error;
}

// ---- bounded history & crash-rejoin ----------------------------------------------

// Instrumented builds pay ~20x per explored node, which would blow the
// suite's CTest timeout on the two large explorations below. The sanitizer
// gates are after memory/race bugs on the explored paths, not after
// exhaustiveness — the plain release/debug runs keep the full budget.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TBR_MC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TBR_MC_SANITIZED 1
#endif
#endif

constexpr std::size_t big_explore_budget() {
#ifdef TBR_MC_SANITIZED
  return 100'000;
#else
  return 2'000'000;
#endif
}

TwoBitOptions bounded_opts() {
  TwoBitOptions topt;
  topt.bounded_history = true;
  return topt;
}

std::unique_ptr<TwoBitProcess> make_bounded(const GroupConfig& cfg,
                                            ProcessId pid) {
  return std::make_unique<TwoBitProcess>(cfg, pid, bounded_opts());
}

std::unique_ptr<TwoBitProcess> make_rejoiner(const GroupConfig& cfg,
                                             ProcessId pid) {
  auto topt = bounded_opts();
  topt.recover_via_catchup = true;
  return std::make_unique<TwoBitProcess>(cfg, pid, topt);
}

/// Apply the first enabled choice of `kind` with argument `arg`.
void apply_kind(McRun& run, McRun::Choice::Kind kind, std::size_t arg) {
  const auto choices = run.enabled();
  for (std::size_t k = 0; k < choices.size(); ++k) {
    if (choices[k].kind == kind && choices[k].arg == arg) {
      run.apply_enabled(k);
      return;
    }
  }
  FAIL() << "choice not enabled";
}

// Every McBounded family runs the lemma suite after each step, terminal
// states included: Lemma 5's exact R1/R2 frame counts hold in bounded
// mode too, and no process has skipped a catch-up (superseded_sends() ==
// 0), because without a rejoin no send ever needs a reclaimed value.

TEST(McBounded, KnownPrefixGcIsAtomicEverySchedule) {
  // Known-prefix GC under the full adversary: across every delivery order
  // of two writes (WRITEs and catch-ups freely interleaved), the lemma
  // suite — including the GC-soundness invariant that nails the window
  // ablation — holds at every step, and every terminal history is atomic.
  // This is the machine-checked form of "nobody ever needs a reclaimed
  // value".
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0)};
  ExploreOptions opt;
  opt.max_nodes = big_explore_budget();
  const auto result = explore(s, opt);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 0u);
#ifndef TBR_MC_SANITIZED
  // GC sends no frame of its own, so the tree is the faithful one's and
  // fits the budget (~650k nodes).
  EXPECT_TRUE(result.complete);
#endif
}

TEST(McBounded, ReadPinsTheWatermarkAcrossTheSecondWrite) {
  // A read at p1 overlaps the second write, so GC runs while the read is
  // pending (its freshness index clamps the watermark): line 10 must still
  // find history[sn] in every schedule, and the lemma suite stays exact.
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0),
           read_op(1, /*after=*/0)};
  ExploreOptions opt;
  opt.max_nodes = big_explore_budget();
  const auto result = explore(s, opt);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 0u);
}

TEST(McBounded, DeepWalksNeverSkipACatchUp) {
  // Sampled coverage beyond the exhaustive families: four writes and three
  // reads. GC that outran w_sync (a steady-state ACK broadcast, say) makes
  // some walk skip a catch-up, which the lemma suite reports.
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0),
           write_op(0, 3, /*after=*/1), write_op(0, 4, /*after=*/2),
           read_op(1), read_op(2, /*after=*/0), read_op(1, /*after=*/4)};
  const auto result = random_walks(s, 5'000, /*seed=*/5);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_EQ(result.terminal_schedules, 5'000u);
}

TEST(McBounded, CanonicalRunReclaimsHistory) {
  // A plain in-order drain of three writes must actually exercise GC: the
  // writer's checkpoint advances as peers echo each value back, so its
  // base moves off genesis while the run stays consistent end to end.
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0),
           write_op(0, 3, /*after=*/1)};
  McRun run(s);
  while (!run.terminal()) run.apply_enabled(0);
  EXPECT_TRUE(run.invariant_error().empty()) << run.invariant_error();
  EXPECT_TRUE(run.liveness_error().empty()) << run.liveness_error();
  const auto* writer = dynamic_cast<const TwoBitProcess*>(&run.process(0));
  ASSERT_NE(writer, nullptr);
  EXPECT_GT(writer->gc_reclaimed_count(), 0u);
  EXPECT_GT(writer->history_base(), 0);
  EXPECT_EQ(writer->evicted_count(), 0u) << "GC is not window eviction";
  for (ProcessId pid = 0; pid < s.cfg.n; ++pid) {
    const auto* p = dynamic_cast<const TwoBitProcess*>(&run.process(pid));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->superseded_sends(), 0u) << "p" << pid;
  }
  const auto check = SwmrChecker::check(run.records(), s.cfg.initial);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(McRecovery, RecoverChoiceResetsChannelsAndRejoins) {
  // Mechanics of the kRecover choice: crash p1 before it sees the write,
  // resurrect it, and watch the fresh incarnation bootstrap. The old
  // incarnation's frames are gone, a CATCHUP broadcast appears, and at the
  // terminal state the rejoiner has adopted the writer's checkpoint.
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.recover_factory = make_rejoiner;
  s.max_crashes = 1;
  s.crash_candidates = {1};
  s.max_recoveries = 1;
  s.ops = {write_op(0, 1)};
  McRun run(s);

  start_op(run, 0);  // WRITE(v1) -> p1, p2
  apply_kind(run, McRun::Choice::Kind::kCrash, 1);
  apply_kind(run, McRun::Choice::Kind::kRecover, 1);
  EXPECT_EQ(run.recoveries(), 1u);

  std::size_t catchups = 0;
  for (const auto& f : run.in_flight_frames()) {
    if (f.from == 1) {
      EXPECT_EQ(f.type, static_cast<std::uint8_t>(TwoBitType::kCatchUp));
      ++catchups;
    }
  }
  EXPECT_EQ(catchups, 2u) << "rejoiner solicits checkpoints from both peers";

  while (!run.terminal()) run.apply_enabled(0);
  EXPECT_TRUE(run.invariant_error().empty()) << run.invariant_error();
  EXPECT_TRUE(run.liveness_error().empty()) << run.liveness_error();
  const auto* rejoiner = dynamic_cast<const TwoBitProcess*>(&run.process(1));
  ASSERT_NE(rejoiner, nullptr);
  EXPECT_TRUE(rejoiner->has_recovered());
  EXPECT_EQ(rejoiner->wsync(1), 1) << "bootstrap caught the missed write";
  const auto check = SwmrChecker::check(run.records(), s.cfg.initial);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(McRecovery, CrashDuringGcAnyTimingStaysAtomic) {
  // Crash-during-GC, exhaustively: the adversary picks when p2 dies and
  // when (always eventually, by the frontier rules) it rejoins, against a
  // write whose GC traffic is in full swing. Every schedule must stay
  // atomic and live — the checkpoint a rejoiner adopts from any n-t quorum
  // dominates everything GC reclaimed while it was gone.
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.recover_factory = make_rejoiner;
  s.max_crashes = 1;
  s.crash_candidates = {2};
  s.max_recoveries = 1;
  s.ops = {write_op(0, 1)};
  ExploreOptions opt;
  opt.max_nodes = big_explore_budget();
  const auto result = explore(s, opt);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_GT(result.terminal_schedules, 0u);
}

TEST(McRecovery, CheckpointCatchUpRaceWalks) {
  // Deep sampled coverage of the checkpoint/catch-up races: two writes and
  // a read at the crash candidate, so walks hit rejoin-while-writing,
  // WRITE-racing-CHECKPOINT, and the deferred-read path (a read issued at
  // a rejoiner before its bootstrap finishes completes afterwards, not
  // never).
  auto s = base(3, 1);
  s.factory = make_bounded;
  s.recover_factory = make_rejoiner;
  s.max_crashes = 1;
  s.crash_candidates = {2};
  s.max_recoveries = 1;
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0), read_op(2)};
  const auto result = random_walks(s, 5'000, /*seed=*/31);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_EQ(result.terminal_schedules, 5'000u);
}

TEST(McRecovery, ValidationRequiresFactoryForRecoveries) {
  auto s = base(3, 1);
  s.ops = {write_op(0, 1)};
  s.max_crashes = 1;
  s.crash_candidates = {1};
  s.max_recoveries = 1;  // no recover_factory
  EXPECT_THROW(McRun run(s), ContractViolation);
}

// ---- random walks ----------------------------------------------------------------

TEST(McRandom, DeepWalksFaithfulStayAtomic) {
  auto s = base(5, 2);
  s.ops = {write_op(0, 1), write_op(0, 2, /*after=*/0), read_op(1),
           read_op(3), read_op(4, /*after=*/2)};
  const auto result = random_walks(s, 1'500, /*seed=*/11);
  EXPECT_EQ(result.terminal_schedules, 1'500u);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
  EXPECT_FALSE(result.complete) << "sampling must not claim completeness";
}

TEST(McRandom, WalksWithCrashesStayAtomicAndLive) {
  auto s = base(5, 2);
  s.ops = {write_op(0, 1), read_op(1), read_op(2), read_op(3)};
  s.max_crashes = 2;
  s.crash_candidates = {3, 4};
  const auto result = random_walks(s, 1'000, /*seed=*/23);
  EXPECT_TRUE(result.ok()) << result.violations[0].detail;
}

TEST(McRandom, SameSeedSameOutcome) {
  auto s = base(4, 1);
  s.ops = {write_op(0, 1), read_op(2)};
  const auto a = random_walks(s, 200, 5);
  const auto b = random_walks(s, 200, 5);
  EXPECT_EQ(a.max_depth_seen, b.max_depth_seen);
  EXPECT_EQ(a.violations_found, b.violations_found);
}

// ---- liveness verdict ---------------------------------------------------------------

// A register whose reads hang forever: the liveness detector must flag the
// deadlock at the terminal state (and attribute it to the right op).
class StallingProcess final : public RegisterProcessBase {
 public:
  StallingProcess(GroupConfig cfg, ProcessId self)
      : RegisterProcessBase(cfg, self) {}
  void start_write(NetworkContext&, Value, WriteDone done) override {
    if (done) done();
  }
  void start_read(NetworkContext&, ReadDone) override {
    // Never completes: simulates a protocol bug that loses a continuation.
  }
  void on_message(NetworkContext&, ProcessId, const Message&) override {}
  std::uint64_t local_memory_bytes() const override { return 0; }
  const Codec& codec() const override { return twobit_codec(); }
};

TEST(McLiveness, DeadlockIsDetectedAndAttributed) {
  auto s = base(3, 1);
  s.factory = [](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<StallingProcess>(cfg, pid);
  };
  s.ops = {read_op(1)};
  const auto result = explore(s);
  EXPECT_TRUE(result.complete);
  ASSERT_GT(result.violations_found, 0u);
  bool saw_liveness = false;
  for (const auto& v : result.violations) {
    if (v.kind == McViolation::Kind::kLiveness) {
      saw_liveness = true;
      EXPECT_NE(v.detail.find("op #0"), std::string::npos) << v.detail;
    }
  }
  EXPECT_TRUE(saw_liveness);
}

}  // namespace
}  // namespace tbr
