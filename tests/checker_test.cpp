// Checker tests: the fast SWMR checker must accept canonical atomic
// histories and reject each specific violation class (C0-C3 plus model
// sanity), with hand-crafted histories; the multi-writer checker the KV
// drivers use gets the same treatment.
#include <gtest/gtest.h>

#include "checker/mwmr_checker.hpp"
#include "checker/swmr_checker.hpp"
#include "checker/wg_checker.hpp"
#include "common/contracts.hpp"

namespace tbr {
namespace {

const Value kInit = Value::from_int64(0);

// Small DSL for hand-written histories.
class H {
 public:
  H& write(ProcessId p, Tick start, Tick end, SeqNo index) {
    const auto id = log_.begin_write(p, start, index, Value::from_int64(index));
    log_.end_write(id, end);
    return *this;
  }
  H& write_incomplete(ProcessId p, Tick start, SeqNo index) {
    (void)log_.begin_write(p, start, index, Value::from_int64(index));
    return *this;
  }
  H& read(ProcessId p, Tick start, Tick end, SeqNo index) {
    const auto id = log_.begin_read(p, start);
    log_.end_read(id, end, Value::from_int64(index), index);
    return *this;
  }
  /// A read returning a value that does not match its index (for C0 tests).
  H& read_lying(ProcessId p, Tick start, Tick end, SeqNo index,
                std::int64_t value) {
    const auto id = log_.begin_read(p, start);
    log_.end_read(id, end, Value::from_int64(value), index);
    return *this;
  }
  H& read_incomplete(ProcessId p, Tick start) {
    (void)log_.begin_read(p, start);
    return *this;
  }
  /// Read of the initial value: index 0, value = kInit.
  H& read_initial(ProcessId p, Tick start, Tick end) {
    const auto id = log_.begin_read(p, start);
    log_.end_read(id, end, kInit, 0);
    return *this;
  }
  CheckResult check() const { return SwmrChecker::check(log_.ops(), kInit); }
  std::vector<OpRecord> ops() const { return log_.ops(); }

 private:
  HistoryLog log_;
};

// ---- accepting histories --------------------------------------------------------

TEST(SwmrCheckerTest, EmptyHistoryOk) {
  EXPECT_TRUE(H{}.check().ok);
}

TEST(SwmrCheckerTest, ReadOfInitialValueOk) {
  EXPECT_TRUE(H{}.read_initial(1, 0, 10).check().ok);
}

TEST(SwmrCheckerTest, SequentialWriteReadOk) {
  const auto r = H{}
                     .write(0, 0, 10, 1)
                     .read(1, 20, 30, 1)
                     .write(0, 40, 50, 2)
                     .read(2, 60, 70, 2)
                     .check();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(SwmrCheckerTest, ConcurrentReadMayReturnOldOrNew) {
  // Read overlaps write 2: index 1 and index 2 are both legal.
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .write(0, 20, 40, 2)
                  .read(1, 25, 35, 1)
                  .check()
                  .ok);
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .write(0, 20, 40, 2)
                  .read(1, 25, 35, 2)
                  .check()
                  .ok);
}

TEST(SwmrCheckerTest, IncompleteFinalWriteMayBeReadOrNot) {
  // The writer crashed mid-write; a read may return it (took effect)...
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .write_incomplete(0, 20, 2)
                  .read(1, 30, 40, 2)
                  .check()
                  .ok);
  // ...or not (never took effect).
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .write_incomplete(0, 20, 2)
                  .read(1, 30, 40, 1)
                  .check()
                  .ok);
}

TEST(SwmrCheckerTest, IncompleteReadConstrainsNothing) {
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .read_incomplete(1, 5)
                  .read(2, 20, 30, 1)
                  .check()
                  .ok);
}

TEST(SwmrCheckerTest, EqualIndexReadsInAnyOrderOk) {
  EXPECT_TRUE(H{}
                  .write(0, 0, 10, 1)
                  .read(1, 20, 30, 1)
                  .read(2, 40, 50, 1)
                  .read(1, 60, 70, 1)
                  .check()
                  .ok);
}

// ---- rejecting histories ----------------------------------------------------------

TEST(SwmrCheckerTest, RejectsC0ValueMismatch) {
  const auto r =
      H{}.write(0, 0, 10, 1).read_lying(1, 20, 30, 1, 999).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("C0"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsC0IndexOutOfRange) {
  const auto r = H{}.write(0, 0, 10, 1).read(1, 20, 30, 7).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("C0"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsC1ReadFromFuture) {
  // Read completes before write 1 even begins, yet returns it.
  const auto r = H{}.read(1, 0, 5, 1).write(0, 10, 20, 1).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("C1"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsC2StaleRead) {
  // Write 2 completed before the read started; returning 1 is stale.
  const auto r = H{}
                     .write(0, 0, 10, 1)
                     .write(0, 20, 30, 2)
                     .read(1, 40, 50, 1)
                     .check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("C2"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsC3NewOldInversion) {
  // First read returns 2, a later (non-overlapping) read returns 1.
  const auto r = H{}
                     .write(0, 0, 10, 1)
                     .write(0, 20, 100, 2)  // write 2 still in flight
                     .read(1, 30, 40, 2)
                     .read(2, 50, 60, 1)
                     .check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("C3"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, AcceptsOverlappingReadsEitherOrder) {
  // Same as above but the reads overlap: inversion is then legal.
  const auto r = H{}
                     .write(0, 0, 10, 1)
                     .write(0, 20, 100, 2)
                     .read(1, 30, 55, 2)
                     .read(2, 50, 60, 1)
                     .check();
  EXPECT_TRUE(r.ok) << r.error;
}

TEST(SwmrCheckerTest, RejectsOverlappingWrites) {
  const auto r = H{}.write(0, 0, 50, 1).write(0, 40, 90, 2).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("model"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsTwoWriterProcesses) {
  const auto r = H{}.write(0, 0, 10, 1).write(1, 20, 30, 2).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("writer"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsGappyWriteIndices) {
  const auto r = H{}.write(0, 0, 10, 1).write(0, 20, 30, 3).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("1..W"), std::string::npos) << r.error;
}

TEST(SwmrCheckerTest, RejectsOverlappingOpsOnOneProcess) {
  H h;
  h.write(0, 0, 10, 1);
  // Process 1 starts a second read before the first completes.
  const auto r = h.read_incomplete(1, 20).read(1, 25, 30, 1).check();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("overlap"), std::string::npos) << r.error;
}

// ---- Wing-Gong ground truth on the same histories -----------------------------------

TEST(WgCheckerTest, AgreesOnCanonicalGoodHistory) {
  const auto ops =
      H{}.write(0, 0, 10, 1).read(1, 20, 30, 1).write(0, 40, 50, 2).ops();
  EXPECT_TRUE(wg_linearizable(ops, kInit));
}

TEST(WgCheckerTest, AgreesOnStaleReadViolation) {
  const auto ops = H{}
                       .write(0, 0, 10, 1)
                       .write(0, 20, 30, 2)
                       .read(1, 40, 50, 1)
                       .ops();
  EXPECT_FALSE(wg_linearizable(ops, kInit));
}

TEST(WgCheckerTest, AgreesOnInversionViolation) {
  const auto ops = H{}
                       .write(0, 0, 10, 1)
                       .write(0, 20, 100, 2)
                       .read(1, 30, 40, 2)
                       .read(2, 50, 60, 1)
                       .ops();
  EXPECT_FALSE(wg_linearizable(ops, kInit));
}

TEST(WgCheckerTest, PendingWriteBothWays) {
  EXPECT_TRUE(wg_linearizable(
      H{}.write_incomplete(0, 0, 1).read(1, 10, 20, 1).ops(), kInit));
  EXPECT_TRUE(wg_linearizable(
      H{}.write_incomplete(0, 0, 1).read_initial(1, 10, 20).ops(), kInit));
}

TEST(WgCheckerTest, ValueMismatchRejected) {
  const auto ops = H{}.write(0, 0, 10, 1).read_lying(1, 20, 30, 1, 5).ops();
  EXPECT_FALSE(wg_linearizable(ops, kInit));
}

TEST(WgCheckerTest, SizeGuard) {
  H h;
  h.write(0, 0, 1, 1);
  for (int i = 0; i < 30; ++i) {
    h.read(1, 10 + 10 * i, 15 + 10 * i, 1);
  }
  EXPECT_THROW((void)wg_linearizable(h.ops(), kInit), ContractViolation);
}

// ---- MwmrChecker: many writers, versions known at completion ----------------------

TEST(MwmrCheckerTest, AcceptsCleanHistory) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, 1);
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(10), 1);
  EXPECT_TRUE(MwmrChecker::check(log.ops(), kInit).ok);
}

TEST(MwmrCheckerTest, RejectsStaleRead) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, 1);
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, kInit, 0);  // returns the initial value
  const auto verdict = MwmrChecker::check(log.ops(), kInit);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("W-R"), std::string::npos) << verdict.error;
}

TEST(MwmrCheckerTest, RejectsInversion) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 5, 1);
  // w2 [10, 100] overlaps both reads: r1 sees it, then r2 sees w1 again.
  auto w2 = log.begin_write_unindexed(1, 10, Value::from_int64(20));
  log.end_write_indexed(w2, 100, 2);
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(20), 2);
  auto r2 = log.begin_read(3, 40);
  log.end_read(r2, 50, Value::from_int64(10), 1);
  const auto verdict = MwmrChecker::check(log.ops(), kInit);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("R-R"), std::string::npos) << verdict.error;
}

TEST(MwmrCheckerTest, RejectsWriteBehindObservedRead) {
  HistoryLog log;
  auto w6 = log.begin_write_unindexed(1, 0, Value::from_int64(60));
  auto r1 = log.begin_read(2, 0);
  log.end_read(r1, 10, Value::from_int64(60), 6);
  // The read observed version 6; a write invoked after it returned cannot
  // install a smaller version under version order.
  auto w5 = log.begin_write_unindexed(3, 20, Value::from_int64(50));
  log.end_write_indexed(w5, 30, 5);
  log.end_write_indexed(w6, 40, 6);
  const auto verdict = MwmrChecker::check(log.ops(), kInit);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.error.find("R-W"), std::string::npos) << verdict.error;
}

TEST(MwmrCheckerTest, AllowsReadOfIncompleteWriteByValue) {
  HistoryLog log;
  (void)log.begin_write_unindexed(1, 0, Value::from_int64(10));  // crashes
  auto r1 = log.begin_read(2, 20);
  log.end_read(r1, 30, Value::from_int64(10), 1);
  EXPECT_TRUE(MwmrChecker::check(log.ops(), kInit).ok);
}

TEST(MwmrCheckerTest, RejectsDuplicateTimestamps) {
  HistoryLog log;
  auto w1 = log.begin_write_unindexed(1, 0, Value::from_int64(10));
  log.end_write_indexed(w1, 10, 1);
  auto w2 = log.begin_write_unindexed(2, 20, Value::from_int64(20));
  log.end_write_indexed(w2, 30, 1);
  EXPECT_FALSE(MwmrChecker::check(log.ops(), kInit).ok);
}

}  // namespace
}  // namespace tbr
