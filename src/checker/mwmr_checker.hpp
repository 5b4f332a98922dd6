// Atomicity checker for multi-writer register histories whose writes carry
// unique timestamps. Its user is the KV register, one (shard, slot): the
// slot's home replica turns the puts of many clients into versions 1..W,
// and both KV drivers check each register's history here
// (check_kv_histories, src/workload/sharded_workload.hpp).
//
// With unique per-write timestamps, a history is linearizable with writes in
// timestamp order iff, for every pair of completed operations where op1
// ends before op2 starts:
//
//   W(ts1) .. W(ts2):  ts1 <  ts2     (writes respect real time)
//   W(ts)  .. R(tr):   tr  >= ts      (no stale read)
//   R(tr)  .. W(ts):   ts  >  tr      (no write behind an observed read)
//   R(t1)  .. R(t2):   t2  >= t1      (no new/old inversion)
//
// plus value consistency (a read's (ts, value) matches the write that
// installed ts, or the initial value for ts = 0) and a read-from-started
// condition (the write of the returned ts was invoked before the read
// returned). These conditions are sufficient for linearizability in
// general, and necessary for every implementation whose linearization
// orders writes by timestamp, as a KV register's home replica does.
// MwmrWgCrossval (tests/checker_crossval_test.cpp) cross-checks it against
// the exhaustive Wing-Gong oracle on small KV register histories and on
// seeded mutations of their reads.
//
// Timestamps (a KV register's versions) double as OpRecord::index. Writes
// that never completed may have index -1 (their timestamp never surfaced);
// reads returning such a write's value are matched by (unique) value
// instead.
#pragma once

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"

namespace tbr {

class MwmrChecker {
 public:
  static CheckResult check(const std::vector<OpRecord>& ops,
                           const Value& initial);
};

}  // namespace tbr
