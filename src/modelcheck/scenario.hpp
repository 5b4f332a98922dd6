// Model-checking scenarios: a register group, a partial order of client
// operations, and a crash budget.
//
// The simulator (src/sim) samples schedules from seeded randomness; the
// model checker (src/modelcheck) *enumerates* them. A scenario fixes
// everything except the nondeterminism the CAMP model grants the adversary:
// which in-flight frame is delivered next, when client operations start
// relative to the protocol's internal traffic, and when (if ever) processes
// crash. For small configurations the explorer covers every reachable
// schedule, turning the paper's pen-and-paper lemmas into machine-checked
// facts for those instances.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/register_process.hpp"

namespace tbr {

/// One client operation in a scenario.
struct McOp {
  enum class Kind { kWrite, kRead };
  Kind kind = Kind::kRead;
  ProcessId proc = kNoProcess;
  Value value;  ///< written value (writes only)

  /// Index of an op (into Scenario::ops) that must have *completed* before
  /// this op may start; -1 = enabled from the beginning. Together with the
  /// per-process sequentiality the model already imposes, this expresses
  /// the real-time precedence patterns the atomicity claims quantify over
  /// (e.g. "read B starts after read A ends").
  int after = -1;
};

struct Scenario {
  GroupConfig cfg;

  /// Process constructor; defaults to the faithful two-bit algorithm.
  ProcessFactory factory;

  std::vector<McOp> ops;

  /// Crash nondeterminism: at any step the adversary may crash one of the
  /// remaining candidates, up to `max_crashes` in total. Every subset and
  /// timing within the schedule tree is explored. Keep max_crashes <= cfg.t
  /// for liveness checking to be meaningful.
  std::uint32_t max_crashes = 0;
  std::vector<ProcessId> crash_candidates;

  /// Rejoin nondeterminism: at any step the adversary may also resurrect a
  /// currently-crashed candidate (up to `max_recoveries` in total) as a
  /// fresh incarnation built by `recover_factory`. The channels touching it
  /// reset: frames in flight to or from the old incarnation are erased,
  /// exactly the runtimes' connection-death semantics. So every
  /// crash-during-GC and checkpoint/catch-up race within the budget is
  /// enumerated. Requires recover_factory when non-zero.
  std::uint32_t max_recoveries = 0;
  ProcessFactory recover_factory;

  /// Sanity-check the scenario; throws ContractViolation on nonsense.
  void validate() const;
};

}  // namespace tbr
