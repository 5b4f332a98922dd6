// Stateless schedule exploration: bounded-exhaustive DFS and uniform
// random walks over a scenario's schedule tree.
//
// Processes are deterministic state machines, so an execution is fully
// identified by its choice-index sequence; the explorer replays prefixes
// from scratch instead of snapshotting process state (stateless model
// checking). Every *terminal* schedule — no frame undelivered, no op
// startable, no crash budget usable — is checked for:
//
//   - atomicity   (SwmrChecker over the recorded operation history:
//                  Lemma 10's Claims 1-3),
//   - liveness    (every started op of a non-crashed process completed —
//                  Lemmas 8/9 at the exhausted frontier),
//   - invariants  (Lemmas 2-5, P1/P2 and GC soundness after every step,
//                  for two-bit runs: core/invariants, the predicate the
//                  simulator's observer runs too).
//
// With `complete == true` the result is a machine-checked proof of those
// properties for that instance: no adversarial delivery order, operation
// alignment, or crash timing within the scenario can break the register.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "modelcheck/mc_run.hpp"

namespace tbr {

struct ExploreOptions {
  /// Stop after visiting this many schedule-tree nodes (prefix replays).
  std::uint64_t max_nodes = 5'000'000;
  /// Hard cap on schedule length (guards against runaway protocols).
  std::size_t max_depth = 4'000;
  /// Keep at most this many violation reports (each stores its schedule).
  std::size_t max_violations = 8;
};

/// One property failure, with the schedule that reproduces it.
struct McViolation {
  enum class Kind { kAtomicity, kLiveness, kInvariant };
  Kind kind = Kind::kAtomicity;
  std::string detail;
  /// Choice-index sequence; feed to replay() to reproduce.
  std::vector<std::uint32_t> schedule;
};

struct ExploreResult {
  std::uint64_t nodes_visited = 0;      ///< prefixes replayed
  std::uint64_t terminal_schedules = 0; ///< complete executions checked
  std::size_t max_depth_seen = 0;
  bool complete = false;  ///< whole tree covered within the budget
  std::vector<McViolation> violations;
  std::uint64_t violations_found = 0;  ///< may exceed violations.size()

  bool ok() const noexcept { return violations_found == 0; }
};

/// Bounded-exhaustive DFS over every schedule of `scenario`.
ExploreResult explore(const Scenario& scenario,
                      const ExploreOptions& options = ExploreOptions());

/// Sample `walks` schedules uniformly (each step picks one enabled choice
/// with equal probability). Far deeper reach than exhaustive DFS; no
/// completeness claim. Violation schedules are reported the same way.
ExploreResult random_walks(const Scenario& scenario, std::uint64_t walks,
                           std::uint64_t seed,
                           const ExploreOptions& options = ExploreOptions());

/// Re-execute one schedule (e.g. a McViolation::schedule) and return the
/// finished run for inspection.
std::unique_ptr<McRun> replay(const Scenario& scenario,
                              const std::vector<std::uint32_t>& schedule);

}  // namespace tbr
