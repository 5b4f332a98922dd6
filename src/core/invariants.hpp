// Executable versions of the paper's lemmas: one predicate over a global
// state of a two-bit group, shared by the simulator and the model checker.
//
//   Lemma 1    every w_sync cell moves in steps of exactly +1
//   Lemma 2    w_sync_i[i] >= w_sync_j[i] for all i, j
//   Lemma 3    w_sync_i[i] = max_j w_sync_i[j]
//   Lemma 4    every local history is a prefix of the writer's history
//   Lemma 5    R1/R2 relate frames-sent counters to w_sync views
//   Property P1 at most two WRITE frames in flight per channel, with
//              consecutive indices (hence distinct parity bits)
//   Property P2 |w_sync_i[j] - w_sync_j[i]| <= 1
//   GC soundness: no process discards history a peer still needs, and
//              without a rejoin no Rule-R2 catch-up is skipped
//
// check_twobit_state_invariants evaluates Lemmas 2-5, P1, P2 and GC
// soundness and returns the first violation as text, so the model checker
// can report which schedule broke which lemma and keep counting. Lemma 1's
// per-message step is enforced by contracts inside TwoBitProcess; its
// event-granularity form needs the previous state and lives in the
// simulator host, TwoBitInvariantObserver, which throws ContractViolation
// on any violation and so fails the enclosing test.
#pragma once

#include <string>
#include <vector>

#include "core/twobit_process.hpp"
#include "net/message.hpp"
#include "sim/sim_network.hpp"

namespace tbr {

/// Evaluate the global state invariants over every process of the group
/// (indexed by pid) and the frames not yet delivered. Returns an empty
/// string when every predicate holds, otherwise a description of the
/// first violation.
std::string check_twobit_state_invariants(
    const std::vector<const TwoBitProcess*>& processes,
    const std::vector<InFlightFrame>& in_flight);

/// The simulator host: install as `net.set_post_event_hook(std::ref(obs))`.
class TwoBitInvariantObserver {
 public:
  explicit TwoBitInvariantObserver(GroupConfig cfg);

  void operator()(SimNetwork& net);

  std::uint64_t checks_run() const noexcept { return checks_run_; }

 private:
  void check_lemma1_steps(const std::vector<const TwoBitProcess*>& ps);

  GroupConfig cfg_;
  std::vector<std::vector<SeqNo>> prev_wsync_;  // Lemma-1 step tracking
  bool has_prev_ = false;
  std::uint64_t checks_run_ = 0;
};

}  // namespace tbr
