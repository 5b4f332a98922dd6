// McRun: one controlled execution of a scenario.
//
// The run holds the full nondeterminism frontier explicitly: every
// undelivered frame, every startable client op, every crashable process.
// `enabled()` lists the frontier in a canonical order; `apply(choice)`
// executes one element. A *schedule* is the sequence of choice indices
// applied since construction — replaying the same scenario with the same
// index sequence reproduces the same execution bit-for-bit (processes are
// deterministic state machines; this is what makes stateless exploration
// and violation reproduction possible).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checker/history.hpp"
#include "modelcheck/scenario.hpp"
#include "net/message.hpp"

namespace tbr {

class McRun {
 public:
  explicit McRun(const Scenario& scenario);
  ~McRun();
  McRun(const McRun&) = delete;
  McRun& operator=(const McRun&) = delete;

  struct Choice {
    enum class Kind : std::uint8_t { kDeliver, kStartOp, kCrash, kRecover };
    Kind kind = Kind::kDeliver;
    /// kDeliver: position in the in-flight queue. kStartOp: index into
    /// Scenario::ops. kCrash/kRecover: the ProcessId affected.
    std::size_t arg = 0;
  };

  /// The current nondeterminism frontier, in canonical order (deliveries
  /// first, then op starts, then crashes). Empty <=> the run is terminal.
  std::vector<Choice> enabled() const;

  /// Execute choice `index` into the current enabled() list. In an
  /// all-TwoBit group the lemma invariants are evaluated afterwards, unless
  /// `check_invariants` is false (replaying a prefix already checked); a
  /// violation is remembered in invariant_error() rather than thrown, so
  /// the explorer can report the offending schedule.
  void apply_enabled(std::size_t index, bool check_invariants = true);

  bool terminal() const { return enabled().empty(); }

  // ---- terminal-state verdicts ------------------------------------------------
  /// Operation records for the atomicity checker.
  std::vector<OpRecord> records() const { return history_.ops(); }
  /// Non-empty if a lemma invariant broke at some step.
  const std::string& invariant_error() const noexcept {
    return invariant_error_;
  }
  /// At a terminal state: every started op of a non-crashed process must
  /// have completed (no frames left, nothing can unblock it — a genuine
  /// liveness violation). Returns a description, or empty if live.
  std::string liveness_error() const;

  // ---- introspection ------------------------------------------------------------
  std::uint64_t steps() const noexcept { return steps_; }
  std::size_t in_flight_count() const noexcept { return in_flight_.size(); }
  std::uint32_t crashes() const noexcept { return crashes_; }
  std::uint32_t recoveries() const noexcept { return recoveries_; }
  RegisterProcessBase& process(ProcessId pid);
  /// The undelivered frames, positionally aligned with the kDeliver
  /// choices in enabled(). Together they make McRun a *scriptable
  /// adversary*: a test can select "the READ from p4 to p2" by content
  /// and drive the protocol into a precise alignment (see
  /// tests/modelcheck_test.cpp's Claim-3 script).
  std::vector<InFlightFrame> in_flight_frames() const;

 private:
  class McContext;
  struct Frame {
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    Message msg;
  };
  struct OpState {
    bool started = false;
    bool done = false;
    /// Started at an incarnation that has since crashed: the completion
    /// callback died with it, so the op can never finish — the model's
    /// "a faulty process's last operation may not take effect". Excluded
    /// from liveness verdicts and from per-process ordering.
    bool orphaned = false;
    HistoryLog::OpId history_id = 0;
  };

  void apply(const Choice& choice, bool check_invariants);
  bool op_startable(std::size_t index) const;
  void start_op(std::size_t index);
  void run_invariants();

  const Scenario& scenario_;
  std::vector<std::unique_ptr<RegisterProcessBase>> processes_;
  std::vector<std::unique_ptr<McContext>> contexts_;
  std::vector<bool> crashed_;
  std::vector<Frame> in_flight_;
  std::vector<OpState> op_state_;
  HistoryLog history_;
  std::uint64_t steps_ = 0;
  std::uint32_t crashes_ = 0;
  std::uint32_t recoveries_ = 0;
  bool invariants_applicable_ = false;
  std::string invariant_error_;
};

}  // namespace tbr
