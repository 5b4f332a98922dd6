#include "modelcheck/explorer.hpp"

#include <utility>

#include "checker/swmr_checker.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace tbr {
namespace {

/// Check one terminal run; append any violations to `result`.
void check_terminal(const Scenario& scenario, const McRun& run,
                    const std::vector<std::uint32_t>& schedule,
                    const ExploreOptions& options, ExploreResult& result) {
  ++result.terminal_schedules;
  result.max_depth_seen = std::max(result.max_depth_seen, schedule.size());

  auto report = [&](McViolation::Kind kind, std::string detail) {
    ++result.violations_found;
    if (result.violations.size() < options.max_violations) {
      result.violations.push_back(
          McViolation{kind, std::move(detail), schedule});
    }
  };

  if (!run.invariant_error().empty()) {
    report(McViolation::Kind::kInvariant, run.invariant_error());
  }
  if (const auto liveness = run.liveness_error(); !liveness.empty()) {
    report(McViolation::Kind::kLiveness, liveness);
  }
  const auto check = SwmrChecker::check(run.records(), scenario.cfg.initial);
  if (!check.ok) {
    report(McViolation::Kind::kAtomicity, check.error);
  }
}

}  // namespace

ExploreResult explore(const Scenario& scenario,
                      const ExploreOptions& options) {
  scenario.validate();
  ExploreResult result;

  // DFS over prefixes, newest first. Children are pushed in reverse so the
  // tree is visited left-to-right (schedule order is stable across runs).
  std::vector<std::vector<std::uint32_t>> stack;
  stack.push_back({});
  bool budget_hit = false;

  while (!stack.empty()) {
    if (result.nodes_visited >= options.max_nodes) {
      budget_hit = true;
      break;
    }
    const std::vector<std::uint32_t> prefix = std::move(stack.back());
    stack.pop_back();
    ++result.nodes_visited;

    // Every proper prefix was checked when it was a node itself, and a
    // broken one was pruned, so only the newest step needs the lemma
    // predicate.
    McRun run(scenario);
    for (std::size_t k = 0; k < prefix.size(); ++k) {
      const bool newest = k + 1 == prefix.size();
      run.apply_enabled(prefix[k], /*check_invariants=*/newest);
    }
    // An invariant break makes deeper exploration meaningless; report it
    // at this node and prune the subtree.
    if (!run.invariant_error().empty()) {
      check_terminal(scenario, run, prefix, options, result);
      continue;
    }
    const auto choices = run.enabled();
    if (choices.empty()) {
      check_terminal(scenario, run, prefix, options, result);
      continue;
    }
    TBR_ENSURE(prefix.size() < options.max_depth,
               "schedule exceeded max_depth; protocol may not quiesce");
    for (std::size_t k = choices.size(); k-- > 0;) {
      std::vector<std::uint32_t> child = prefix;
      child.push_back(static_cast<std::uint32_t>(k));
      stack.push_back(std::move(child));
    }
  }
  result.complete = !budget_hit;
  return result;
}

ExploreResult random_walks(const Scenario& scenario, std::uint64_t walks,
                           std::uint64_t seed,
                           const ExploreOptions& options) {
  scenario.validate();
  ExploreResult result;
  Rng rng(seed);
  for (std::uint64_t w = 0; w < walks; ++w) {
    McRun run(scenario);
    std::vector<std::uint32_t> schedule;
    for (;;) {
      TBR_ENSURE(schedule.size() < options.max_depth,
                 "walk exceeded max_depth; protocol may not quiesce");
      if (!run.invariant_error().empty()) break;  // pointless to go deeper
      const auto choices = run.enabled();
      if (choices.empty()) break;
      const auto pick = static_cast<std::uint32_t>(
          rng.uniform(0, static_cast<std::int64_t>(choices.size()) - 1));
      schedule.push_back(pick);
      run.apply_enabled(pick);
    }
    ++result.nodes_visited;
    check_terminal(scenario, run, schedule, options, result);
  }
  result.complete = false;  // sampling never proves exhaustiveness
  return result;
}

std::unique_ptr<McRun> replay(const Scenario& scenario,
                              const std::vector<std::uint32_t>& schedule) {
  auto run = std::make_unique<McRun>(scenario);
  for (const std::uint32_t choice : schedule) run->apply_enabled(choice);
  return run;
}

}  // namespace tbr
