// Exhaustive linearizability checker (Wing & Gong style) for small register
// histories whose writes carry unique indices, from one writer or many.
//
// Independent of the fast checkers: explores every real-time-respecting
// linear order of the operations, with memoization on (linearized-set,
// register state). Exponential in the worst case — the test suite uses it
// only to cross-validate SwmrChecker and MwmrChecker on histories of at
// most ~20 operations, which is where such a ground-truth oracle is useful.
#pragma once

#include "checker/history.hpp"

namespace tbr {

/// True iff the history is linearizable against the register spec with the
/// given initial value. Incomplete operations may linearize or vanish.
bool wg_linearizable(const std::vector<OpRecord>& ops, const Value& initial);

}  // namespace tbr
