// Global counting-allocator harness for the perf gates.
//
// Linking `tbr_alloc_hooks` into a binary replaces the global operator
// new/delete family with malloc-backed versions that bump process-wide
// atomic counters. Allocation *counts* are the main metric: they are
// deterministic on a fixed workload regardless of CPU count or wall-clock
// speed, which is what makes "allocations per delivered frame" a gateable
// criterion on a 1-core CI runner. Requested *bytes* (the sizes passed to
// operator new, before malloc's rounding) are counted too, for gates on
// what a data structure asks of the heap per element.
//
// Only alloc_regression_test links the hooks; the library itself never
// does, so ordinary binaries keep the stock allocator and the sanitizer
// builds (which interpose their own operator new) are never mixed with
// ours — the alloc-gated test is registered for non-sanitized builds only.
#pragma once

#include <cstdint>

namespace tbr::alloc {

/// Number of successful global operator-new calls since process start.
std::uint64_t allocations();

/// Number of global operator-delete calls on non-null pointers.
std::uint64_t deallocations();

/// Bytes requested by successful global operator-new calls since process
/// start (frees do not subtract).
std::uint64_t bytes();

/// Allocation delta over a scope:
///   alloc::Window w;
///   ... code under measurement ...
///   auto n = w.allocations();
class Window {
 public:
  Window() : start_(alloc::allocations()), start_bytes_(alloc::bytes()) {}
  std::uint64_t allocations() const { return alloc::allocations() - start_; }
  std::uint64_t bytes() const { return alloc::bytes() - start_bytes_; }

 private:
  std::uint64_t start_ = 0;
  std::uint64_t start_bytes_ = 0;
};

}  // namespace tbr::alloc
