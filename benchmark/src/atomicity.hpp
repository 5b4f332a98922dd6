// Online atomicity check for single-writer registers, O(1) per operation.
//
// Every benchmark op is checked as it completes, so a run never keeps a
// history. Each put carries a value that names its register r and its
// per-register put number c (encode_value); a read's (version, value)
// answer is a claim "version v holds put c". The check enforces, per
// register, the same conditions SwmrChecker proves sufficient for SWMR
// atomicity:
//
//   versions  non-absorbed puts land as exactly 1, 2, ..., W in order; an
//             absorbed put (last-write-wins coalescing) reports the version
//             of the put that superseded it, which is the next to land
//   C0        a read's claim matches the put that landed as v (v = 0: the
//             initial, empty value); claims made before that put reports
//             completion are parked in the ring slot and settled when it
//             does; a value naming an absorbed put never matches
//   C1        the claimed put was submitted before the read completed
//   C2, C3    v is at least the largest version any put or read had
//             completed with before the read was submitted (its floor)
//
// Claims are kept in a per-register ring of `window` versions, which must
// exceed the number of versions that can land while one read is in flight
// (the benchmark sizes it from the workload's outstanding-op bound); a
// claim that falls out of the ring is reported, never skipped.
//
// Threading: submit-side calls come from the generator thread, completion
// calls from the engine's completion threads; each register's ring is
// guarded by its own mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/value.hpp"

namespace tbrbench {

/// Fill `out` with put `c` of register `reg`: 4-byte register id, 4-byte
/// put number, then `size - 8` filler bytes derived from both.
void encode_value(std::uint32_t reg, std::uint32_t c, std::size_t size,
                  tbr::Value& out);

class AtomicityCheck {
 public:
  AtomicityCheck(std::uint32_t registers, std::uint32_t window,
                 std::size_t value_bytes);

  // ---- generator side -------------------------------------------------------
  /// Number the next put of `reg` (1-based) and return it.
  std::uint32_t begin_put(std::uint32_t reg);
  /// Floor of a read submitted now.
  std::uint32_t begin_read(std::uint32_t reg) const;

  // ---- completion side ------------------------------------------------------
  void end_put(std::uint32_t reg, std::uint32_t c, std::int64_t version,
               bool absorbed);
  void end_read(std::uint32_t reg, std::uint32_t floor, std::int64_t version,
                const tbr::Value& value);

  /// After every op has completed: no parked claim may be left unsettled.
  void finish();

  std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }
  std::string first_violation() const;

 private:
  struct Entry {
    std::uint32_t version = 0;
    std::uint32_t put = 0;
    bool landed = false;  ///< false: a read's claim awaiting its put
    bool used = false;
  };
  struct Register {
    std::atomic<std::uint32_t> submitted{0};  ///< puts numbered so far
    std::atomic<std::uint32_t> completed_max{0};
    std::mutex mu;
    std::uint32_t landed = 0;         ///< guarded by mu
    std::uint32_t last_landed_put = 0;
    std::vector<Entry> ring;          ///< guarded by mu
  };

  void violation(const std::string& what);
  static void raise_to(std::atomic<std::uint32_t>& a, std::uint32_t v);

  std::uint32_t window_;
  std::size_t value_bytes_;
  std::unique_ptr<Register[]> regs_;
  std::uint32_t register_count_;
  std::atomic<std::uint64_t> violations_{0};
  mutable std::mutex error_mu_;
  std::string first_error_;
};

}  // namespace tbrbench
