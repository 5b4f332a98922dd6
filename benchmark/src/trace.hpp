// In-memory span tracer for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around its calls into
// the library (no stamps inside the engines): per op an `op` root with
// children `client.submit` (the submit call) and `client.wait` (submit
// return to completion callback); on the generator thread `setup`,
// `teardown`, the measured `run` and its `gen.wait` children (time the
// generator sat blocked or idle). Every span feeds a per-name total and
// self time (duration minus the part its children cover); the first
// `max_events` spans are also kept and written as Chrome trace-event JSON.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tbrbench {

class Tracer {
 public:
  explicit Tracer(std::size_t max_events) { events_.reserve(max_events); }

  /// `name` and `layer` must be string literals. `child_ns` is the part
  /// of [start, end) covered by the span's children; `root` marks the
  /// generator's top-level spans, whose durations sum to the traced wall
  /// time.
  void record(const char* name, const char* layer, std::uint32_t tid,
              std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t child_ns = 0, bool root = false);

  /// Chrome trace-event JSON ("X" events, microsecond timestamps relative
  /// to `origin_ns`). Returns false if the file cannot be written.
  bool write_chrome(const std::string& path, std::uint64_t origin_ns) const;

  /// One line per span name (count, total and self time, self time as a
  /// share of the traced wall time), then the self time summed per layer.
  /// Op spans overlap each other, so their shares can exceed 100%.
  void print_self_times(std::ostream& os) const;

  std::size_t stored() const noexcept { return events_.size(); }

 private:
  struct Event {
    const char* name;
    const char* layer;
    std::uint32_t tid;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Totals {
    const char* name;
    const char* layer;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::vector<Event> events_;
  std::vector<Totals> totals_;  // a handful of names: linear lookup
  std::uint64_t root_ns_ = 0;
};

}  // namespace tbrbench
