// The benchmark's workloads and the runner that runs one of them.
//
// One generator thread drives the public client API (RegisterClient or
// KvClient) of one engine. Completions are stamped and checked in the op
// callback on the engine's completion thread; the generator only issues
// ops and waits for room. See benchmark/README.md for why each workload
// exists and what each metric means.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace tbrbench {

enum class EngineKind { kSocket, kShardedKv, kSim };

struct CrashAt {
  std::uint32_t replica = 0;
  std::int64_t at_ticks = 0;  ///< first wave boundary at or after this time
};

struct WorkloadSpec {
  std::string_view name;
  EngineKind engine = EngineKind::kSim;
  std::uint32_t n = 3;
  std::uint32_t t = 1;
  // socket
  std::uint32_t loops = 0;
  // sharded kv
  std::uint32_t shards = 0;
  std::uint32_t slots_per_shard = 0;
  std::uint32_t keys = 1;
  double zipf_s = 0.0;  ///< 0 = uniform keys
  // sim
  std::int64_t delay_mean = 0;
  std::int64_t delay_cap = 0;
  std::vector<CrashAt> crashes;
  std::uint64_t exact_prefix_ops = 0;  ///< deterministic counts/vlat window
  // op mix
  double read_fraction = 0.5;
  std::size_t value_bytes = 8;
  // load shape: closed loop (waves) when rate_ops_s == 0, else open loop
  std::uint32_t wave_ops = 1;
  std::uint32_t waves = 1;
  double rate_ops_s = 0.0;
  /// Reference op count: warm-up is 1% of it, --smoke measures 1% of it.
  std::uint64_t nominal_ops = 0;
  /// Versions per register the atomicity check keeps (> versions that can
  /// land while one read is in flight).
  std::uint32_t check_window = 0;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  std::string trace_path;  ///< Chrome JSON output of a traced run
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string violation;  ///< first correctness failure, empty when correct
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// Run one workload in this process. Progress and tables go to `log`.
RunResult run_workload(const WorkloadSpec& spec, const RunOptions& opt,
                       std::ostream& log);

}  // namespace tbrbench
