// The three engines the workloads run, behind the one surface the
// generator needs: issue a put/get through the engine's public client,
// wait for a wave of completions, and read the layer counters the engine
// already exposes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "client/op.hpp"
#include "common/value.hpp"
#include "runner.hpp"
#include "kvstore/mux_process.hpp"

namespace tbrbench {

/// Cumulative layer counters; the runner diffs two snapshots.
struct Counters {
  // core: MessageStats
  std::uint64_t frames = 0;
  std::uint64_t control_bits = 0;
  std::uint64_t data_bits = 0;
  std::uint64_t control_bits_max = 0;
  std::uint64_t local_memory_peak = 0;
  // kvstore
  tbr::BatchStats batch;
  std::vector<std::int64_t> shard_vtime;
  // sim
  std::uint64_t events = 0;
  std::uint64_t sched_work = 0;
  // transport
  std::uint64_t park_events = 0;
  std::uint64_t peak_outbuf_bytes = 0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Submit a put (`write`) of `value` or a get of `key` through the
  /// engine's client in callback mode.
  virtual void issue(bool write, std::uint32_t key, tbr::Value value,
                     tbr::OpCallback cb) = 0;
  /// Return once `done` is no longer 0 (a completion set a bit in it). Sim
  /// engines drive their simulator meanwhile (the callbacks run on this
  /// thread); false means the engine stalled with ops outstanding.
  virtual bool await(std::atomic<std::uint64_t>& done) = 0;
  /// Called when no op is in flight (sim: apply the crash schedule).
  virtual void between_waves() {}
  /// True while part of the crash schedule has not been applied.
  virtual bool faults_pending() const { return false; }
  virtual Counters counters() const = 0;
  /// Stop the engine; recording of final gauges happens here.
  virtual void stop() = 0;

  /// Register (atomicity-check unit) that `key` lives in.
  virtual std::uint32_t register_of(std::uint32_t /*key*/) const { return 0; }
  /// True when put results carry the version they landed as (kv
  /// batching); register engines report 0 and land puts in order.
  virtual bool reports_put_versions() const { return false; }
  /// True when OpResult::latency is in virtual ticks (Δ = 1000).
  virtual bool virtual_latency() const { return false; }
  /// Name of the layer the client hands ops to.
  virtual const char* layer() const = 0;
};

std::unique_ptr<Engine> make_engine(const WorkloadSpec& spec,
                                    std::uint64_t seed);

}  // namespace tbrbench
