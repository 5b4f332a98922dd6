// One closed-loop workload driver for every register engine, producing
// operation histories for the atomicity checker plus traffic/latency
// measurements.
//
// Each process runs a client loop through the engine's RegisterClient:
// think for a random interval, issue an operation, wait for it, repeat up
// to its quota. The writer issues writes (optionally interleaving reads);
// every other process issues reads. Crashes follow FaultPlan::random. The
// engine is configured through its own Options; WorkloadOptions holds only
// the op mix and the fault schedule.
//
// Engines differ only in how a client waits:
//   * SimRegisterGroup: think times are virtual-time events and
//     completions are callbacks inside the event loop, so a fixed seed
//     yields a fixed run (the golden digests pin it).
//   * ThreadNetwork / SocketNetwork: each process's client loop is a real
//     thread that sleeps its think time and blocks on its operation; a
//     fault thread crashes the victims on the engine's clock.
// Ticks are the engine's: virtual ticks on the sim, nanoseconds on the
// runtimes.
#pragma once

#include <vector>

#include "checker/history.hpp"
#include "checker/swmr_checker.hpp"
#include "metrics/histogram.hpp"
#include "runtime/thread_network.hpp"
#include "transport/socket_network.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {

struct WorkloadOptions {
  /// Operations each live process tries to complete.
  std::uint32_t ops_per_process = 16;
  /// Writer interleaves reads with this probability per operation.
  double writer_read_fraction = 0.0;
  /// Uniform think time in [0, think_time_max] ticks before each operation.
  Tick think_time_max = 2000;

  /// Crashes: up to `crashes` victims (<= cfg.t) at random times within
  /// `crash_horizon` ticks.
  std::uint32_t crashes = 0;
  bool allow_writer_crash = false;
  Tick crash_horizon = 50'000;

  /// Install the two-bit lemma-invariant observer (sim engine running
  /// Algorithm::kTwoBit only).
  bool invariant_checks = false;
};

struct WorkloadResult {
  std::vector<OpRecord> ops;
  Value initial;  ///< the register's initial value (cfg.initial)
  MessageStats stats;
  Tick duration = 0;
  /// Sim: the simulator ran out of events (normal). Runtimes: every client
  /// loop returned.
  bool drained = false;
  std::uint32_t crashes = 0;        ///< crashes that actually happened
  std::uint64_t invariant_checks = 0;
  Histogram write_latency;
  Histogram read_latency;

  /// Ops completed by processes that never crashed — the liveness theorem
  /// (Lemmas 8/9) says this must equal their full quota.
  std::uint32_t completed_by_correct = 0;
  std::uint32_t quota_of_correct = 0;

  /// Socket engine only.
  SocketNetwork::BackpressureStats backpressure;

  /// Run the fast atomicity checker over `ops`.
  CheckResult check_atomicity() const {
    return SwmrChecker::check(ops, initial);
  }
};

/// The op mix and the fault plan draw from `engine.seed`. A null
/// `engine.delay` means UniformDelay(1, 1000): the group's constant default
/// would keep every client in lock step.
WorkloadResult run_workload(SimRegisterGroup::Options engine,
                            const WorkloadOptions& options);
/// The op mix and the fault plan draw from `engine.seed`.
WorkloadResult run_workload(ThreadNetwork::Options engine,
                            const WorkloadOptions& options);
/// The socket engine has no seed; its op mix and fault plan draw from
/// seed 1 (its interleavings come from the OS scheduler anyway).
WorkloadResult run_workload(SocketNetwork::Options engine,
                            const WorkloadOptions& options);

}  // namespace tbr
