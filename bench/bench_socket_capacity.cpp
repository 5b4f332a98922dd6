// Experiment D12 — socket runtime capacity: epoll multi-loop scaling.
//
// The paper's constant-size control messages mean the socket runtime's
// scaling limit is connection handling, not bandwidth. This bench tracks
// what the multi-loop rework buys, two ways:
//
//  * capacity projection (deterministic): the real register code on the
//    simulator, whose service-time CPU model is shared between processes
//    pid % loops the way SocketNetwork shards its epoll loops
//    (SimNetwork::Options::service_loops). Every handled frame costs its
//    loop CPU and the wire is pure delay; ticks are nanoseconds. Same
//    numbers on every host, so the 1-CPU CI box can gate on it.
//  * live engine (wall clock): the real epoll runtime under the socket
//    workload at 1 vs 4 loops, with the loops' syscalls per op. Scales
//    with the cores the host actually has — informative, not tracked.
//
// Expectation: >= 2x projected throughput at 4 loops vs 1 on a saturated
// 8-process mesh (enforced below: the exit code is the verdict, as is every
// projection run's atomicity and liveness).
#include "bench_common.hpp"

namespace tbr::bench {
namespace {

int failures = 0;

struct Projection {
  std::uint32_t ops = 0;
  Tick duration_ns = 0;
  double ops_per_ms = 0;
  double frames_per_op = 0;
  double mean_latency_us = 0;
};

/// Run `algo` closed-loop on the capacity-model sim: every process keeps
/// one operation in flight (no think time) until it has done
/// `ops_per_process`. A non-atomic or incomplete run counts as a failure.
Projection project(Algorithm algo, std::uint32_t n, std::uint32_t loops,
                   Tick service_ns, Tick delay_ns,
                   std::uint32_t ops_per_process) {
  SimRegisterGroup::Options engine;
  engine.cfg = make_cfg(n);
  engine.algo = algo;
  engine.delay = make_constant_delay(delay_ns);
  engine.service_time = service_ns;
  engine.service_loops = loops;
  WorkloadOptions opt;
  opt.ops_per_process = ops_per_process;
  opt.think_time_max = 0;
  const auto r = run_workload(std::move(engine), opt);

  const auto check = r.check_atomicity();
  if (!check.ok || r.completed_by_correct != r.quota_of_correct) {
    std::cout << "PROJECTION FAILED: " << algorithm_name(algo) << " n=" << n
              << " loops=" << loops << ": "
              << (check.ok ? "completed " +
                                 std::to_string(r.completed_by_correct) +
                                 " of " + std::to_string(r.quota_of_correct)
                           : check.error)
              << "\n";
    ++failures;
  }
  Projection p;
  p.ops = r.completed_by_correct;
  p.duration_ns = r.duration;
  if (r.duration > 0) {
    p.ops_per_ms = p.ops / (static_cast<double>(r.duration) / 1e6);
  }
  if (p.ops > 0) {
    p.frames_per_op = static_cast<double>(r.stats.total_sent()) / p.ops;
  }
  const auto samples = r.write_latency.count() + r.read_latency.count();
  if (samples > 0) {
    const auto sum = [](const Histogram& h) {
      return h.empty() ? 0.0 : h.mean() * static_cast<double>(h.count());
    };
    p.mean_latency_us = (sum(r.write_latency) + sum(r.read_latency)) /
                        static_cast<double>(samples) / 1e3;
  }
  return p;
}

double run_projection_sweep() {
  std::cout << "-- capacity projection (deterministic; real two-bit code, "
               "8-process mesh, one op in flight per process, 2us/frame "
               "CPU) --\n";
  TextTable table({"loops", "ops", "completion (ms)", "ops/ms",
                   "speedup vs 1", "mean latency (us)", "frames/op"});
  double base = 0.0;
  double at_four = 0.0;
  for (const std::uint32_t loops : {1u, 2u, 4u, 8u}) {
    // Saturation regime: per-frame loop CPU dominates wire delay, so the
    // projection measures event-handling capacity, not propagation.
    const auto p = project(Algorithm::kTwoBit, 8, loops, /*service_ns=*/2000,
                           /*delay_ns=*/20'000, quick_mode() ? 400 : 3200);
    if (loops == 1) base = p.ops_per_ms;
    if (loops == 4) at_four = p.ops_per_ms;
    table.add_row(
        {format_count(loops), format_count(p.ops),
         format_double(static_cast<double>(p.duration_ns) / 1e6, 2),
         format_double(p.ops_per_ms, 1),
         format_double(base > 0 ? p.ops_per_ms / base : 1.0, 2) + "x",
         format_double(p.mean_latency_us, 1),
         format_double(p.frames_per_op, 2)});
  }
  std::cout << table.render();
  const double speedup = base > 0 ? at_four / base : 0.0;
  std::cout << "acceptance: socket 4-loop capacity speedup = "
            << format_double(speedup, 2) << "x (criterion: >= 2x)\n\n";
  return speedup;
}

void run_latency_regime() {
  // The other regime: wire delay dominates loop CPU (an unloaded mesh).
  // Loops cannot help here — the op spends its life on the wire — so more
  // loops must not raise throughput. Checking it keeps the projection
  // honest: a model that scales everything with loop count is broken.
  std::cout << "-- delay-dominated regime (loops must not raise "
               "throughput) --\n";
  TextTable table({"loops", "ops/ms", "mean latency (us)"});
  double base = 0.0;
  for (const std::uint32_t loops : {1u, 4u}) {
    const auto p = project(Algorithm::kTwoBit, 8, loops, /*service_ns=*/200,
                           /*delay_ns=*/100'000, quick_mode() ? 100 : 400);
    if (loops == 1) {
      base = p.ops_per_ms;
    } else if (p.ops_per_ms > base) {
      std::cout << "PROJECTION FAILED: " << loops
                << " loops raised delay-dominated throughput\n";
      ++failures;
    }
    table.add_row({format_count(loops), format_double(p.ops_per_ms, 2),
                   format_double(p.mean_latency_us, 1)});
  }
  std::cout << table.render() << "\n";
}

void run_engine_table() {
  // What each register engine's frame budget costs in capacity: two-bit
  // WRITE gossip and Oh-RAM's O(n^2) read relays are frames every replica
  // CPU must handle.
  std::cout << "-- capacity per register engine (deterministic; one CPU per "
               "process, 2us/frame; informative) --\n";
  TextTable table({"engine", "n", "ops", "ops/ms", "frames/op"});
  for (const Algorithm algo :
       {Algorithm::kTwoBit, Algorithm::kOhRam, Algorithm::kTimeEfficient}) {
    for (const std::uint32_t n : {3u, 5u, 9u}) {
      const auto p = project(algo, n, /*loops=*/0, /*service_ns=*/2000,
                             /*delay_ns=*/20'000, quick_mode() ? 100 : 400);
      table.add_row({algorithm_name(algo), format_count(n),
                     format_count(p.ops), format_double(p.ops_per_ms, 1),
                     format_double(p.frames_per_op, 2)});
    }
  }
  std::cout << table.render() << "\n";
}

void run_live_engine() {
  std::cout << "-- live engine (wall clock; scales with host cores — "
               "informative, not tracked) --\n";
  TextTable table({"loops", "ops", "wall ms", "ops/sec", "park events",
                   "resume events", "syscalls/op"});
  for (const std::uint32_t loops : {1u, 4u}) {
    SocketNetwork::Options engine;
    engine.cfg = make_cfg(5);
    engine.loops = loops;
    WorkloadOptions opt;
    opt.ops_per_process = quick_mode() ? 60 : 200;
    opt.think_time_max = 150'000;  // ns
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_workload(std::move(engine), opt);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto check = r.check_atomicity();
    if (!check.ok) {
      std::cout << "ATOMICITY VIOLATION: " << check.error << "\n";
      std::exit(1);
    }
    const double ops = r.completed_by_correct;
    table.add_row(
        {format_count(loops), format_count(r.completed_by_correct),
         format_double(wall * 1e3, 1),
         format_double(wall > 0 ? ops / wall : 0.0, 0),
         format_count(r.backpressure.park_events),
         format_count(r.backpressure.resume_events),
         format_double(
             ops > 0 ? r.backpressure.syscalls.total() / ops : 0.0, 2)});
  }
  std::cout << table.render() << "\n";
}

int run() {
  print_header(
      "D12: socket runtime capacity (epoll multi-loop with backpressure)",
      "derived experiment — N event loops over the loopback mesh; >= 2x "
      "projected throughput at 4 loops vs 1");
  const double speedup = run_projection_sweep();
  run_latency_regime();
  run_engine_table();
  run_live_engine();
  std::cout
      << "The projection isolates what loops buy: in the saturated regime\n"
      << "every handled frame charges loop CPU, so 1 loop serializes the\n"
      << "whole mesh's protocol traffic on one clock while L loops spread\n"
      << "it pid%L. In the delay-dominated regime loops do not raise\n"
      << "throughput — they multiply CPU, not the speed of light. The live\n"
      << "engine rows run the real epoll runtime (and verify atomicity);\n"
      << "their wall clock tracks host cores, so CI gates only on the\n"
      << "projection lines above.\n";
  if (speedup < 2.0) {
    std::cout << "ACCEPTANCE FAILED: 4-loop speedup " << speedup
              << "x < 2x\n";
    return 1;
  }
  if (failures > 0) {
    std::cout << "ACCEPTANCE FAILED: " << failures
              << " projection run(s) failed\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tbr::bench

int main() { return tbr::bench::run(); }
