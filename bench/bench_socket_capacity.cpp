// Experiment D12 — socket runtime capacity: epoll multi-loop scaling.
//
// The paper's constant-size control messages mean the socket runtime's
// scaling limit is connection handling, not bandwidth. This bench tracks
// what the multi-loop rework buys, two ways:
//
//  * capacity projection (deterministic): the runtime's event structure
//    in virtual time — every loop a serial resource, every frame a CPU
//    charge, the wire pure delay (src/transport/socket_capacity.hpp).
//    Same numbers on every host, so the 1-CPU CI box can gate on it.
//  * live engine (wall clock): the real epoll runtime under the socket
//    workload at 1 vs 4 loops. Scales with the cores the host actually
//    has — informative, not tracked.
//
// Expectation: >= 2x projected throughput at 4 loops vs 1 on a saturated
// 8-process mesh (enforced below: the exit code is the verdict).
#include "bench_common.hpp"

#include "transport/socket_capacity.hpp"
#include "transport/socket_network.hpp"

namespace tbr::bench {
namespace {

SocketCapacityOptions base_options() {
  SocketCapacityOptions opt;
  opt.n = 8;
  opt.t = 3;
  opt.clients = 64;
  opt.ops_per_client = quick_mode() ? 100 : 400;
  // Saturation regime: per-frame loop CPU dominates wire delay, so the
  // projection measures event-handling capacity, not propagation.
  opt.service_ns = 2000;
  opt.delay_ns = 20000;
  return opt;
}

double run_projection_sweep() {
  std::cout << "-- capacity projection (deterministic; 8-process mesh, "
               "64 closed-loop clients, 2us/frame CPU) --\n";
  TextTable table({"loops", "ops", "completion (ms)", "ops/ms",
                   "speedup vs 1", "busiest loop busy %", "mean latency (us)",
                   "frames"});
  double base = 0.0;
  double at_four = 0.0;
  for (const std::uint32_t loops : {1u, 2u, 4u, 8u}) {
    auto opt = base_options();
    opt.loops = loops;
    const auto p = project_socket_capacity(opt);
    if (loops == 1) base = p.ops_per_msec;
    if (loops == 4) at_four = p.ops_per_msec;
    Tick busiest = 0;
    for (const Tick b : p.loop_busy_ns) busiest = std::max(busiest, b);
    table.add_row(
        {format_count(loops), format_count(p.ops),
         format_double(static_cast<double>(p.completion_ns) / 1e6, 2),
         format_double(p.ops_per_msec, 1),
         format_double(base > 0 ? p.ops_per_msec / base : 1.0, 2) + "x",
         format_double(p.completion_ns > 0
                           ? 100.0 * static_cast<double>(busiest) /
                                 static_cast<double>(p.completion_ns)
                           : 0.0,
                       1) +
             "%",
         format_double(p.mean_latency_us, 1), format_count(p.frames)});
  }
  std::cout << table.render();
  const double speedup = base > 0 ? at_four / base : 0.0;
  std::cout << "acceptance: socket 4-loop capacity speedup = "
            << format_double(speedup, 2) << "x (criterion: >= 2x)\n\n";
  return speedup;
}

void run_latency_regime() {
  // The other regime: wire delay dominates loop CPU (an unloaded mesh).
  // Loops cannot help here — the op spends its life on the wire — so the
  // sweep should stay flat. Printing it keeps the projection honest: a
  // model that scales everything with loop count is broken.
  std::cout << "-- delay-dominated regime (loops should NOT help; "
               "informative) --\n";
  TextTable table({"loops", "ops/ms", "mean latency (us)"});
  for (const std::uint32_t loops : {1u, 4u}) {
    auto opt = base_options();
    opt.loops = loops;
    opt.clients = 8;           // one per process: no queueing pressure
    opt.service_ns = 200;      // CPU nearly free
    opt.delay_ns = 100'000;    // the wire is the op's whole life
    const auto p = project_socket_capacity(opt);
    table.add_row({format_count(loops), format_double(p.ops_per_msec, 2),
                   format_double(p.mean_latency_us, 1)});
  }
  std::cout << table.render() << "\n";
}

void run_live_engine() {
  std::cout << "-- live engine (wall clock; scales with host cores — "
               "informative, not tracked) --\n";
  TextTable table({"loops", "ops", "wall ms", "ops/sec", "park events",
                   "resume events"});
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
    table.add_row(
        {format_count(loops), format_count(r.completed_by_correct),
         format_double(wall * 1e3, 1),
         format_double(wall > 0 ? r.completed_by_correct / wall : 0.0, 0),
         format_count(r.backpressure.park_events),
         format_count(r.backpressure.resume_events)});
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
  run_live_engine();
  std::cout
      << "The projection isolates what loops buy: in the saturated regime\n"
      << "every frame charges loop CPU, so 1 loop serializes the entire\n"
      << "mesh's sends, handles, and replies on one clock while L loops\n"
      << "spread them pid%L. In the delay-dominated regime the sweep is\n"
      << "flat — loops multiply CPU, not the speed of light. The live\n"
      << "engine rows run the real epoll runtime (and verify atomicity);\n"
      << "their wall clock tracks host cores, so CI gates only on the\n"
      << "projection line above.\n";
  if (speedup < 2.0) {
    std::cout << "ACCEPTANCE FAILED: 4-loop speedup " << speedup
              << "x < 2x\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tbr::bench

int main() { return tbr::bench::run(); }
