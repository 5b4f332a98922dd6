// Sensor telemetry fan-out: the read-dominated scenario the paper's
// conclusion motivates ("read-dominated applications ... where communication
// cost is the critical parameter").
//
// A sensor node (writer) publishes readings; 8 dashboard nodes poll at a
// much higher rate over a jittery simulated network. The example contrasts
// the two-bit algorithm against unbounded ABD on the same workload: nearly
// identical latency, but the two-bit register moves a fraction of the
// control bytes.
//
//   build/examples/sensor_telemetry
#include <iostream>

#include "workload/workload.hpp"

int main() {
  using namespace tbr;

  std::cout << "sensor (1 writer) + 8 dashboards, 25 samples + ~200 polls\n\n";

  for (const auto algo : {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    SimRegisterGroup::Options engine;
    engine.cfg.n = 9;
    engine.cfg.t = 4;
    engine.cfg.writer = 0;
    engine.cfg.initial = Value::from_int64(0);
    engine.algo = algo;
    engine.seed = 2024;
    engine.delay = make_uniform_delay(200, 1000);  // jittery WAN-ish link
    WorkloadOptions opt;
    opt.ops_per_process = 25;
    opt.think_time_max = 2000;

    const auto result = run_workload(std::move(engine), opt);
    const auto check = result.check_atomicity();

    std::cout << "== " << algorithm_name(algo) << " ==\n";
    std::cout << "  polls completed : " << result.read_latency.count() << "\n";
    std::cout << "  samples written : " << result.write_latency.count()
              << "\n";
    std::cout << "  read latency    : " << result.read_latency.summary(1000.0)
              << " (min/p50/p99/max, x1000 ticks)\n";
    std::cout << "  frames sent     : " << result.stats.total_sent() << "\n";
    std::cout << "  control traffic : "
              << result.stats.total_control_bits() / 8 << " bytes\n";
    std::cout << "  data traffic    : " << result.stats.total_data_bits() / 8
              << " bytes\n";
    std::cout << "  atomicity       : " << (check.ok ? "OK" : check.error)
              << "\n\n";
  }

  std::cout << "same workload, same latency class - but compare the control\n"
            << "traffic: every two-bit frame spends 2 bits on coordination,\n"
            << "while ABD ships sequence numbers and request tags.\n";
  return 0;
}
