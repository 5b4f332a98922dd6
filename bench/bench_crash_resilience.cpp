// Experiment D2 — crash resilience: latency and liveness as crashes
// approach the t < n/2 bound.
//
// The model promises undisturbed termination for any f <= t crashes
// (Lemmas 8/9); quorum waits are over the fastest n-t processes, so dead
// processes must not appear on the critical path. We sweep f for n = 9
// (t = 4) and report completed ops and latency percentiles.
#include "bench_common.hpp"

namespace tbr::bench {
namespace {

void run() {
  print_header("D2: crash resilience sweep (n=9, t=4, crashes f=0..4)",
               "all ops of correct processes complete at every f <= t; "
               "latency undisturbed");

  TextTable table({"algorithm", "f", "correct-proc ops (done/quota)",
                   "write lat p50/max (D)", "read lat p50/max (D)"});
  for (const auto algo : {Algorithm::kTwoBit, Algorithm::kAbdUnbounded}) {
    for (std::uint32_t f = 0; f <= 4; ++f) {
      SimRegisterGroup::Options engine;
      engine.cfg = make_cfg(9);
      engine.algo = algo;
      engine.seed = 31 + f;
      engine.delay = make_constant_delay(kDelta);
      WorkloadOptions opt;
      opt.ops_per_process = 24;
      opt.think_time_max = 1500;
      opt.crashes = f;
      opt.crash_horizon = 40'000;
      const auto result = run_workload(std::move(engine), opt);
      auto lat = [&](const Histogram& h) {
        if (h.empty()) return std::string("-");
        return format_double(static_cast<double>(h.percentile(50)) / kDelta,
                             1) +
               "/" +
               format_double(static_cast<double>(h.max()) / kDelta, 1);
      };
      table.add_row({algorithm_name(algo), std::to_string(f),
                     format_count(result.completed_by_correct) + "/" +
                         format_count(result.quota_of_correct),
                     lat(result.write_latency), lat(result.read_latency)});
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "done == quota on every row: crashes below the minority bound\n"
            << "never block a correct process, and constant-D latencies show\n"
            << "dead processes are off the quorum critical path.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
