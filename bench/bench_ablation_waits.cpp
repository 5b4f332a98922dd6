// Experiment D6 — what each wait statement buys and costs.
//
// Fig. 1 contains three synchronization devices on the read path:
//   line 20  responder waits until the reader is fresh    -> Claim 2
//   line 7   reader waits for n-t PROCEEDs                -> (plumbing for 20)
//   line 9   reader waits for n-t w_sync >= sn            -> Claim 3
// and ABD's read has its write-back phase (also Claim 3). This bench
// removes them one at a time and reports: read latency saved vs atomicity
// violations incurred, over a 30-seed adversarial sweep. The faithful rows
// must show zero violations; each ablated row must break exactly its claim.
#include "bench_common.hpp"

#include "abd/phased_process.hpp"
#include "core/twobit_process.hpp"
#include "workload/adversarial.hpp"

namespace tbr::bench {
namespace {

struct AblationResult {
  CheckStats stats;
  double read_p50 = 0;  // in Δ
  std::uint64_t msgs_per_read = 0;
};

AblationResult sweep(const ProcessFactory& factory, int seeds) {
  AblationResult out;
  Histogram lat;
  std::uint64_t reads = 0;
  std::uint64_t read_msgs_proxy = 0;
  for (int s = 0; s < seeds; ++s) {
    SimRegisterGroup::Options engine;
    engine.cfg = make_cfg(5);
    engine.seed = static_cast<std::uint64_t>(s);
    engine.process_factory = factory;
    switch (s % 3) {
      case 0:
        engine.delay = make_uniform_delay(1, 1500);
        break;
      case 1:
        engine.delay = make_flipflop_delay(3, 2200, 5);
        break;
      default:
        engine.delay = make_exponential_delay(400, 9000);
    }
    WorkloadOptions opt;
    opt.ops_per_process = 24;
    opt.think_time_max = 120;
    const auto result = run_workload(std::move(engine), opt);
    const auto stats = SwmrChecker::analyze(result.ops, result.initial);
    out.stats.c0 += stats.c0;
    out.stats.c1 += stats.c1;
    out.stats.c2 += stats.c2;
    out.stats.c3 += stats.c3;
    out.stats.model += stats.model;
    out.stats.reads_checked += stats.reads_checked;
    if (!result.read_latency.empty()) {
      lat.add(result.read_latency.percentile(50));
    }
    reads += result.read_latency.count();
    read_msgs_proxy += result.stats.total_sent();
  }
  out.read_p50 = lat.empty()
                     ? 0.0
                     : static_cast<double>(lat.percentile(50)) / kDelta;
  out.msgs_per_read = reads == 0 ? 0 : read_msgs_proxy / reads;
  return out;
}

ProcessFactory twobit(TwoBitOptions options) {
  return [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
}

void run() {
  print_header(
      "D6: wait-statement ablations (n=5, 30 adversarial seeds each)",
      "each removed wait breaks exactly its claim; faithful rows stay clean");

  TextTable table({"variant", "reads checked", "read p50 (D)",
                   "C2 stale", "C3 inversions", "other"});
  auto add = [&](const std::string& name, const AblationResult& r) {
    table.add_row({name, format_count(r.stats.reads_checked),
                   format_double(r.read_p50, 1), format_count(r.stats.c2),
                   format_count(r.stats.c3),
                   format_count(r.stats.c0 + r.stats.c1 + r.stats.model)});
  };

  add("twobit (faithful)", sweep(twobit({}), 30));
  {
    TwoBitOptions o;
    o.skip_read_second_wait = true;
    add("twobit - line 9", sweep(twobit(o), 30));
  }
  {
    TwoBitOptions o;
    o.eager_proceed = true;
    add("twobit - line 20", sweep(twobit(o), 30));
  }
  add("abd (2-phase read)", sweep(
                                [](const GroupConfig& cfg, ProcessId pid) {
                                  return make_abd_unbounded_process(cfg, pid);
                                },
                                30));
  add("abd - write-back", sweep(
                              [](const GroupConfig& cfg, ProcessId pid) {
                                return make_abd_regular_process(cfg, pid);
                              },
                              30));

  std::cout << table.render() << "\n";
  std::cout
      << "random schedules rarely line up the inversion window, so the\n"
      << "decisive evidence is the targeted adversarial schedule\n"
      << "(src/workload/adversarial.*): value 2 crawls toward the stale\n"
      << "side while a fresh reader completes before a stale reader "
         "starts.\n\n";

  TextTable targeted({"variant", "fresh read", "stale-side read",
                      "verdict"});
  auto verdict = [](const ScenarioOutcome& o, const char* broken) {
    if (o.stats.total() == 0) return std::string("atomic");
    return std::string(broken) + " x" +
           std::to_string(o.stats.c2 + o.stats.c3);
  };
  {
    const auto o = run_twobit_inversion_scenario(TwoBitOptions{});
    targeted.add_row({"twobit (faithful)", std::to_string(o.first_read_index),
                      std::to_string(o.second_read_index),
                      verdict(o, "?")});
  }
  {
    TwoBitOptions opt;
    opt.skip_read_second_wait = true;
    const auto o = run_twobit_inversion_scenario(opt);
    targeted.add_row({"twobit - line 9", std::to_string(o.first_read_index),
                      std::to_string(o.second_read_index),
                      verdict(o, "C3 inversion")});
  }
  {
    TwoBitOptions opt;
    opt.eager_proceed = true;
    const auto o = run_twobit_stale_read_scenario(opt);
    targeted.add_row({"twobit - line 20", "(write done)",
                      std::to_string(o.second_read_index),
                      verdict(o, "C2 stale")});
  }
  {
    const auto o = run_abd_inversion_scenario(false);
    targeted.add_row({"abd (2-phase read)", std::to_string(o.first_read_index),
                      std::to_string(o.second_read_index), verdict(o, "?")});
  }
  {
    const auto o = run_abd_inversion_scenario(true);
    targeted.add_row({"abd - write-back", std::to_string(o.first_read_index),
                      std::to_string(o.second_read_index),
                      verdict(o, "C3 inversion")});
  }
  std::cout << targeted.render() << "\n";
  std::cout
      << "the ablated variants are faster per read — and wrong, each in\n"
      << "precisely the way the proof predicts: line 20 guards against\n"
      << "stale reads (Claim 2), line 9 and ABD's write-back guard against\n"
      << "new/old inversion (Claim 3). Atomicity is exactly the sum of\n"
      << "these waits; a 'regular' register is what remains without them.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
