// Experiment D8 — the model boundary.
//
// The paper's system model (§2.1) promises reliable channels and at most
// t < n/2 crashes, and §2.2 cites the ABD impossibility for the latter.
// This bench violates each assumption on purpose and reports what breaks:
// completed operations stay atomic in every cell (safety never depends on
// the environment), while liveness degrades exactly as the theory says.
// The two-bit register's liveness dies at ~1% frame loss, because the
// alternating-bit value stream has no slack (one lost WRITE wedges a pair
// forever); a deployment gets reliable channels from a retransmitting
// transport such as TCP, which the socket engine runs on.
#include "bench_common.hpp"

namespace tbr::bench {
namespace {

struct BoundaryRow {
  std::uint32_t runs = 0;
  std::uint32_t stalled_runs = 0;
  std::uint64_t ops_done = 0;
  std::uint64_t ops_quota = 0;
  std::uint64_t frames_lost = 0;
  bool all_atomic = true;
};

BoundaryRow loss_sweep(Algorithm algo, double loss_rate) {
  BoundaryRow row;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SimRegisterGroup::Options engine;
    engine.cfg = make_cfg(5);
    engine.algo = algo;
    engine.seed = seed;
    engine.loss_rate = loss_rate;
    WorkloadOptions opt;
    opt.ops_per_process = 20;
    opt.think_time_max = 200;
    const auto result = run_workload(std::move(engine), opt);
    row.runs += 1;
    row.ops_done += result.completed_by_correct;
    row.ops_quota += result.quota_of_correct;
    row.frames_lost += result.stats.total_dropped();
    if (result.completed_by_correct < result.quota_of_correct) {
      row.stalled_runs += 1;
    }
    if (!result.check_atomicity().ok) row.all_atomic = false;
  }
  return row;
}

void run() {
  print_header("D8: model boundary (out-of-model faults, n=5, 12 runs/cell)",
               "safety survives everything; liveness needs reliable "
               "channels and a live majority");

  std::cout << "-- reliable channels are necessary (frame loss sweep) --\n";
  TextTable table({"algorithm", "loss", "runs stalled", "ops done/quota",
                   "frames lost", "completed ops atomic"});
  struct Config {
    const char* label;
    Algorithm algo;
  };
  for (const Config& config : {Config{"twobit", Algorithm::kTwoBit},
                               Config{"abd-unbounded",
                                      Algorithm::kAbdUnbounded}}) {
    for (const double loss : {0.0, 0.01, 0.05, 0.10}) {
      const auto row = loss_sweep(config.algo, loss);
      table.add_row({config.label, format_double(loss, 2),
                     std::to_string(row.stalled_runs) + "/" +
                         std::to_string(row.runs),
                     format_count(row.ops_done) + "/" +
                         format_count(row.ops_quota),
                     format_count(row.frames_lost),
                     row.all_atomic ? "yes" : "NO"});
    }
  }
  std::cout << table.render() << "\n";

  std::cout << "-- a live majority is necessary (crash f of n=5, t=2) --\n";
  TextTable crash_table(
      {"crashes f", "within model", "write completes", "read completes"});
  for (std::uint32_t f = 0; f <= 3; ++f) {
    SimRegisterGroup::Options gopt;
    gopt.cfg = make_cfg(5);
    SimRegisterGroup group(std::move(gopt));
    group.client().write_sync(Value::from_int64(1));
    for (ProcessId pid = 4; pid > 4 - f; --pid) group.crash(pid);
    bool write_done = false;
    bool read_done = false;
    group.client().write(Value::from_int64(2),
                         [&](const OpResult&) { write_done = true; });
    group.client().read(1, [&](const OpResult&) { read_done = true; });
    (void)group.net().run();
    crash_table.add_row({std::to_string(f), f <= 2 ? "yes (f <= t)" : "NO",
                         write_done ? "yes" : "NO — stalls forever",
                         read_done ? "yes" : "NO — stalls forever"});
  }
  std::cout << crash_table.render() << "\n";
  std::cout
      << "every 'completed ops atomic' cell is yes — losing frames or a\n"
      << "majority never corrupts the register, it only stops progress:\n"
      << "the two CAMP assumptions are exactly the liveness preconditions\n"
      << "(and t < n/2 is the ABD impossibility bound the paper cites).\n\n"
      << "note the asymmetry: the two-bit register stalls at far lower\n"
      << "loss than ABD. One lost WRITE frame kills that pair's\n"
      << "alternating-bit stream *permanently* (every later value on the\n"
      << "channel waits behind the hole), whereas ABD loses at most the\n"
      << "operation in flight. The price of 2-bit frames is that the\n"
      << "channel's reliability IS the protocol's sequencing — a real\n"
      << "deployment needs a retransmitting transport underneath, which\n"
      << "is exactly where the alternating-bit protocol came from\n"
      << "(Bartlett et al. 1969, the paper's reference [6]). TCP is that\n"
      << "transport: the socket engine runs every protocol over it, and\n"
      << "the register inside each frame still ships exactly 2 control\n"
      << "bits.\n";
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run();
  return 0;
}
