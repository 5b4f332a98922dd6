// Experiment D1 — read-dominated workloads (the paper's §5 motivation:
// "Due to the O(n) message cost of its read operation, it can benefit
// read-dominated applications").
//
// Mixed closed-loop workload, 1 writer + (n-1) readers, random delays; we
// report per-algorithm total traffic and read-latency percentiles. Expected
// shape: twobit's traffic tracks abd-unbounded (cheap reads dominate, its
// O(n^2) writes amortize), both far below the bounded baselines; twobit
// read latency matches abd-unbounded while carrying 2-bit control frames.
//
// The fast-path read engines (src/fastread/) add two more sections:
//   D1b  constant-Δ quiescent latencies — the textbook numbers (2Δ reads
//        for timeeff, 3Δ for ohram's one-and-a-half rounds, 2Δ writes).
//   D1c  the ACCEPTANCE sweep — reads racing a continuous writer over
//        heavy-tailed delays. This is where the engines earn their keep:
//        a two-bit replica parks its PROCEED for any reader that has not
//        yet stored the replica's freshness point, so straggling WRITE
//        gossip stalls reads; the time-efficient read never waits on the
//        reader's own catch-up, and the Oh-RAM relay round completes from
//        whichever n-t relay sets arrive first, hedging slow channels.
//        Fixed seed + virtual time = the speedups are exact constants.
#include <algorithm>

#include "bench_common.hpp"

namespace tbr::bench {
namespace {

void run_mixed_workload() {
  print_header("D1: read-dominated mixed workload (n=9, t=4)",
               "twobit ~ abd-unbounded traffic; bounded baselines pay 10x+");

  constexpr std::uint32_t n = 9;
  std::vector<Algorithm> algos = all_algorithms();
  for (const auto algo : fastread_algorithms()) algos.push_back(algo);

  TextTable table({"algorithm", "ops", "total msgs", "msgs/op",
                   "control Kbits", "read lat p50/p99 (D units)"});
  for (const auto algo : algos) {
    SimRegisterGroup::Options engine;
    engine.cfg = make_cfg(n);
    engine.algo = algo;
    engine.seed = 21;
    engine.delay = make_uniform_delay(kDelta / 2, kDelta);
    WorkloadOptions opt;
    opt.ops_per_process = 40;  // 40 writes, 320 reads: 8:1 read-dominated
    opt.think_time_max = 3000;
    const auto result = run_workload(std::move(engine), opt);
    const auto ops = result.completed_by_correct;
    const auto msgs = result.stats.total_sent();
    table.add_row(
        {algorithm_name(algo), format_count(ops), format_count(msgs),
         format_double(static_cast<double>(msgs) / ops),
         format_count(result.stats.total_control_bits() / 1000),
         result.read_latency.summary(kDelta, 1)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "who wins: twobit and abd-unbounded are within a small factor on\n"
      << "msgs/op (reads are O(n) for both; twobit pays O(n^2) only on the\n"
      << "rare writes) — but twobit ships ~2 control bits per frame vs the\n"
      << "others' growing/polynomial control payloads (control Kbits col).\n"
      << "ohram trades read messages (O(n^2) relays) for tail latency;\n"
      << "timeeff matches twobit's traffic with echo-on-adopt writes.\n\n";
}

void run_quiescent_latency() {
  print_header(
      "D1b: sequential op latency, constant delay (n=5, t=2)",
      "uncontended reads: 2D for twobit/timeeff, 3D for ohram's "
      "one-and-a-half rounds; all writes 2D");

  constexpr std::uint32_t n = 5;
  std::vector<Algorithm> engines = {Algorithm::kTwoBit};
  for (const auto algo : fastread_algorithms()) engines.push_back(algo);

  TextTable table({"engine", "read lat (D)", "read msgs", "write lat (D)",
                   "write msgs"});
  for (const auto algo : engines) {
    const OpTraffic op = measure_op_traffic(algo, n);
    table.add_row({algorithm_name(algo),
                   format_double(static_cast<double>(op.read_latency) /
                                 kDelta, 1),
                   format_count(op.read_msgs),
                   format_double(static_cast<double>(op.write_latency) /
                                 kDelta, 1),
                   format_count(op.write_msgs)});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "quiescent reads do not separate the engines — the two-bit read\n"
      << "is already one round trip when nothing is being written. The\n"
      << "fast path pays off under write concurrency (D1c below).\n\n";
}

/// Returns whether every fastread engine meets the >= 1.25x criterion.
bool run_racing_acceptance() {
  print_header(
      "D1c: reads racing a continuous writer (n=9, t=4, heavy-tail delays)",
      "fastread engines keep reads off the writer's gossip critical path");

  // Closed loops, zero think time: the writer streams writes while every
  // other process streams reads, over exponential channel delays (mean
  // 250 ticks, cap 8000). Deterministic: fixed seed, virtual time — the
  // mean latencies below are exact constants, reproducible on every run.
  constexpr std::uint32_t n = 9;
  const auto mean_read_latency = [](Algorithm algo) {
    SimRegisterGroup::Options engine;
    engine.cfg = make_cfg(n);
    engine.algo = algo;
    engine.seed = 42;
    engine.delay = make_exponential_delay(kDelta / 4, kDelta * 8);
    WorkloadOptions opt;
    opt.ops_per_process = 40;
    opt.writer_read_fraction = 0.0;
    opt.think_time_max = 0;
    return run_workload(std::move(engine), opt).read_latency.mean();
  };

  const double base = mean_read_latency(Algorithm::kTwoBit);
  TextTable table({"engine", "mean read lat (D units)", "speedup vs twobit"});
  table.add_row({"twobit", format_double(base / kDelta, 2), "1.00x"});
  double min_speedup = 0.0;
  for (const auto algo : fastread_algorithms()) {
    const double mean = mean_read_latency(algo);
    const double speedup = base / mean;
    if (min_speedup == 0.0) {
      min_speedup = speedup;
    } else {
      min_speedup = std::min(min_speedup, speedup);
    }
    table.add_row({algorithm_name(algo), format_double(mean / kDelta, 2),
                   format_double(speedup, 2) + "x"});
  }
  std::cout << table.render() << "\n";
  std::cout
      << "why: a two-bit replica parks its PROCEED until the reader stores\n"
      << "the replica's freshness point, so reads wait on straggling WRITE\n"
      << "gossip. timeeff readers pin the quorum max and never wait on\n"
      << "their own catch-up; ohram readers complete from the first n-t\n"
      << "relay quorums, hedging slow channels. Under capacity saturation\n"
      << "(service_time > 0) queueing dominates all three equally, so the\n"
      << "channel-delay model is where the protocol difference lives.\n\n";

  // The slowest of the two engines must clear the bar: the subsystem's
  // claim is that EVERY fastread engine beats two-bit reads in this mix.
  std::printf(
      "acceptance: fastread read-latency speedup = %.2fx "
      "(criterion: >= 1.25x)\n",
      min_speedup);
  return min_speedup >= 1.25;
}

}  // namespace
}  // namespace tbr::bench

int main() {
  tbr::bench::run_mixed_workload();
  tbr::bench::run_quiescent_latency();
  return tbr::bench::run_racing_acceptance() ? 0 : 1;
}
