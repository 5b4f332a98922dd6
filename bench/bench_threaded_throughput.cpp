// Experiment D4 — real-thread throughput/latency (google-benchmark).
//
// Not a paper table (the paper has no wall-clock evaluation); this is the
// systems-credibility check: the two-bit register on actual threads, ops/sec
// for writes, local reads and quorum reads at several group sizes.
#include <benchmark/benchmark.h>

#include "runtime/thread_network.hpp"

namespace tbr {
namespace {

ThreadNetwork::Options net_options(Algorithm algo, std::uint32_t n) {
  ThreadNetwork::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = (n - 1) / 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = algo;
  opt.max_delay_us = 0;  // as fast as the threads go
  return opt;
}

void BM_Write(benchmark::State& state, Algorithm algo) {
  ThreadNetwork net(net_options(algo, static_cast<std::uint32_t>(state.range(0))));
  net.start();
  std::int64_t k = 0;
  for (auto _ : state) {
    (void)net.client().write_sync(Value::from_int64(++k));
  }
  state.SetItemsProcessed(state.iterations());
  net.stop();
}

void BM_Read(benchmark::State& state, Algorithm algo) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  ThreadNetwork net(net_options(algo, n));
  net.start();
  (void)net.client().write_sync(Value::from_int64(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.client().read_sync(n - 1));
  }
  state.SetItemsProcessed(state.iterations());
  net.stop();
}

BENCHMARK_CAPTURE(BM_Write, twobit, Algorithm::kTwoBit)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Write, abd_unbounded, Algorithm::kAbdUnbounded)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Read, twobit, Algorithm::kTwoBit)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Read, abd_unbounded, Algorithm::kAbdUnbounded)
    ->Arg(3)
    ->Arg(5)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tbr

BENCHMARK_MAIN();
