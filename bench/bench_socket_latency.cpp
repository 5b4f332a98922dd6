// Experiment D11 — operation latency on real TCP sockets (google-benchmark).
//
// Not a paper experiment (the paper has no wall-clock evaluation); this is
// the systems sanity check for the socket runtime: real kernel round
// trips, real framing. The Δ-denominated claims (2Δ writes / ≤4Δ reads vs
// 12-18Δ for the bounded baselines) are measured exactly in
// bench_table1 (lines 5-6) on the simulator; here the same relative ordering
// should appear as wall-clock microseconds, modulo scheduler noise.
#include <benchmark/benchmark.h>

#include "transport/socket_network.hpp"

namespace tbr {
namespace {

SocketNetwork::Options make_options(Algorithm algo, std::uint32_t n) {
  SocketNetwork::Options opt;
  opt.cfg.n = n;
  opt.cfg.t = (n - 1) / 2;
  opt.cfg.writer = 0;
  opt.cfg.initial = Value::from_int64(0);
  opt.algo = algo;
  return opt;
}

void BM_SocketWrite(benchmark::State& state) {
  const auto algo = static_cast<Algorithm>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  SocketNetwork net(make_options(algo, n));
  net.start();
  std::int64_t k = 0;
  for (auto _ : state) {
    (void)net.client().write_sync(Value::from_int64(++k));
  }
  state.SetLabel(algorithm_name(algo) + " n=" + std::to_string(n));
  net.stop();
}

void BM_SocketRead(benchmark::State& state) {
  const auto algo = static_cast<Algorithm>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  SocketNetwork net(make_options(algo, n));
  net.start();
  (void)net.client().write_sync(Value::from_int64(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.client().read_sync(n - 1));
  }
  state.SetLabel(algorithm_name(algo) + " n=" + std::to_string(n));
  net.stop();
}

void register_all() {
  for (const auto algo : {Algorithm::kTwoBit, Algorithm::kAbdUnbounded,
                          Algorithm::kAbdBounded, Algorithm::kAttiya}) {
    for (const std::int64_t n : {3, 5}) {
      // Each op is 0.2-3 ms of real kernel round trips; a short MinTime
      // keeps the full-sweep artifact (bench_output.txt) affordable while
      // still averaging hundreds of operations per row.
      benchmark::RegisterBenchmark("SocketWrite", BM_SocketWrite)
          ->Args({static_cast<std::int64_t>(algo), n})
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
      benchmark::RegisterBenchmark("SocketRead", BM_SocketRead)
          ->Args({static_cast<std::int64_t>(algo), n})
          ->Unit(benchmark::kMicrosecond)
          ->MinTime(0.05);
    }
  }
}

}  // namespace
}  // namespace tbr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  tbr::register_all();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
