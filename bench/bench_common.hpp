// Shared helpers for the bench binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.hpp"
#include "workload/workload.hpp"

namespace tbr::bench {

/// CI smoke mode (tools/run_benches.sh --quick): drivers shrink their arg
/// sweeps and repetition counts so the whole bench suite stays under a few
/// minutes while still exercising every code path and emitting every JSON.
inline bool quick_mode() {
  const char* flag = std::getenv("TBR_BENCH_QUICK");
  return flag != nullptr && flag[0] != '\0' && flag[0] != '0';
}

inline constexpr Tick kDelta = 1000;  // one Δ in virtual ticks

inline GroupConfig make_cfg(std::uint32_t n, ProcessId writer = 0) {
  GroupConfig cfg;
  cfg.n = n;
  cfg.t = (n - 1) / 2;  // the maximum the model tolerates
  cfg.writer = writer;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

inline SimRegisterGroup make_group(Algorithm algo, std::uint32_t n,
                                   std::uint64_t seed = 1) {
  SimRegisterGroup::Options opt;
  opt.cfg = make_cfg(n);
  opt.algo = algo;
  opt.seed = seed;
  opt.delay = make_constant_delay(kDelta);
  return SimRegisterGroup(std::move(opt));
}

/// Messages used by one steady-state write / read at size n.
struct OpTraffic {
  std::uint64_t write_msgs = 0;
  std::uint64_t read_msgs = 0;
  Tick write_latency = 0;
  Tick read_latency = 0;
};

inline OpTraffic measure_op_traffic(Algorithm algo, std::uint32_t n) {
  auto group = make_group(algo, n);
  group.client().write_sync(Value::from_int64(1));  // warm-up: everyone learns a value
  group.settle();

  OpTraffic out;
  auto before = group.net().stats().snapshot();
  out.write_latency = group.client().write_sync(Value::from_int64(2)).latency;
  group.settle();
  out.write_msgs = group.net().stats().diff_since(before).total_sent();

  before = group.net().stats().snapshot();
  const auto read = group.client().read_sync(n - 1);
  group.settle();
  out.read_msgs = group.net().stats().diff_since(before).total_sent();
  out.read_latency = read.latency;
  return out;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_expectation) {
  std::cout << "== " << experiment << " ==\n";
  std::cout << "paper: " << paper_expectation << "\n\n";
}

}  // namespace tbr::bench
