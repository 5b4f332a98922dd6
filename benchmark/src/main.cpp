// tbr_bench: run one benchmark workload and report its metrics.
//
//   tbr_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--smoke]
//   tbr_bench --list
//
// Prints every metric as "metric <name> = <value> <unit>", then, as the
// last line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A traced run also writes its Chrome trace to
// traces/<workload>-seed<N>.json next to the binary. Exits 1 when a
// correctness check fails, 2 on a usage or runtime error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "runner.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "tbr_bench: " << why
            << "\nusage: tbr_bench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--smoke] | --list\n";
  return 2;
}

void print_metrics(const std::map<std::string, tbrbench::Metric>& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("metric %-30s = %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  tbrbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--list") {
      for (const auto& w : tbrbench::workloads()) {
        std::printf("%.*s\n", static_cast<int>(w.name.size()), w.name.data());
      }
      return 0;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--workload") {
      if ((v = value()) == nullptr) return usage("--workload needs a name");
      workload = v;
    } else if (arg == "--seed") {
      if ((v = value()) == nullptr) return usage("--seed needs a number");
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      if ((v = value()) == nullptr) return usage("--seconds needs a number");
      opt.seconds = std::strtod(v, nullptr);
      if (!(opt.seconds > 0 && opt.seconds <= 3600)) {
        return usage("--seconds must be in (0, 3600]");
      }
    } else if (arg == "--trace") {
      if ((v = value()) == nullptr) return usage("--trace needs 0 or 1");
      opt.trace = std::string_view(v) == "1";
      if (!opt.trace && std::string_view(v) != "0") {
        return usage("--trace needs 0 or 1");
      }
    } else {
      return usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  const tbrbench::WorkloadSpec* spec = tbrbench::find_workload(workload);
  if (spec == nullptr) return usage("unknown or missing --workload");
  if (opt.trace) {
    const std::filesystem::path dir =
        std::filesystem::path(argv[0]).parent_path() / "traces";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    opt.trace_path = (dir / (workload + "-seed" + std::to_string(opt.seed) +
                             ".json"))
                         .string();
  }

  tbrbench::RunResult res;
  try {
    std::printf("workload %s seed %llu seconds %g trace %d%s\n",
                workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
    std::fflush(stdout);
    res = tbrbench::run_workload(*spec, opt, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "tbr_bench: " << e.what() << "\n";
    return 2;
  }
  std::cout.flush();

  const auto& shown = opt.trace ? res.per_layer : res.end_to_end;
  print_metrics(shown);
  std::printf("check %s: %llu ops attempted, %llu failed%s%s\n",
              res.correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.violation.empty() ? "" : "; ", res.violation.c_str());

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, m] : shown) {
    std::snprintf(number, sizeof number, "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
