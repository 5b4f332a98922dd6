#include "trace.hpp"

#include <cstdio>
#include <cstring>

namespace tbrbench {

void Tracer::record(const char* name, const char* layer, std::uint32_t tid,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t child_ns, bool root) {
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  if (root) root_ns_ += dur;
  Totals* t = nullptr;
  for (Totals& candidate : totals_) {
    if (std::strcmp(candidate.name, name) == 0) {
      t = &candidate;
      break;
    }
  }
  if (t == nullptr) t = &totals_.emplace_back(Totals{name, layer});
  t->count += 1;
  t->total_ns += dur;
  t->self_ns += dur > child_ns ? dur - child_ns : 0;
  if (events_.size() < events_.capacity()) {
    events_.push_back(Event{name, layer, tid, start_ns, end_ns});
  }
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint64_t origin_ns) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  for (const Event& e : events_) {
    const double ts =
        static_cast<double>(static_cast<std::int64_t>(e.start_ns - origin_ns)) /
        1e3;
    const double dur = static_cast<double>(e.end_ns - e.start_ns) / 1e3;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", e.name, e.layer, e.tid, ts, dur);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Tracer::print_self_times(std::ostream& os) const {
  const std::uint64_t wall_ns = root_ns_;
  const auto share = [wall_ns](std::uint64_t ns) {
    return wall_ns > 0 ? 100.0 * static_cast<double>(ns) /
                             static_cast<double>(wall_ns)
                       : 0.0;
  };
  char line[160];
  os << "self time by span (share of traced wall time):\n";
  for (const Totals& t : totals_) {
    std::snprintf(line, sizeof line,
                  "  %-14s %-10s count %10llu  total %12.3f ms  self %12.3f ms"
                  "  %7.2f%%\n",
                  t.name, t.layer, static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6, share(t.self_ns));
    os << line;
  }
  os << "self time by layer:\n";
  std::vector<const char*> layers;
  for (const Totals& t : totals_) {
    bool seen = false;
    for (const char* l : layers) seen = seen || std::strcmp(l, t.layer) == 0;
    if (!seen) layers.push_back(t.layer);
  }
  for (const char* layer : layers) {
    std::uint64_t self = 0;
    for (const Totals& t : totals_) {
      if (std::strcmp(t.layer, layer) == 0) self += t.self_ns;
    }
    std::snprintf(line, sizeof line, "  %-10s self %12.3f ms  %7.2f%%\n",
                  layer, static_cast<double>(self) / 1e6, share(self));
    os << line;
  }
}

}  // namespace tbrbench
