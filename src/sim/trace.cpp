#include "sim/trace.hpp"

#include <iomanip>
#include <sstream>

namespace tbr {

std::vector<TraceEvent> TraceLog::of_kind(TraceEvent::Kind kind) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::string TraceLog::render(const Codec& codec, Tick delta) const {
  std::ostringstream os;
  // Processes the log shows crashed and not yet recovered. Only drops at
  // such a receiver are blamed on the crash: loss injection and channel
  // fencing drop frames at live receivers too.
  std::vector<bool> down;
  const auto is_down = [&down](ProcessId p) {
    return p < down.size() && down[p];
  };
  for (const auto& e : events_) {
    os << std::setw(8) << std::fixed << std::setprecision(2)
       << (delta > 1 ? static_cast<double>(e.at) / static_cast<double>(delta)
                     : static_cast<double>(e.at))
       << (delta > 1 ? "D " : "t ");
    switch (e.kind) {
      case TraceEvent::Kind::kSend:
        os << "send    p" << e.from << " -> p" << e.to << "  "
           << codec.type_name(e.type);
        break;
      case TraceEvent::Kind::kDeliver:
        os << "deliver p" << e.from << " -> p" << e.to << "  "
           << codec.type_name(e.type);
        break;
      case TraceEvent::Kind::kDrop:
        os << "drop    p" << e.from << " -> p" << e.to << "  "
           << codec.type_name(e.type)
           << (is_down(e.to) ? " (receiver crashed)" : " (dropped)");
        break;
      case TraceEvent::Kind::kCrash:
        os << "CRASH   p" << e.from;
        if (e.from >= down.size()) down.resize(e.from + 1, false);
        down[e.from] = true;
        break;
      case TraceEvent::Kind::kRecover:
        os << "RECOVER p" << e.from;
        if (e.from < down.size()) down[e.from] = false;
        break;
    }
    if (e.debug_index >= 0 && e.kind != TraceEvent::Kind::kCrash &&
        e.kind != TraceEvent::Kind::kRecover) {
      os << " [value #" << e.debug_index << "]";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace tbr
