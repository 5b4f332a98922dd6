#include "checker/mwmr_checker.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/contracts.hpp"

namespace tbr {

namespace {

std::string describe(const OpRecord& op) {
  std::ostringstream os;
  os << (op.kind == OpRecord::Kind::kWrite ? "write" : "read") << "[p"
     << op.proc << ", ts=" << op.index << "]";
  return os.str();
}

}  // namespace

CheckResult MwmrChecker::check(const std::vector<OpRecord>& ops,
                               const Value& initial) {
  // ---- partition -------------------------------------------------------------
  std::vector<const OpRecord*> writes_completed;
  std::vector<const OpRecord*> writes_incomplete;
  std::vector<const OpRecord*> reads;  // completed
  for (const auto& op : ops) {
    if (op.kind == OpRecord::Kind::kWrite) {
      (op.completed ? writes_completed : writes_incomplete).push_back(&op);
    } else if (op.completed) {
      reads.push_back(&op);
    }
  }

  // ---- per-process sequentiality ----------------------------------------------
  {
    std::map<ProcessId, std::vector<const OpRecord*>> by_proc;
    for (const auto& op : ops) by_proc[op.proc].push_back(&op);
    for (auto& [proc, list] : by_proc) {
      std::sort(list.begin(), list.end(),
                [](const OpRecord* a, const OpRecord* b) {
                  return a->start < b->start;
                });
      for (std::size_t k = 0; k + 1 < list.size(); ++k) {
        if (!list[k]->completed || !(list[k]->end < list[k + 1]->start)) {
          return CheckResult::bad("model: operations of process " +
                                  std::to_string(proc) + " overlap");
        }
      }
    }
  }

  // ---- timestamp uniqueness & value binding --------------------------------------
  std::map<SeqNo, const OpRecord*> write_by_ts;
  for (const auto* w : writes_completed) {
    if (w->index <= 0) {
      return CheckResult::bad("model: completed write without timestamp: " +
                              describe(*w));
    }
    if (!write_by_ts.emplace(w->index, w).second) {
      return CheckResult::bad("model: duplicate write timestamp " +
                              std::to_string(w->index));
    }
  }

  // ---- C0 + read-from-started -------------------------------------------------------
  for (const auto* r : reads) {
    if (r->index == 0) {
      if (!(r->value == initial)) {
        return CheckResult::bad("C0: read of ts 0 is not the initial value: " +
                                describe(*r));
      }
      continue;
    }
    const auto it = write_by_ts.find(r->index);
    if (it != write_by_ts.end()) {
      if (!(it->second->value == r->value)) {
        return CheckResult::bad("C0: read value does not match write of ts " +
                                std::to_string(r->index));
      }
      if (!(it->second->start < r->end)) {
        return CheckResult::bad(
            "C1: read returns a write invoked after it returned: " +
            describe(*r));
      }
      continue;
    }
    // Not a completed write: it must be an incomplete write's value (the
    // write may have taken effect before its invoker crashed).
    const auto src = std::find_if(
        writes_incomplete.begin(), writes_incomplete.end(),
        [&](const OpRecord* w) { return w->value == r->value; });
    if (src == writes_incomplete.end()) {
      return CheckResult::bad("C0: read of unknown timestamp " +
                              std::to_string(r->index) + ": " + describe(*r));
    }
    if (!((*src)->start < r->end)) {
      return CheckResult::bad(
          "C1: read returns an incomplete write invoked after it: " +
          describe(*r));
    }
  }

  // ---- real-time timestamp conditions --------------------------------------------
  // Sweep completed ops by start; maintain the max timestamp among writes
  // (maxW) and reads (maxR) that *ended* strictly before the current start.
  struct Ev {
    Stamp at;
    bool is_end;  // ends processed before starts at equal stamps? stamps are
                  // unique (order field), so no ties exist.
    const OpRecord* op;
  };
  std::vector<Ev> events;
  for (const auto* w : writes_completed) {
    events.push_back({w->start, false, w});
    events.push_back({w->end, true, w});
  }
  for (const auto* r : reads) {
    events.push_back({r->start, false, r});
    events.push_back({r->end, true, r});
  }
  std::sort(events.begin(), events.end(),
            [](const Ev& a, const Ev& b) { return a.at < b.at; });

  SeqNo max_w_ended = -1;
  SeqNo max_r_ended = -1;
  for (const auto& ev : events) {
    const OpRecord& op = *ev.op;
    if (ev.is_end) {
      if (op.kind == OpRecord::Kind::kWrite) {
        max_w_ended = std::max(max_w_ended, op.index);
      } else {
        max_r_ended = std::max(max_r_ended, op.index);
      }
      continue;
    }
    if (op.kind == OpRecord::Kind::kWrite) {
      if (op.index <= max_w_ended) {
        return CheckResult::bad(
            "W-W: a write completed earlier carries timestamp " +
            std::to_string(max_w_ended) + " >= " + describe(op));
      }
      if (op.index <= max_r_ended) {
        return CheckResult::bad(
            "R-W: a read completed earlier observed timestamp " +
            std::to_string(max_r_ended) + " >= " + describe(op));
      }
    } else {
      if (op.index < max_w_ended) {
        return CheckResult::bad("W-R: stale read: " + describe(op) +
                                " after a write with timestamp " +
                                std::to_string(max_w_ended) + " completed");
      }
      if (op.index < max_r_ended) {
        return CheckResult::bad("R-R: new/old inversion: " + describe(op) +
                                " after a read that observed " +
                                std::to_string(max_r_ended));
      }
    }
  }

  return CheckResult::good();
}

}  // namespace tbr
