// The online AtomicityCheck against SwmrChecker, the offline reference.
//
// Random sequential-writer histories of an atomic register (each op gets a
// linearization point inside its interval; reads return the last write
// linearized before theirs) must pass both checks. Each history is then
// corrupted once — a read's version moved down or up, its value swapped
// for another write's, or a version no write created — and the two
// verdicts must agree on every corrupted history. Last, the kv-only rules
// (absorbed puts, consecutive versions) are exercised directly.
#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "atomicity.hpp"
#include "checker/swmr_checker.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

constexpr std::size_t kValueBytes = 16;

tbr::Value value_of(std::int64_t version) {
  tbr::Value v;
  if (version > 0) {
    tbrbench::encode_value(0, static_cast<std::uint32_t>(version),
                           kValueBytes, v);
  }
  return v;
}

struct Op {
  bool write = false;
  tbr::ProcessId proc = 0;
  double start = 0, lin = 0, end = 0;
  std::int64_t version = 0;  ///< write: its index; read: returned index
  tbr::Value value;
};

std::vector<Op> random_history(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> gap(0.0, 5.0);
  std::uniform_real_distribution<double> dur(0.5, 20.0);
  std::uniform_real_distribution<double> frac(0.01, 0.99);
  std::uniform_int_distribution<int> count(1, 8);
  std::vector<Op> ops;
  const int procs = 4;  // 0 writes, 1..3 read
  for (int p = 0; p < procs; ++p) {
    double cursor = gap(rng);
    const int n = count(rng);
    for (int k = 0; k < n; ++k) {
      Op op;
      op.write = p == 0;
      op.proc = static_cast<tbr::ProcessId>(p);
      op.start = cursor + gap(rng);
      op.end = op.start + dur(rng);
      op.lin = op.start + frac(rng) * (op.end - op.start);
      cursor = op.end;
      if (op.write) op.version = k + 1;
      ops.push_back(op);
    }
  }
  for (Op& r : ops) {
    if (r.write) continue;
    for (const Op& w : ops) {
      if (w.write && w.lin < r.lin) r.version = std::max(r.version, w.version);
    }
  }
  for (Op& op : ops) op.value = value_of(op.version);
  return ops;
}

/// Both checks over one history; returns {offline ok, online ok}.
std::pair<bool, bool> verdicts(const std::vector<Op>& ops) {
  struct Event {
    double at;
    std::size_t op;
    bool begin;
  };
  std::vector<Event> events;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    events.push_back({ops[i].start, i, true});
    events.push_back({ops[i].end, i, false});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.at < b.at; });

  std::vector<tbr::OpRecord> records(ops.size());
  tbrbench::AtomicityCheck online(1, 64, kValueBytes);
  std::vector<std::uint32_t> tag(ops.size(), 0);
  for (std::size_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    const Op& op = ops[e.op];
    tbr::OpRecord& rec = records[e.op];
    const tbr::Stamp stamp{static_cast<tbr::Tick>(e.at * 1e6), k};
    if (e.begin) {
      rec.kind = op.write ? tbr::OpRecord::Kind::kWrite
                          : tbr::OpRecord::Kind::kRead;
      rec.proc = op.proc;
      rec.start = stamp;
      if (op.write) {
        rec.index = op.version;
        rec.value = op.value;
        tag[e.op] = online.begin_put(0);
      } else {
        tag[e.op] = online.begin_read(0);
      }
    } else {
      rec.end = stamp;
      rec.completed = true;
      if (op.write) {
        online.end_put(0, tag[e.op], tag[e.op], false);
      } else {
        rec.index = op.version;
        rec.value = op.value;
        online.end_read(0, tag[e.op], op.version, op.value);
      }
    }
  }
  online.finish();
  return {tbr::SwmrChecker::check(records, tbr::Value()).ok,
          online.violations() == 0};
}

void cross_validate() {
  std::mt19937_64 rng(11);
  const char* kinds[] = {"stale version", "newer version", "swapped value",
                         "version never written"};
  int rejected[4] = {0, 0, 0, 0};
  int tried[4] = {0, 0, 0, 0};
  for (int h = 0; h < 3000; ++h) {
    std::vector<Op> ops = random_history(rng);
    const auto [offline, online] = verdicts(ops);
    expect(offline && online, "atomic history " + std::to_string(h) +
                                  " rejected (offline " +
                                  std::to_string(offline) + ", online " +
                                  std::to_string(online) + ")");

    std::vector<std::size_t> reads;
    std::int64_t writes = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].write) {
        ++writes;
      } else {
        reads.push_back(i);
      }
    }
    if (reads.empty()) continue;
    Op& r = ops[reads[rng() % reads.size()]];
    const int kind = static_cast<int>(rng() % 4);
    switch (kind) {
      case 0:
        if (r.version == 0) continue;
        r.version -= 1 + static_cast<std::int64_t>(rng() % r.version);
        r.value = value_of(r.version);
        break;
      case 1:
        if (r.version == writes) continue;
        r.version += 1 + static_cast<std::int64_t>(
                             rng() %
                             static_cast<std::uint64_t>(writes - r.version));
        r.value = value_of(r.version);
        break;
      case 2: {
        if (writes < 2) continue;
        std::int64_t other = r.version;
        while (other == r.version) {
          other = static_cast<std::int64_t>(rng() % (writes + 1));
        }
        r.value = value_of(other);
        break;
      }
      default:
        r.version = writes + 1 + static_cast<std::int64_t>(rng() % 3);
        r.value = value_of(r.version);
        break;
    }
    ++tried[kind];
    const auto [offline_ok, online_ok] = verdicts(ops);
    expect(offline_ok == online_ok,
           std::string("verdicts disagree on a ") + kinds[kind] +
               " corruption (offline " + std::to_string(offline_ok) +
               ", online " + std::to_string(online_ok) + ")");
    if (!online_ok) ++rejected[kind];
  }
  for (int k = 0; k < 4; ++k) {
    std::printf("%-22s tried %4d rejected %4d\n", kinds[k], tried[k],
                rejected[k]);
    expect(rejected[k] > 0, std::string("no ") + kinds[k] + " was caught");
  }
  expect(rejected[2] == tried[2] && rejected[3] == tried[3],
         "a swapped or unwritten value slipped through");
}

void kv_rules() {
  // Puts 1 and 2 queue in one window: 1 is absorbed, 2 lands as version 1.
  {
    tbrbench::AtomicityCheck c(1, 8, kValueBytes);
    const auto p1 = c.begin_put(0), p2 = c.begin_put(0);
    const auto floor = c.begin_read(0);
    c.end_put(0, p1, 1, /*absorbed=*/true);
    c.end_put(0, p2, 1, false);
    tbr::Value v;
    tbrbench::encode_value(0, p2, kValueBytes, v);
    c.end_read(0, floor, 1, v);
    c.finish();
    expect(c.violations() == 0, "absorbed put handled: " + c.first_violation());
  }
  {
    tbrbench::AtomicityCheck c(1, 8, kValueBytes);
    const auto p1 = c.begin_put(0), p2 = c.begin_put(0);
    const auto floor = c.begin_read(0);
    c.end_put(0, p1, 1, true);
    c.end_put(0, p2, 1, false);
    tbr::Value v;
    tbrbench::encode_value(0, p1, kValueBytes, v);  // the absorbed value
    c.end_read(0, floor, 1, v);
    c.finish();
    expect(c.violations() == 1, "read of an absorbed value caught");
  }
  {
    tbrbench::AtomicityCheck c(1, 8, kValueBytes);
    const auto p1 = c.begin_put(0);
    c.end_put(0, p1, 2, false);  // version 1 skipped
    expect(c.violations() == 1, "version gap caught");
  }
  {
    // A claim made before its put reports completion settles on landing.
    tbrbench::AtomicityCheck c(1, 8, kValueBytes);
    const auto p1 = c.begin_put(0);
    tbr::Value v;
    tbrbench::encode_value(0, p1, kValueBytes, v);
    c.end_read(0, c.begin_read(0), 1, v);
    c.end_put(0, p1, 1, false);
    c.finish();
    expect(c.violations() == 0, "early claim settled: " + c.first_violation());
  }
}

}  // namespace

int main() {
  cross_validate();
  kv_rules();
  if (failures == 0) std::printf("atomicity_test: ok\n");
  return failures == 0 ? 0 : 1;
}
