#include "workload/adversarial.hpp"

#include "abd/phased_codec.hpp"
#include "abd/phased_process.hpp"
#include "core/twobit_codec.hpp"
#include "workload/sim_register_group.hpp"

namespace tbr {

namespace {

constexpr Tick kFast = 10;
constexpr Tick kSlow = 1'000'000;

GroupConfig scenario_cfg() {
  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;
  cfg.initial = Value::from_int64(0);
  return cfg;
}

/// The scenarios' logged client ops on one group, recorded for the checker.
class Script {
 public:
  explicit Script(SimRegisterGroup& group) : group_(group) {}

  /// Value 1 reaches everyone (possibly over slow links — virtual time is
  /// free) so every pairwise freshness relation is established.
  void warm_up() {
    const auto id =
        log_.begin_write(0, group_.net().now(), 1, Value::from_int64(1));
    TBR_ENSURE(group_.client().write_sync(Value::from_int64(1)).status.ok(),
               "warm-up write must complete");
    log_.end_write(id, group_.net().now());
    group_.settle();
  }

  /// Write value 2 at time `at`; `done` rises when it completes.
  void write_two_at(Tick at, bool& done) {
    const auto id = log_.begin_write(0, at, 2, Value::from_int64(2));
    group_.net().schedule_at(at, [this, id, &done] {
      group_.client().write(Value::from_int64(2),
                            [this, id, &done](const OpResult&) {
                              log_.end_write(id, group_.net().now());
                              done = true;
                            });
    });
  }

  /// Read at `reader` at time `at`; `index` and `done` record the outcome.
  void read_at(ProcessId reader, Tick at, SeqNo& index, bool& done) {
    group_.net().schedule_at(at, [this, reader, &index, &done] {
      const auto id = log_.begin_read(reader, group_.net().now());
      group_.client().read(reader, [this, id, &index,
                                    &done](const OpResult& r) {
        log_.end_read(id, group_.net().now(), r.value, r.version);
        index = r.version;
        done = true;
      });
    });
  }

  CheckStats check() const {
    return SwmrChecker::analyze(log_.ops(), Value::from_int64(0));
  }

 private:
  SimRegisterGroup& group_;
  HistoryLog log_;
};

/// Shared driver: warm everyone up with value 1, start write 2, run reader
/// p1 (fresh side) at +30 and reader p2 (stale side) at +200, drain, check.
ScenarioOutcome drive(SimRegisterGroup& group) {
  ScenarioOutcome outcome;
  Script script(group);
  script.warm_up();

  const Tick base = group.net().now();
  // The contested write: value 2, held back from the stale side by the
  // scenario's delay model. Completion time depends on the variant.
  bool write_done = false;
  script.write_two_at(base, write_done);
  // Fresh-side read at p1, then the stale-side read at p2: strictly after
  // the fresh read completes in the ablated variants (+200 >> +50) yet
  // well inside the slow window.
  bool first_done = false;
  bool second_done = false;
  script.read_at(1, base + 30, outcome.first_read_index, first_done);
  script.read_at(2, base + 200, outcome.second_read_index, second_done);

  TBR_ENSURE(group.net().run(), "scenario must drain");
  outcome.both_completed = first_done && second_done;
  outcome.stats = script.check();
  return outcome;
}

bool is_write_frame_twobit(const Message& msg) { return msg.type <= 1; }

}  // namespace

ScenarioOutcome run_twobit_inversion_scenario(const TwoBitOptions& options) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // WRITE frames from the fresh side {p0, p1} towards {p2, p3, p4} crawl;
  // all control frames and all other channels are instant.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool slow = is_write_frame_twobit(msg) && from <= 1 && to >= 2;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));
  return drive(group);
}

ScenarioOutcome run_abd_inversion_scenario(bool regular) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // Any frame carrying value #2 (disseminations, query replies, write-backs)
  // from the fresh side towards {p2, p3, p4} crawls.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool carries_new = msg.has_value && msg.seq >= 2;
        const bool slow = carries_new && from <= 1 && to >= 2;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [regular](const GroupConfig& cfg, ProcessId pid) {
    return regular ? make_abd_regular_process(cfg, pid)
                   : make_abd_unbounded_process(cfg, pid);
  };
  SimRegisterGroup group(std::move(gopt));
  return drive(group);
}

ScenarioOutcome run_twobit_stale_read_scenario(const TwoBitOptions& options) {
  SimRegisterGroup::Options gopt;
  gopt.cfg = scenario_cfg();
  gopt.seed = 1;
  // Value dissemination towards {p1, p2} crawls; the write still completes
  // quickly against the quorum {p0, p3, p4}. The reader at p2 then starts a
  // read strictly after the write completed.
  gopt.delay = make_frame_delay(
      [](ProcessId from, ProcessId to, const Message& msg) {
        const bool to_stale = to == 1 || to == 2;
        const bool from_stale = from == 1 || from == 2;
        const bool slow =
            is_write_frame_twobit(msg) && to_stale && !from_stale;
        return slow ? kSlow : kFast;
      });
  gopt.process_factory = [options](const GroupConfig& cfg, ProcessId pid) {
    return std::make_unique<TwoBitProcess>(cfg, pid, options);
  };
  SimRegisterGroup group(std::move(gopt));

  ScenarioOutcome outcome;
  Script script(group);
  script.warm_up();

  const Tick base = group.net().now();
  bool write_done = false;
  script.write_two_at(base, write_done);
  // The write completes against {p0, p3, p4} within ~2 fast hops.
  TBR_ENSURE(group.net().run_until([&] { return write_done; },
                                   SimNetwork::kDefaultMaxEvents,
                                   base + 1000),
             "write must complete against the fast-side quorum");

  bool read_done = false;
  script.read_at(2, group.net().now() + 10, outcome.second_read_index,
                 read_done);
  TBR_ENSURE(group.net().run(), "scenario must drain");
  outcome.both_completed = read_done;
  outcome.first_read_index = 2;  // what a correct read must return
  outcome.stats = script.check();
  return outcome;
}

}  // namespace tbr
