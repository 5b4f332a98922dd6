// Multi-writer blackboard (extension demo): several operator nodes post
// status lines to one shared atomic register; everyone converges on the
// newest post despite concurrent writers and a crash.
//
// Contrast with the other examples: the paper's two-bit register is
// single-writer by design, so this one runs on the MWMR ABD extension
// (src/mwmr) — see bench_mwmr for what the extra generality costs.
//
//   build/examples/multi_writer_blackboard
#include <iostream>

#include "checker/mwmr_checker.hpp"
#include "mwmr/mwmr_process.hpp"
#include "sim/sim_network.hpp"

int main() {
  using namespace tbr;

  GroupConfig cfg;
  cfg.n = 5;
  cfg.t = 2;
  cfg.writer = 0;  // unused by MWMR
  cfg.initial = Value::from_string("(blank board)");

  std::vector<std::unique_ptr<ProcessBase>> procs;
  for (ProcessId pid = 0; pid < cfg.n; ++pid) {
    procs.push_back(make_mwmr_process(cfg, pid));
  }
  SimNetwork::Options opt;
  opt.delay = make_uniform_delay(200, 1200);
  opt.seed = 7;
  SimNetwork net(std::move(procs), std::move(opt));

  HistoryLog log;
  auto post = [&](ProcessId pid, const std::string& text, Tick at) {
    net.schedule_at(at, [&net, &log, pid, text] {
      const auto id =
          log.begin_write_unindexed(pid, net.now(), Value::from_string(text));
      net.process_as<MwmrProcess>(pid).start_write(
          net.context(pid), Value::from_string(text),
          [&net, &log, id, pid, text](SeqNo ts) {
            log.end_write_indexed(id, net.now(), ts);
            std::cout << "p" << pid << " posted \"" << text << "\" (ts "
                      << ts_seq(ts) << "." << ts_writer(ts) << ")\n";
          });
    });
  };

  // Three operators post concurrently; two of the posts race.
  post(1, "deploy started", 0);
  post(2, "alarms green", 100);     // races with p1's post
  post(3, "deploy finished", 5000);
  net.crash_at(4, 2500);            // a bystander dies; nobody cares

  (void)net.run();

  // Everyone reads the board; all must agree on the same final post.
  for (ProcessId pid = 0; pid < 4; ++pid) {
    const auto id = log.begin_read(pid, net.now());
    net.process_as<MwmrProcess>(pid).start_read(
        net.context(pid), [&net, &log, id, pid](const Value& v, SeqNo ts) {
          log.end_read(id, net.now(), v, ts);
          std::cout << "p" << pid << " sees: \"" << v.to_string() << "\" (ts "
                    << ts_seq(ts) << "." << ts_writer(ts) << ")\n";
        });
    (void)net.run();
  }

  const auto verdict = MwmrChecker::check(log.ops(), cfg.initial);
  std::cout << "atomicity: " << (verdict.ok ? "OK" : verdict.error) << "\n";
  return verdict.ok ? 0 : 1;
}
