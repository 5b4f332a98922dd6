#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "atomicity.hpp"
#include "common/rng.hpp"
#include "engines.hpp"
#include "histogram.hpp"
#include "trace.hpp"

namespace tbrbench {

// ---- the workloads ---------------------------------------------------------
//
// Each one stresses a different layer; README.md gives the measured shape
// behind every number here.

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      // Transport and event-loop CPU dominate; no kv batching at all.
      WorkloadSpec w;
      w.name = "sock-read90";
      w.engine = EngineKind::kSocket;
      w.n = 3;
      w.t = 1;
      w.loops = 2;
      w.read_fraction = 0.9;
      w.value_bytes = 8;
      w.wave_ops = 1;
      w.waves = 12;  // 12 outstanding ops, ~4 per replica
      w.nominal_ops = 1'000'000;
      w.check_window = 4096;
      v.push_back(w);
    }
    {
      // Read batching: hot keys make reads share protocol rounds.
      WorkloadSpec w;
      w.name = "kv-zipf-read90";
      w.engine = EngineKind::kShardedKv;
      w.n = 3;
      w.t = 1;
      w.shards = 2;
      w.slots_per_shard = 16;
      w.keys = 512;
      w.zipf_s = 0.9;
      w.read_fraction = 0.9;
      w.value_bytes = 8;
      w.wave_ops = 256;
      w.waves = 4;  // 1024 callers
      w.nominal_ops = 20'000'000;
      w.check_window = 4096;  // > 1024 ops in flight
      v.push_back(w);
    }
    {
      // The same layer the other way round: spread keys, half writes,
      // paced well below capacity, so windows hold ~1 op.
      WorkloadSpec w;
      w.name = "kv-uniform-write50";
      w.engine = EngineKind::kShardedKv;
      w.n = 3;
      w.t = 1;
      w.shards = 2;
      w.slots_per_shard = 256;
      w.keys = 4096;
      w.zipf_s = 0.0;
      w.read_fraction = 0.5;
      w.value_bytes = 256;
      w.rate_ops_s = 100'000;
      w.nominal_ops = 2'000'000;
      w.check_window = 256;
      v.push_back(w);
    }
    {
      // Scheduler and protocol under crashes, with no transport.
      WorkloadSpec w;
      w.name = "sim-expo-crash";
      w.engine = EngineKind::kSim;
      w.n = 5;
      w.t = 2;
      w.delay_mean = 1000;
      w.delay_cap = 20'000;
      // Both crashes land early in the warm-up (which ends near 65M
      // ticks), so every measured op runs at the fault limit: 3 of 5
      // replicas live, every quorum needs all of them. Crashing inside the
      // measured phase would split it into phases of 5, 4 and 3 live
      // replicas whose per-op cost differs by 2.5x, and the phase the
      // reported window falls in would depend on the machine's speed.
      w.crashes = {{3, 5'000'000}, {4, 10'000'000}};
      w.exact_prefix_ops = 1'000'000;
      w.read_fraction = 0.5;
      w.value_bytes = 8;
      w.wave_ops = 20;
      w.waves = 1;
      w.nominal_ops = 6'000'000;
      w.check_window = 1024;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// Throughput and latency are taken per window of this length, then over
/// windows (kBestQuarter): short windows keep a stall caused by other
/// tenants of the machine inside few windows.
constexpr std::uint64_t kWindowNs = 100'000'000;
/// The window quantile reported: throughput's 75th percentile, latency
/// percentiles' 25th (see run_workload).
constexpr double kBestQuarter = 0.75;
/// A window's p99 needs at least 10 samples beyond it.
constexpr std::uint64_t kMinWindowSamples = 1000;
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
constexpr int kSetups = 9;
constexpr std::size_t kMaxTraceEvents = 150'000;
constexpr std::uint32_t kOpenLoopSlots = 4096;
constexpr std::uint32_t kMaxWaves = 64;  // one bit each in the done mask
constexpr std::size_t kMaxCompletionThreads = 16;
constexpr std::size_t kStreamOps = std::size_t{1} << 20;
constexpr std::int64_t kDelta = 1000;  // sim ticks per Δ
constexpr std::int64_t kVlatCapTicks = 64 * kDelta;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The run's op mix, drawn from the seed once, before any set-up: entry i
/// is `key << 1 | write`, and the generator cycles through the entries.
/// Zipf keys come by inverse CDF, with ranks shuffled onto keys so the hot
/// keys land on seed-chosen shards. Every set-up and the measured phase
/// start at entry 0, so each set-up does the same work.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, std::uint64_t seed) : ops_(kStreamOps) {
    tbr::Rng rng(seed ^ 0xB3AC4ULL);
    std::vector<double> cdf;
    std::vector<std::uint32_t> rank_to_key;
    if (spec.zipf_s > 0.0 && spec.keys > 1) {
      double total = 0.0;
      for (std::uint32_t k = 0; k < spec.keys; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), spec.zipf_s);
        cdf.push_back(total);
      }
      rank_to_key.resize(spec.keys);
      std::iota(rank_to_key.begin(), rank_to_key.end(), 0u);
      rng.shuffle(rank_to_key);
    }
    for (std::uint32_t& op : ops_) {
      std::uint32_t key = 0;
      if (!cdf.empty()) {
        const double u = rng.uniform01() * cdf.back();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        key = rank_to_key[std::min(rank, cdf.size() - 1)];
      } else if (spec.keys > 1) {
        key = static_cast<std::uint32_t>(rng.uniform(0, spec.keys - 1));
      }
      op = key << 1 | (rng.chance(spec.read_fraction) ? 0u : 1u);
    }
  }

  std::uint32_t at(std::uint64_t i) const { return ops_[i % kStreamOps]; }

 private:
  std::vector<std::uint32_t> ops_;
};

/// Latency windows, one set per completion thread (no shared counters on
/// the engines' hot paths); merged once the run has drained.
class LatencyWindows {
 public:
  explicit LatencyWindows(std::size_t windows)
      : windows_(windows), id_(next_id_.fetch_add(1) + 1) {}

  std::vector<LogHistogram>& mine() {
    thread_local std::uint64_t tl_id = 0;
    thread_local std::vector<LogHistogram>* tl = nullptr;
    if (tl_id != id_) {
      const std::size_t slot = used_.fetch_add(1);
      if (slot >= kMaxCompletionThreads) {
        throw std::runtime_error("too many completion threads");
      }
      locals_[slot] = std::make_unique<std::vector<LogHistogram>>(windows_);
      tl = locals_[slot].get();
      tl_id = id_;
    }
    return *tl;
  }

  /// Per-window merge across threads (call after every op completed).
  std::vector<LogHistogram> merged() const {
    std::vector<LogHistogram> out(windows_);
    const std::size_t used = std::min(used_.load(), kMaxCompletionThreads);
    for (std::size_t s = 0; s < used; ++s) {
      for (std::size_t w = 0; w < windows_; ++w) out[w].merge((*locals_[s])[w]);
    }
    return out;
  }

 private:
  static inline std::atomic<std::uint64_t> next_id_{0};
  std::size_t windows_;
  std::uint64_t id_;
  std::atomic<std::size_t> used_{0};
  std::array<std::unique_ptr<std::vector<LogHistogram>>,
             kMaxCompletionThreads>
      locals_;
};

struct OpCtx {
  std::uint32_t index = 0;
  std::uint32_t wave = 0;     ///< closed loop: the wave it belongs to
  bool write = false;
  bool issued = false;
  bool measured = false;
  bool traced = false;
  std::uint32_t reg = 0;
  std::uint32_t tag = 0;      ///< put number, or a read's floor
  std::uint64_t seq = 0;      ///< measured-op sequence number
  std::uint64_t t_ref = 0;    ///< latency origin: due time or caller ready
  std::uint64_t t_send = 0;   ///< traced ops: submit call start
  std::uint64_t t_submit_end = 0;  ///< traced ops: submit call end
  std::uint64_t t_done = 0;
  std::atomic<bool> busy{false};   ///< open loop
};

/// A closed-loop group of `wave_ops` callers, refilled as one. The op
/// whose completion empties it stamps `done_at` and then sets the wave's
/// bit in the run's done mask, which is what the generator waits on.
struct alignas(64) Wave {
  std::atomic<std::uint32_t> remaining{0};
  std::uint64_t done_at = 0;
  std::uint32_t first = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint32_t register_count(const WorkloadSpec& spec) {
  return spec.engine == EngineKind::kShardedKv
             ? spec.shards * spec.slots_per_shard
             : 1;
}

// ---- one engine instance and its generator ---------------------------------

class EngineRun {
 public:
  EngineRun(const WorkloadSpec& spec, const OpStream& stream,
            std::uint64_t seed, Tracer* tracer)
      : spec_(spec),
        stream_(stream),
        gaps_(seed ^ 0x6A95ULL),
        tracer_(tracer),
        check_(register_count(spec), spec.check_window, spec.value_bytes),
        engine_(make_engine(spec, seed)) {
    const bool open = spec.rate_ops_s > 0;
    if (!open && (spec.waves < 1 || spec.waves > kMaxWaves)) {
      throw std::logic_error("a closed loop needs 1 to 64 waves");
    }
    if (!spec.crashes.empty() && (open || spec.waves != 1)) {
      throw std::logic_error("crash schedules need one wave in flight");
    }
    slot_count_ = open ? kOpenLoopSlots : spec.wave_ops * spec.waves;
    ops_.reset(new OpCtx[slot_count_]);
    for (std::uint32_t i = 0; i < slot_count_; ++i) {
      ops_[i].index = i;
      ops_[i].wave = open ? 0 : i / spec.wave_ops;
    }
    waves_.reset(new Wave[spec.waves]);
    for (std::uint32_t w = 0; w < spec.waves; ++w) {
      waves_[w].first = w * spec.wave_ops;
    }
  }

  ~EngineRun() { stop(); }
  EngineRun(const EngineRun&) = delete;
  EngineRun& operator=(const EngineRun&) = delete;

  /// Warm-up: `ops` ops, no latency recording.
  void warm_up(std::uint64_t ops) { generate(ops, kNever); }

  /// The measured phase: ops until `seconds` pass (or `max_ops`), then
  /// drain. `trace` alternates traced and untraced windows.
  void measure(double seconds, std::uint64_t max_ops, bool trace) {
    windows_ = static_cast<std::size_t>(
        std::max(1.0, std::ceil(seconds * 1e9 / kWindowNs)));
    latency_ = std::make_unique<LatencyWindows>(windows_);
    trace_ = trace;
    if (engine_->faults_pending()) {
      throw std::logic_error("the crash schedule must end in the warm-up");
    }
    if (engine_->virtual_latency()) vlat_ticks.assign(kVlatCapTicks + 1, 0);
    start_counters = engine_->counters();
    measuring_ = true;
    t_measure = now_ns();
    t_stop_at = t_measure + static_cast<std::uint64_t>(seconds * 1e9);
    cur_window_ = 0;
    generate(max_ops, t_stop_at);
    t_drained = now_ns();
    close_window();
    measuring_ = false;
    end_counters = engine_->counters();
  }

  /// Stop the engine (idempotent) and settle the atomicity check.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    engine_->stop();
    final_counters = engine_->counters();
    check_.finish();
    const auto& c = final_counters;
    if (c.frames > 0 && c.control_bits_max != 2) {
      check_violation_ = "core: a frame carried " +
                         std::to_string(c.control_bits_max) +
                         " control bits (two-bit protocol sends 2)";
    }
  }

  // ---- results -------------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t measured_ops = 0;
  std::uint64_t idle_ns = 0;  ///< generator blocked/idle while measuring
  LogHistogram late_ns;       ///< generator lateness
  LogHistogram submit_ns;     ///< traced ops: submit call
  LogHistogram wait_ns;       ///< traced ops: submit return -> completion
  std::vector<std::uint64_t> vlat_ticks;  ///< sim: exact, first ops only
  std::uint64_t prefix_ops = 0;
  double rss_mb = 0.0;  ///< peak RSS once rss_ops measured ops were issued
  Counters start_counters, prefix_counters, end_counters, final_counters;
  std::uint64_t t_measure = 0, t_stop_at = 0, t_drained = 0;

  std::uint64_t failed() const { return failed_.load(); }
  std::string violation() const {
    if (check_.violations() > 0) return check_.first_violation();
    if (!check_violation_.empty()) return check_violation_;
    const std::scoped_lock lock(error_mu_);
    return failure_;
  }
  std::vector<LogHistogram> latency_windows() const {
    return latency_ ? latency_->merged() : std::vector<LogHistogram>{};
  }

 private:
  void generate(std::uint64_t max_ops, std::uint64_t t_stop) {
    if (spec_.rate_ops_s > 0) {
      open_loop(max_ops, t_stop);
    } else {
      closed_loop(max_ops, t_stop);
    }
  }

  // Closed loop: `waves` groups of `wave_ops` callers. Waves are refilled
  // in the order they finish, so a slow op holds back only its own wave.
  void closed_loop(std::uint64_t max_ops, std::uint64_t t_stop) {
    std::uint64_t issued = 0;
    std::uint32_t active = 0;
    const std::uint64_t start = now_ns();
    for (std::uint32_t k = 0; k < spec_.waves && issued < max_ops; ++k) {
      fill(waves_[k], start, start);
      issued += spec_.wave_ops;
      ++active;
    }
    while (active > 0) {
      for (std::uint64_t done = take_done(); done != 0; done &= done - 1) {
        Wave& w = waves_[std::countr_zero(done)];
        finish_wave(w);
        --active;
        if (spec_.waves == 1) engine_->between_waves();
        const std::uint64_t now = now_ns();
        if (issued >= max_ops || now >= t_stop) continue;
        if (measuring_) {
          tick_window(now);
          late_ns.add(now - w.done_at);
        }
        // A refilled op was due when its wave finished: its latency counts
        // the time it waited for the generator, as each caller would.
        fill(w, w.done_at, now);
        issued += spec_.wave_ops;
        ++active;
      }
    }
  }

  void fill(Wave& w, std::uint64_t ready_at, std::uint64_t now) {
    w.remaining.store(spec_.wave_ops, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < spec_.wave_ops; ++i) {
      issue(ops_[w.first + i], ready_at, now);
    }
  }

  /// The bits of the waves that finished since the last call; blocks
  /// (generator idle time) until there is at least one.
  std::uint64_t take_done() {
    const std::uint64_t done = done_.exchange(0, std::memory_order_acquire);
    if (done != 0) return done;
    const std::uint64_t t0 = now_ns();
    if (!engine_->await(done_)) {
      throw std::runtime_error("engine stalled with ops outstanding");
    }
    const std::uint64_t t1 = now_ns();
    if (measuring_) {
      idle_ns += t1 - t0;
      win_child_ns_ += t1 - t0;
      if (trace_ && window_traced(t0)) {
        tracer_->record("gen.wait", "bench", 0, t0, t1);
      }
    }
    return done_.exchange(0, std::memory_order_acquire);
  }

  void finish_wave(Wave& w) {
    for (std::uint32_t i = 0; i < spec_.wave_ops; ++i) {
      reap(ops_[w.first + i]);
    }
    if (measuring_ && spec_.exact_prefix_ops > 0 && prefix_ops == 0 &&
        measured_ops >= spec_.exact_prefix_ops) {
      // Every measured op so far has completed (one wave in flight):
      // counters here are a pure function of the seed.
      prefix_counters = engine_->counters();
      prefix_ops = measured_ops;
    }
  }

  // Open loop: independent callers, so ops arrive as a Poisson process at
  // rate_ops_s whatever the engine does; latency counts from the due
  // time, so a stall also charges the ops queued behind it.
  void open_loop(std::uint64_t max_ops, std::uint64_t t_stop) {
    const double mean_gap_ns = 1e9 / spec_.rate_ops_s;
    double due_ns = static_cast<double>(now_ns());
    for (std::uint64_t i = 0; i < max_ops; ++i) {
      due_ns += -mean_gap_ns * std::log(1.0 - gaps_.uniform01());
      const auto due = static_cast<std::uint64_t>(due_ns);
      if (due >= t_stop) break;
      OpCtx& op = ops_[i % slot_count_];
      const std::uint64_t idle_from = now_ns();
      while (op.busy.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      reap(op);
      std::uint64_t now = now_ns();
      while (now < due) now = now_ns();
      if (measuring_) {
        idle_ns += now - idle_from;
        win_child_ns_ += now - idle_from;
        tick_window(now);
        late_ns.add(now - due);
      }
      op.busy.store(true, std::memory_order_relaxed);
      issue(op, due, now);
    }
    for (std::uint32_t s = 0; s < slot_count_; ++s) {
      while (ops_[s].busy.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      reap(ops_[s]);
    }
  }

  /// Take the next op of the stream into `op` and submit it; its latency
  /// counts from `ready_at`. `now` is a recent clock reading that places
  /// the op in a window: only traced ops read the clock here.
  void issue(OpCtx& op, std::uint64_t ready_at, std::uint64_t now) {
    const std::uint32_t next = stream_.at(next_op_++);
    const bool write = (next & 1u) != 0;
    const std::uint32_t key = next >> 1;
    op.write = write;
    op.reg = engine_->register_of(key);
    op.measured = measuring_;
    op.seq = measuring_ ? measured_ops++ : 0;
    if (measuring_ && op.seq + 1 == rss_ops()) rss_mb = peak_rss_mb();
    tbr::Value value;
    if (write) {
      op.tag = check_.begin_put(op.reg);
      encode_value(op.reg, op.tag, spec_.value_bytes, value);
    } else {
      op.tag = check_.begin_read(op.reg);
    }
    ++attempted;
    op.issued = true;
    op.t_ref = ready_at;
    const bool traced = measuring_ && trace_ && window_traced(now);
    op.traced = traced;
    if (traced) op.t_send = now_ns();
    engine_->issue(
        write, key, std::move(value),
        [this, p = &op](const tbr::OpResult& r) { complete(*p, r); });
    if (traced) {
      op.t_submit_end = now_ns();
      win_child_ns_ += op.t_submit_end - op.t_send;
    }
  }

  /// Completion callback, on the engine's completion thread.
  void complete(OpCtx& op, const tbr::OpResult& r) {
    const std::uint64_t now = now_ns();
    if (!r.status.ok()) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      const std::scoped_lock lock(error_mu_);
      if (failure_.empty()) failure_ = std::string("op failed: ") +
                                       r.status.message();
    } else {
      if (op.write) {
        check_.end_put(op.reg, op.tag,
                       engine_->reports_put_versions() ? r.version : op.tag,
                       r.absorbed);
      } else {
        check_.end_read(op.reg, op.tag, r.version, r.value);
      }
      if (op.measured) {
        if (now < t_stop_at) {
          latency_->mine()[(now - t_measure) / kWindowNs].add(now - op.t_ref);
        }
        if (engine_->virtual_latency() &&
            op.seq < spec_.exact_prefix_ops) {
          vlat_ticks[static_cast<std::size_t>(
              std::clamp<std::int64_t>(r.latency, 0, kVlatCapTicks))] += 1;
        }
      }
    }
    op.t_done = now;
    if (spec_.rate_ops_s > 0) {
      op.busy.store(false, std::memory_order_release);
      return;
    }
    Wave& w = waves_[op.wave];
    if (w.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      w.done_at = now;
      done_.fetch_or(std::uint64_t{1} << op.wave, std::memory_order_release);
      done_.notify_one();
    }
  }

  /// Generator side, after the op's completion is visible: trace spans.
  void reap(OpCtx& op) {
    if (!op.issued) return;
    op.issued = false;
    if (!op.traced) return;
    const std::uint64_t end = std::max(op.t_done, op.t_submit_end);
    submit_ns.add(op.t_submit_end - op.t_send);
    wait_ns.add(end - op.t_submit_end);
    const std::uint32_t tid = 1 + op.index;
    tracer_->record("op", "client", tid, op.t_send, end, end - op.t_send);
    tracer_->record("client.submit", "client", tid, op.t_send,
                    op.t_submit_end);
    tracer_->record("client.wait", engine_->layer(), tid, op.t_submit_end,
                    end);
  }

  /// Peak RSS is read after a fixed op count, not at the end of a timed
  /// run, so it measures memory per unit of work and a faster engine
  /// (which does more ops in the same time) does not read as bigger.
  std::uint64_t rss_ops() const { return spec_.nominal_ops / 4; }

  bool window_traced(std::uint64_t t) const {
    return ((t - t_measure) / kWindowNs) % 2 == 0;
  }

  /// Generator bookkeeping per window: in traced windows the
  /// generator's own `run` span, whose children are its submit calls and
  /// its waits; what remains is harness time.
  void tick_window(std::uint64_t now) {
    const std::uint64_t w = (now - t_measure) / kWindowNs;
    if (w == cur_window_) return;
    close_window();
    cur_window_ = w;
  }
  void close_window() {
    if (trace_ && cur_window_ % 2 == 0) {
      const std::uint64_t start = t_measure + cur_window_ * kWindowNs;
      const std::uint64_t end =
          t_drained > 0
              ? std::min(start + kWindowNs, std::max(t_drained, start))
              : start + kWindowNs;
      if (end > start) {
        tracer_->record("run", "bench", 0, start, end, win_child_ns_,
                        /*root=*/true);
      }
    }
    win_child_ns_ = 0;
  }

  const WorkloadSpec& spec_;
  const OpStream& stream_;
  std::uint64_t next_op_ = 0;
  tbr::Rng gaps_;  ///< open loop: arrival gaps
  Tracer* tracer_;
  std::unique_ptr<OpCtx[]> ops_;
  std::uint32_t slot_count_ = 0;
  std::unique_ptr<Wave[]> waves_;
  std::atomic<std::uint64_t> done_{0};  ///< bit k: wave k has finished
  std::unique_ptr<LatencyWindows> latency_;
  std::size_t windows_ = 1;
  bool measuring_ = false;
  bool trace_ = false;
  bool stopped_ = false;
  std::uint64_t cur_window_ = 0;
  std::uint64_t win_child_ns_ = 0;
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex error_mu_;
  std::string failure_;
  std::string check_violation_;
  AtomicityCheck check_;
  // Declared last: destroyed (after stop()) before anything its
  // callbacks touch.
  std::unique_ptr<Engine> engine_;
};

/// Quantile `q` in [0, 1] of `v`, interpolating between neighbours.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double k = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(k);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (k - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank percentile of an exact tick histogram, in Δ.
double vlat_delta(const std::vector<std::uint64_t>& ticks, double p) {
  std::uint64_t total = 0;
  for (std::uint64_t c : ticks) total += c;
  if (total == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t t = 0; t < ticks.size(); ++t) {
    seen += ticks[t];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      return static_cast<double>(t) / static_cast<double>(kDelta);
    }
  }
  return static_cast<double>(ticks.size() - 1) / static_cast<double>(kDelta);
}

}  // namespace

// ---- one run: set-ups, the measured phase, metrics ------------------------

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& opt,
                       std::ostream& log) {
  Tracer tracer(opt.trace ? kMaxTraceEvents : 0);
  const std::uint64_t origin = now_ns();
  const std::uint64_t warm_ops = spec.nominal_ops / 100;
  const std::uint64_t measure_cap = opt.smoke ? spec.nominal_ops / 100 : kNever;

  RunResult res;
  auto absorb = [&res](const EngineRun& s) {
    res.attempted += s.attempted;
    res.failed += s.failed();
    if (res.violation.empty()) res.violation = s.violation();
  };

  // Set-up = construction, start and warm-up; repeated so setup_s is a
  // median. The last engine is the one measured.
  const OpStream stream(spec, opt.seed);
  std::vector<double> setup_s;
  std::unique_ptr<EngineRun> kept;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t t0 = now_ns();
    auto s = std::make_unique<EngineRun>(spec, stream, opt.seed, &tracer);
    s->warm_up(warm_ops);
    const std::uint64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    if (opt.trace) tracer.record("setup", "bench", 0, t0, t1, 0, true);
    if (k + 1 == kSetups) {
      kept = std::move(s);
      break;
    }
    s->stop();
    absorb(*s);
    s.reset();
    if (opt.trace) tracer.record("teardown", "bench", 0, t1, now_ns(), 0, true);
  }

  EngineRun& s = *kept;
  s.measure(opt.seconds, measure_cap, opt.trace);
  const std::uint64_t td = now_ns();
  s.stop();
  if (opt.trace) tracer.record("teardown", "bench", 0, td, now_ns(), 0, true);
  absorb(s);
  res.correct = res.violation.empty() && res.failed == 0;

  // ---- end to end ----------------------------------------------------------
  // Throughput and latency come from the best quarter of the windows the
  // run covered in full: other tenants of a shared machine only ever slow
  // a window down, and on the machine the baseline was taken on they did
  // so for seconds at a time. A slowdown of the program itself that hits
  // more than a quarter of the windows still shows; shorter stalls show in
  // the whole-run tail, the bench.lat_* metrics.
  const std::vector<LogHistogram> windows = s.latency_windows();
  const std::uint64_t measured_ns =
      std::min(s.t_stop_at, s.t_drained) - s.t_measure;
  LogHistogram all;
  std::vector<double> rate, p50, p99;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    all.merge(windows[w]);
    if ((w + 1) * kWindowNs > measured_ns ||
        windows[w].count() < kMinWindowSamples) {
      continue;
    }
    rate.push_back(static_cast<double>(windows[w].count()) * 1e9 / kWindowNs);
    p50.push_back(windows[w].percentile(50) / 1e3);
    p99.push_back(windows[w].percentile(99) / 1e3);
  }
  if (rate.empty()) {  // shorter than one window (smoke runs)
    rate.push_back(ratio(static_cast<double>(all.count()) * 1e9,
                         static_cast<double>(measured_ns)));
    p50.push_back(all.percentile(50) / 1e3);
    p99.push_back(all.percentile(99) / 1e3);
  }
  auto& e2e = res.end_to_end;
  e2e["setup_s"] = {quantile(setup_s, 0.5), "s"};
  e2e["throughput_ops_s"] = {quantile(rate, kBestQuarter), "ops/s"};
  e2e["lat_p50_us"] = {quantile(p50, 1.0 - kBestQuarter), "us"};
  if (s.rss_mb == 0.0) {
    log << "note: run ended before " << spec.nominal_ops / 4
        << " measured ops; peak_rss_mb is read at the end\n";
  }
  e2e["peak_rss_mb"] = {s.rss_mb > 0.0 ? s.rss_mb : peak_rss_mb(), "MB"};

  // ---- per layer -----------------------------------------------------------
  // Counts are normalised by the measured ops. On the sim they come from
  // the first exact_prefix_ops ops, so they repeat exactly for a seed.
  const Counters& start = s.start_counters;
  const bool exact = s.prefix_ops > 0;
  const Counters& end = exact ? s.prefix_counters : s.end_counters;
  const auto ops = static_cast<double>(exact ? s.prefix_ops : s.measured_ops);
  if (spec.exact_prefix_ops > 0 && !exact) {
    log << "note: run ended before " << spec.exact_prefix_ops
        << " ops; sim counts cover the whole run and are not exact\n";
  }
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double frames = d(start.frames, end.frames);
  const double busy_s =
      static_cast<double>(s.t_drained - s.t_measure) / 1e9;
  const tbr::BatchStats& b0 = start.batch;
  const tbr::BatchStats& b1 = s.end_counters.batch;
  const Counters& fin = s.final_counters;

  auto& pl = res.per_layer;
  pl["client.submit_ns_p50"] = {s.submit_ns.percentile(50), "ns"};
  pl["client.wait_ns_p50"] = {s.wait_ns.percentile(50), "ns"};
  pl["client.gen_busy_frac"] = {
      1.0 - ratio(static_cast<double>(s.idle_ns) / 1e9, busy_s), "frac"};

  pl["kvstore.ops_per_batch"] = {
      ratio(d(b0.client_ops, b1.client_ops), d(b0.batches, b1.batches)),
      "ops"};
  const double coalesced = d(b0.coalesced_reads, b1.coalesced_reads);
  pl["kvstore.coalesced_read_frac"] = {
      ratio(coalesced,
            coalesced + d(b0.protocol_reads, b1.protocol_reads)),
      "frac"};
  const double absorbed = d(b0.absorbed_writes, b1.absorbed_writes);
  pl["kvstore.absorbed_write_frac"] = {
      ratio(absorbed, absorbed + d(b0.protocol_writes, b1.protocol_writes)),
      "frac"};
  pl["kvstore.protocol_ops_per_op"] = {
      ratio(d(b0.protocol_reads, b1.protocol_reads) +
                d(b0.protocol_writes, b1.protocol_writes),
            d(b0.client_ops, b1.client_ops)),
      "ops"};
  double skew = 0.0;
  if (!fin.shard_vtime.empty()) {
    const auto [lo, hi] =
        std::minmax_element(fin.shard_vtime.begin(), fin.shard_vtime.end());
    skew = ratio(static_cast<double>(*hi - *lo), static_cast<double>(*hi));
  }
  pl["kvstore.shard_vtime_skew"] = {skew, "frac"};

  pl["core.frames_per_op"] = {ratio(frames, ops), "frames"};
  pl["core.data_bytes_per_op"] = {
      ratio(d(start.data_bits, end.data_bits) / 8.0, ops), "B"};
  pl["core.ctrl_bits_max"] = {static_cast<double>(fin.control_bits_max),
                              "bits"};
  pl["core.local_memory_peak_bytes"] = {
      static_cast<double>(fin.local_memory_peak), "B"};

  pl["sim.events_per_op"] = {ratio(d(start.events, end.events), ops),
                             "events"};
  pl["sim.sched_work_per_event"] = {
      ratio(d(start.sched_work, end.sched_work), d(start.events, end.events)),
      "units"};
  pl["sim.events_per_s"] = {
      ratio(d(start.events, s.end_counters.events), busy_s), "1/s"};
  pl["sim.vlat_p50_delta"] = {vlat_delta(s.vlat_ticks, 50), "delta"};
  pl["sim.vlat_p99_delta"] = {vlat_delta(s.vlat_ticks, 99), "delta"};

  // Socket frames are u32 length | u8 type | codec fields: control bits
  // past the 2-bit type are whole bytes (e.g. ACK's u64), data bits count
  // the value and its u32 length.
  const double wire_bytes =
      spec.engine == EngineKind::kSocket
          ? 5.0 * frames +
                (d(start.control_bits, end.control_bits) - 2.0 * frames) /
                    8.0 +
                d(start.data_bits, end.data_bits) / 8.0
          : 0.0;
  pl["transport.wire_bytes_per_op"] = {ratio(wire_bytes, ops), "B"};
  pl["transport.park_events"] = {static_cast<double>(fin.park_events),
                                 "count"};
  pl["transport.peak_outbuf_bytes"] = {
      static_cast<double>(fin.peak_outbuf_bytes), "B"};

  pl["bench.gen_late_p99_us"] = {s.late_ns.percentile(99) / 1e3, "us"};
  pl["bench.gen_late_max_us"] = {static_cast<double>(s.late_ns.max()) / 1e3,
                                 "us"};
  pl["bench.samples"] = {static_cast<double>(all.count()), "count"};
  // Per window like lat_p50_us. Not end to end: on kv-uniform-write50
  // every op wakes an idle shard worker, and the tail of that wake-up
  // follows the load other tenants put on the host, so the value does
  // not repeat within any bound a regression check could use.
  pl["bench.lat_p99_us"] = {quantile(p99, 1.0 - kBestQuarter), "us"};
  pl["bench.lat_p999_us"] = {all.percentile(99.9) / 1e3, "us"};
  pl["bench.lat_max_us"] = {static_cast<double>(all.max()) / 1e3, "us"};
  double overhead = 0.0;
  if (opt.trace) {
    // Even windows were traced, odd ones not. Each traced window is
    // compared with the mean of its two untraced neighbours, which cancels
    // a throughput trend across the run.
    double sum = 0.0;
    int n = 0;
    for (std::size_t w = 2; w + 1 < windows.size(); w += 2) {
      const double plain = static_cast<double>(windows[w - 1].count() +
                                               windows[w + 1].count()) / 2.0;
      if (plain == 0.0) continue;
      sum += 1.0 - static_cast<double>(windows[w].count()) / plain;
      ++n;
    }
    overhead = n > 0 ? sum / n : 0.0;
  }
  pl["bench.trace_overhead_frac"] = {overhead, "frac"};

  if (opt.trace) {
    tracer.print_self_times(log);
    if (!opt.trace_path.empty()) {
      if (tracer.write_chrome(opt.trace_path, origin)) {
        log << "trace: " << tracer.stored() << " spans -> " << opt.trace_path
            << "\n";
      } else {
        log << "trace: cannot write " << opt.trace_path << "\n";
      }
    }
  }
  return res;
}

}  // namespace tbrbench
