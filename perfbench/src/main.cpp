// End-to-end benchmark driver for the Smart in-situ runtime.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file.json>]
//
// --trace 0 measures the end-to-end metrics with nothing but the driver's
// own timestamps around the public entry points.  --trace 1 is a separate
// run that also reads the layers' counters per step, turns the metrics
// registry on, and reports the per-layer metrics; it interleaves untraced
// episodes to report its own overhead (obs.trace_overhead_ratio) and, on
// multi-threaded workloads, 1-thread episodes for core.parallel_efficiency.
//
// Every metric is printed as "metric <name> <value> <unit>" with its sample
// count; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} (perfbench/run.py checks
// its metric names against BENCHMARK.json).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/memory_tracker.h"

extern char** environ;

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

/// A run measures at least this many analyzed steps.
constexpr std::size_t kMinSteps = 1000;
/// Steps of the warm-up launch and of each traced-run launch: per-layer
/// numbers pool all steps, so short launches interleave traced, untraced and
/// 1-thread launches more finely.
constexpr std::size_t kShortLaunchSteps = 250;
/// Zero-step launches after each measured launch, for setup_s.
constexpr int kSetupOnlyLaunches = 4;
/// Steps of the gate self-test episode (every other step is sampled).
constexpr std::size_t kProbeSteps = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::fflush(stderr);
  // _Exit: skip the runtime's atexit dumps an env hook may have armed.
  std::_Exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) refuse("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") refuse("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        refuse("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      refuse("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) refuse("--workload is required");
  if (!(a.seconds > 0.0)) refuse("--seconds must be positive");
  return a;
}

/// The runtime's env hooks change what a run measures: SMART_TRACE /
/// SMART_METRICS / SMART_CRITPATH arm tracing and at-exit dumps, and
/// SMART_NET_* / SMART_SCHED_* select network and schedule models.
void refuse_unclean_environment() {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    refuse(std::string("refusing a non-Release build (CMAKE_BUILD_TYPE='") +
           PERFBENCH_BUILD_TYPE + "')");
  }
#ifndef NDEBUG
  refuse("refusing a build with assertions enabled (NDEBUG unset)");
#endif
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (name == "SMART_TRACE" || name == "SMART_METRICS" || name == "SMART_CRITPATH" ||
        name.rfind("SMART_NET_", 0) == 0 || name.rfind("SMART_SCHED_", 0) == 0) {
      refuse("refusing to run with " + name + " set: it changes what is measured");
    }
  }
}

/// VmHWM of this process image.  Not getrusage's ru_maxrss: that keeps the
/// high-water mark of the pre-exec parent (the launching interpreter).
double peak_rss_mb() { return static_cast<double>(smart::process_peak_rss_bytes()) / 1e6; }

double steps_per_s(const Episode& ep) {
  return ep.wall_s > 0.0 ? static_cast<double>(ep.steps) / ep.wall_s : 0.0;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Metrics of one run, in print order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
    std::printf("metric %-36s %14s %-8s %s\n", name.c_str(), fmt(value).c_str(), unit.c_str(),
                note.c_str());
    entries_.push_back({name, value, unit});
  }

  /// A metric printed for the reader but left out of the result line.
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note) const {
    std::printf("metric %-36s %14s %-8s %s\n", name.c_str(), fmt(value).c_str(), unit.c_str(),
                note.c_str());
  }

  void print_result(bool correct, std::size_t attempted, std::size_t failed) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    const char* sep = "";
    for (const auto& e : entries_) {
      os << sep << '"' << e.name << "\": {\"value\": " << fmt(e.value) << ", \"unit\": \""
         << e.unit << "\"}";
      sep = ", ";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Failure accounting over every measured episode.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t checked = 0;
  std::vector<std::string> errors;

  void add(const Episode& ep) {
    attempted += ep.steps;
    failed += ep.failed();
    checked += ep.checked;
    if (!ep.error.empty()) errors.push_back(ep.error);
  }
};

/// Gate self-test: a short episode whose sampled results are corrupted on
/// every other sample must fail exactly those samples, so the correctness
/// gate cannot pass vacuously.
bool gate_self_test(const Workload& w, std::uint64_t seed) {
  EpisodeParams p;
  p.seed = seed;
  p.steps = kProbeSteps;
  p.threads = w.threads;
  p.corrupt = true;
  const Episode ep = w.run(p);
  const bool ok = ep.error.empty() && ep.corrupted > 0 && ep.mismatched == ep.corrupted &&
                  ep.checked > ep.corrupted;
  std::printf("gate self-test: %zu sampled steps, %zu corrupted on purpose, %zu flagged -> %s\n",
              ep.checked, ep.corrupted, ep.mismatched, ok ? "ok" : "FAILED");
  return ok;
}

// --- end-to-end (untraced) ---------------------------------------------------

void run_untraced(const Workload& w, const Args& a, Report& report, Tally& tally) {
  std::vector<double> sps, vms, mem, setup, setup_wall, p50, p99;
  const double t0 = now_s();
  std::size_t steps = 0;
  double lap = 0.0;  // duration of the last launch (with its set-up samples)
  while (steps < kMinSteps || now_s() - t0 + lap <= a.seconds) {
    const double lap0 = now_s();
    EpisodeParams p;
    p.seed = a.seed;
    p.steps = w.episode_steps;
    p.threads = w.threads;
    Episode ep = w.run(p);
    tally.add(ep);
    steps += ep.steps;
    if (ep.error.empty()) {
      sps.push_back(steps_per_s(ep));
      vms.push_back(ep.vmakespan_s);
      mem.push_back(ep.peak_analytics_bytes / 1e6);
      setup.push_back(ep.setup_cpu_s);
      setup_wall.push_back(ep.setup_wall_s);
      p50.push_back(quantile(ep.latency_ms, 0.50));
      p99.push_back(quantile(ep.latency_ms, 0.99));
    }
    // Set-up is short and noisy next to a launch's steps: sample it more
    // often with zero-step launches between the measured ones.
    for (int i = 0; i < kSetupOnlyLaunches; ++i) {
      p.steps = 0;
      const Episode bare = w.run(p);
      if (bare.error.empty()) {
        setup.push_back(bare.setup_cpu_s);
        setup_wall.push_back(bare.setup_wall_s);
      }
    }
    lap = now_s() - lap0;
  }
  const std::string episodes =
      "(median of " + std::to_string(sps.size()) + " launches x " +
      std::to_string(w.episode_steps) + " steps)";
  // Latency quantiles are taken per launch (>= 1000 steps, so a p99 has at
  // least ten steps beyond it) and the median over launches is reported: a
  // burst of host CPU steal then moves one launch, not the run.
  const std::string per_launch = "(median over " + std::to_string(p99.size()) +
                                 " launches of each launch's quantile over " +
                                 std::to_string(w.episode_steps) +
                                 " steps; max over ranks per step)";
  const std::string ungated = " [wall clock: reported, not in the result line]";
  // The wall-clock figures are printed but not gated: on a shared host they
  // follow host CPU steal further than any admissible bound (README.md,
  // "Noise").  The traced run reports them as per-layer metrics.
  report.info("steps_per_s", median(sps), "1/s", episodes + ungated);
  report.info("result_ms_p50", median(p50), "ms", per_launch + ungated);
  report.info("result_ms_p99", median(p99), "ms", per_launch + ungated);
  report.info("setup_wall_s", median(setup_wall), "s",
              "(median of " + std::to_string(setup_wall.size()) + " launches)" + ungated);
  report.add("virtual_makespan_s", median(vms), "s",
             w.space_sharing ? episodes + " [rank (simulation) threads only: the analytics "
                                          "task is not on the virtual clock]"
                             : episodes);
  report.add("peak_analytics_mb", median(mem), "MB",
             episodes + " [MemoryTracker peaks: reduction objects + input copies]");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "(process maximum RSS)");
  report.add("setup_s", median(setup), "s",
             "(median of " + std::to_string(setup.size()) +
                 " launches: CPU seconds of launch + sim init + scheduler/pool, up to the "
                 "first step)");
}

// --- per-layer (traced) ------------------------------------------------------

/// Per-layer aggregates over the traced episodes of one thread count.
struct LayerAgg {
  std::size_t rank_steps = 0;
  std::size_t steps = 0;
  std::vector<double> sim_ms, run_ms, skew, feed_block_ms, queue_wait_ms;
  double reduce = 0, local = 0, global = 0, copy_in_run = 0, codec = 0, merges = 0,
         early = 0, elements = 0, unattributed = 0, feed = 0, feed_copy = 0, remainder = 0,
         iter = 0, sim = 0, run = 0, analytics_idle = 0;
  double peak_objs = 0;
  double bytes = 0, stall = 0, copied = 0, hits = 0, misses = 0;
  smart::obs::MetricsSnapshot metrics;  ///< merged over the episodes

  void add(const Episode& ep, bool space) {
    steps += ep.steps;
    bytes += static_cast<double>(ep.launch.total_bytes_sent());
    for (double s : ep.launch.rank_send_stall_seconds) stall += s;
    copied += static_cast<double>(ep.payload_bytes_copied);
    hits += static_cast<double>(ep.pool.hits);
    misses += static_cast<double>(ep.pool.misses);
    metrics.merge(ep.metrics);
    for (const auto& rank : ep.recs) {
      double prev_done = 0.0;
      for (const StepRec& r : rank) {
        ++rank_steps;
        const double sim_s = r.sim1 - r.sim0;
        const double run_s = r.done - r.pickup();
        const double feed_s = r.feed1 - r.feed0;
        sim_ms.push_back(sim_s * 1e3);
        run_ms.push_back(run_s * 1e3);
        skew.push_back(r.core.worker_skew);
        reduce += r.core.reduce_s;
        local += r.core.local_s;
        global += r.core.global_s;
        copy_in_run += r.core.copy_s;
        codec += r.core.codec_s;
        merges += r.core.merges;
        early += r.core.early_emissions;
        elements += r.core.elements;
        peak_objs = std::max(peak_objs, r.core.peak_reduction_objects);
        unattributed += run_s - (r.core.reduce_s + r.core.local_s + r.core.global_s + r.core.copy_s);
        iter += r.iter1 - r.iter0;
        sim += sim_s;
        run += run_s;
        if (space) {
          feed += feed_s;
          feed_copy += r.feed_copy_s;
          feed_block_ms.push_back((feed_s - r.feed_copy_s) * 1e3);
          queue_wait_ms.push_back(std::max(0.0, r.call - r.feed1) * 1e3);
          // Analytics task: time between finishing one step and picking up
          // the next (waiting for the simulation to hand a step over).
          if (prev_done > 0.0) analytics_idle += r.pickup() - prev_done;
          prev_done = r.done;
          remainder += (r.iter1 - r.iter0) - sim_s - feed_s;
        } else {
          remainder += (r.iter1 - r.iter0) - sim_s - run_s;
        }
      }
    }
  }

  double per_rank_step(double total) const {
    return rank_steps > 0 ? total / static_cast<double>(rank_steps) : 0.0;
  }
  double per_step(double total) const {
    return steps > 0 ? total / static_cast<double>(steps) : 0.0;
  }
  double counter(const std::string& name) const {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double histogram_p50(const std::string& name) const {
    for (const auto& h : metrics.histograms) {
      if (h.name == name && h.count > 0) return h.percentile(0.5);
    }
    return 0.0;
  }
};

/// Chrome trace-event JSON of one traced episode: one span per layer call,
/// pid = rank, tid 0 = simulation thread, tid 1 = analytics task, and the
/// step id shared across ranks in args.step.
void write_chrome_trace(const std::string& path, const Episode& ep, bool space) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  os << "{\"traceEvents\": [";
  const char* sep = "\n";
  auto span = [&](const char* name, int pid, int tid, std::size_t step, double t0, double t1) {
    if (t1 <= t0) return;
    os << sep << "{\"name\": \"" << name << "\", \"ph\": \"X\", \"pid\": " << pid
       << ", \"tid\": " << tid << ", \"ts\": " << fmt(t0 * 1e6) << ", \"dur\": "
       << fmt((t1 - t0) * 1e6) << ", \"args\": {\"step\": " << step << "}}";
    sep = ",\n";
  };
  for (std::size_t rank = 0; rank < ep.recs.size(); ++rank) {
    const int pid = static_cast<int>(rank);
    for (std::size_t s = 0; s < ep.recs[rank].size(); ++s) {
      const StepRec& r = ep.recs[rank][s];
      span("step", pid, 0, s, r.iter0, r.iter1);
      span("sim.step", pid, 0, s, r.sim0, r.sim1);
      if (space) span("core.feed", pid, 0, s, r.feed0, r.feed1);
      span("core.run", pid, space ? 1 : 0, s, r.pickup(), r.done);
    }
  }
  os << "\n]}\n";
}

void run_traced(const Workload& w, const Args& a, Report& report, Tally& tally) {
  const bool baseline = w.threads > 1;  // 1-thread baseline for parallel efficiency
  LayerAgg main_agg, base_agg;
  std::vector<double> traced_sps, untraced_sps, untraced_latency_ms;
  Episode last_traced;
  const double t0 = now_s();
  std::size_t traced_steps = 0;
  double lap = 0.0;  // duration of the last cycle
  while (traced_steps < kMinSteps || now_s() - t0 + lap <= a.seconds) {
    const double lap0 = now_s();
    // Interleaved so drift on a shared machine hits all three alike.
    EpisodeParams p;
    p.seed = a.seed;
    p.steps = kShortLaunchSteps;
    p.threads = w.threads;
    p.traced = true;
    Episode ep = w.run(p);
    tally.add(ep);
    traced_steps += ep.steps;
    if (ep.error.empty()) {
      traced_sps.push_back(steps_per_s(ep));
      main_agg.add(ep, w.space_sharing);
      last_traced = std::move(ep);
    }

    p.traced = false;
    Episode plain = w.run(p);
    tally.add(plain);
    if (plain.error.empty()) {
      untraced_sps.push_back(steps_per_s(plain));
      untraced_latency_ms.insert(untraced_latency_ms.end(), plain.latency_ms.begin(),
                                 plain.latency_ms.end());
    }

    if (baseline) {
      p.traced = true;
      p.threads = 1;
      Episode one = w.run(p);
      tally.add(one);
      if (one.error.empty()) base_agg.add(one, w.space_sharing);
    }
    lap = now_s() - lap0;
  }

  const LayerAgg& m = main_agg;
  const std::string n_rs = "(" + std::to_string(m.rank_steps) + " rank-steps)";
  const std::string n_s = "(" + std::to_string(m.steps) + " steps)";
  const double run_p50 = quantile(m.run_ms, 0.5);
  // Wall-clock end-to-end figures, from the interleaved untraced launches.
  const std::string untraced_note =
      "(" + std::to_string(untraced_latency_ms.size()) +
      " steps of the untraced launches pooled; max over ranks per step)";
  report.add("steps_per_s", median(untraced_sps), "1/s",
             "(median of " + std::to_string(untraced_sps.size()) + " untraced launches)");
  report.add("result_ms_p50", quantile(untraced_latency_ms, 0.50), "ms", untraced_note);
  report.add("result_ms_p99", quantile(untraced_latency_ms, 0.99), "ms", untraced_note);
  report.add("sim.step_ms_p50", quantile(m.sim_ms, 0.5), "ms", n_rs);
  report.add("core.run_ms_p50", run_p50, "ms", n_rs);
  report.add("core.run_ms_p99", quantile(m.run_ms, 0.99), "ms", n_rs);
  report.add("core.reduce_s_per_step", m.per_rank_step(m.reduce), "s", n_rs);
  report.add("core.local_combine_s_per_step", m.per_rank_step(m.local), "s", n_rs);
  report.add("core.global_combine_s_per_step", m.per_rank_step(m.global), "s", n_rs);
  report.add("core.codec_s_per_step", m.per_rank_step(m.codec), "s", n_rs);
  report.add("core.copy_s_per_step",
             m.per_rank_step(w.space_sharing ? m.feed_copy : m.copy_in_run), "s",
             w.space_sharing ? n_rs + " [feed copy]" : n_rs + " [copy inside run]");
  report.add("core.unattributed_s_per_step", m.per_rank_step(m.unattributed), "s",
             n_rs + " [core.run wall - reduce - local - global - copy]");
  // Time-sharing steps reset RunStats, so their skew is per step; feed()
  // races a reset in space sharing, so there it is RunStats' running max.
  report.add("core.worker_skew", w.space_sharing ? quantile(m.skew, 1.0) : quantile(m.skew, 0.5),
             "ratio", w.space_sharing ? "(running max)" : "(median per step)");
  report.add("core.map_merges_per_step", m.per_rank_step(m.merges), "count", n_rs);
  report.add("core.peak_reduction_objects", m.peak_objs, "count", "(max over ranks and steps)");
  report.add("core.early_emissions_per_step", m.per_rank_step(m.early), "count", n_rs);
  report.add("core.feed_block_ms_p50", quantile(m.feed_block_ms, 0.5), "ms",
             w.space_sharing ? n_rs + " [feed wall - feed copy]" : "(no feed: time sharing)");
  report.add("core.queue_wait_ms_p50", quantile(m.queue_wait_ms, 0.5), "ms",
             w.space_sharing ? n_rs + " [feed return -> run2 pickup]" : "(no feed: time sharing)");
  double efficiency = 1.0;
  std::string eff_note = "(1 analytics thread: trivially 1)";
  if (baseline && !base_agg.run_ms.empty() && run_p50 > 0.0) {
    efficiency = quantile(base_agg.run_ms, 0.5) / (w.threads * run_p50);
    eff_note = "(core.run p50 at 1 thread / (" + std::to_string(w.threads) + " x at " +
               std::to_string(w.threads) + "), " + std::to_string(base_agg.rank_steps) +
               " 1-thread steps)";
  }
  report.add("core.parallel_efficiency", efficiency, "ratio", eff_note);
  report.add("analytics.melem_per_s", m.reduce > 0 ? m.elements / m.reduce / 1e6 : 0.0,
             "Melem/s", "(elements / reduction seconds)");
  report.add("simmpi.bytes_per_step", m.per_step(m.bytes), "bytes", n_s + " [all ranks]");
  report.add("simmpi.messages_per_step", m.per_step(m.counter("simmpi.messages_sent")), "count",
             n_s + " [all ranks]");
  report.add("simmpi.recv_wait_us_p50", m.histogram_p50("simmpi.recv_wait_us"), "us",
             "(bucket-interpolated, decade buckets)");
  report.add("simmpi.send_stall_s", m.per_step(m.stall), "s/step", n_s + " [all ranks]");
  report.add("simmpi.payload_bytes_copied_per_step", m.per_step(m.copied), "bytes",
             n_s + " [all ranks]");
  report.add("common.bufferpool_hit_ratio",
             m.hits + m.misses > 0 ? m.hits / (m.hits + m.misses) : 0.0, "ratio",
             "(" + fmt(m.hits + m.misses) + " acquires)");
  report.add("bench.step_remainder_s_per_step", m.per_rank_step(m.remainder), "s",
             n_rs + " [step wall - sim.step - feed - core.run on the simulation thread]");
  const double overhead =
      median(untraced_sps) > 0.0 ? median(traced_sps) / median(untraced_sps) : 0.0;
  report.add("obs.trace_overhead_ratio", overhead, "ratio",
             "(traced / untraced steps_per_s, " + std::to_string(traced_sps.size()) + " + " +
                 std::to_string(untraced_sps.size()) + " interleaved launches)");
  report.add("failed_ratio",
             tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
             "ratio", "(" + std::to_string(tally.attempted) + " steps attempted)");

  // Reconciliation: where each step's wall time went, remainders named.
  const double iter = m.per_rank_step(m.iter), sim = m.per_rank_step(m.sim),
               run = m.per_rank_step(m.run), feed = m.per_rank_step(m.feed);
  if (w.space_sharing) {
    std::printf("reconcile step (simulation thread): %s s = sim.step %s + core.feed %s + "
                "remainder %s\n",
                fmt(iter).c_str(), fmt(sim).c_str(), fmt(feed).c_str(),
                fmt(m.per_rank_step(m.remainder)).c_str());
    std::printf("reconcile step (analytics task): core.run %s s busy + %s s waiting for the "
                "next hand-off\n",
                fmt(run).c_str(), fmt(m.per_rank_step(m.analytics_idle)).c_str());
  } else {
    std::printf("reconcile step: %s s = sim.step %s + core.run %s + remainder %s\n",
                fmt(iter).c_str(), fmt(sim).c_str(), fmt(run).c_str(),
                fmt(m.per_rank_step(m.remainder)).c_str());
  }
  std::printf("reconcile core.run: %s s = reduce %s + local_combine %s + global_combine %s + "
              "copy %s + unattributed %s\n",
              fmt(run).c_str(), fmt(m.per_rank_step(m.reduce)).c_str(),
              fmt(m.per_rank_step(m.local)).c_str(), fmt(m.per_rank_step(m.global)).c_str(),
              fmt(m.per_rank_step(m.copy_in_run)).c_str(),
              fmt(m.per_rank_step(m.unattributed)).c_str());

  if (baseline && base_agg.rank_steps > 0) {
    // Which layer stops scaling: per-layer efficiency against the 1-thread
    // baseline, and the time each loses against ideal scaling.
    const auto n = static_cast<double>(w.threads);
    const std::pair<const char*, std::pair<double, double>> layers[] = {
        {"reduce", {base_agg.per_rank_step(base_agg.reduce), m.per_rank_step(m.reduce)}},
        {"local_combine", {base_agg.per_rank_step(base_agg.local), m.per_rank_step(m.local)}},
        {"unattributed",
         {base_agg.per_rank_step(base_agg.unattributed), m.per_rank_step(m.unattributed)}},
    };
    const char* worst = "";
    double worst_loss = -1.0;
    std::printf("scaling 1 -> %d threads (s/step):", w.threads);
    for (const auto& [name, t] : layers) {
      const double eff = t.second > 0.0 ? t.first / (n * t.second) : 0.0;
      const double loss = t.second - t.first / n;
      std::printf("  %s %s -> %s (eff %.2f)", name, fmt(t.first).c_str(), fmt(t.second).c_str(),
                  eff);
      if (loss > worst_loss) {
        worst_loss = loss;
        worst = name;
      }
    }
    std::printf("\nscaling: the layer losing the most time against ideal scaling is %s "
                "(%s s/step)\n",
                worst, fmt(worst_loss).c_str());
  }

  if (!a.trace_out.empty() && !last_traced.recs.empty()) {
    write_chrome_trace(a.trace_out, last_traced, w.space_sharing);
    std::printf("trace: %s (last traced launch, Chrome trace-event JSON)\n",
                a.trace_out.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  refuse_unclean_environment();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) refuse("unknown workload '" + a.workload + "'");
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("context: workload=%s build_type=%s nproc=%u seed=%llu seconds=%s trace=%d "
              "ranks=%d threads=%d steps_per_launch=%zu mode=%s network=flat(default)\n",
              w->name, PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(a.seed), fmt(a.seconds).c_str(), a.trace ? 1 : 0,
              w->ranks, w->threads, w->episode_steps, w->space_sharing ? "space" : "time");
  std::printf("shape: %s\n", w->shape);

  // Warm-up launch (caches, allocator, lazy statics), not counted.
  EpisodeParams warm;
  warm.seed = a.seed;
  warm.steps = kShortLaunchSteps;
  warm.threads = w->threads;
  const Episode warm_ep = w->run(warm);
  const bool gate_ok = gate_self_test(*w, a.seed) && warm_ep.error.empty();

  Report report;
  Tally tally;
  if (a.trace) {
    run_traced(*w, a, report, tally);
  } else {
    run_untraced(*w, a, report, tally);
  }
  std::printf("failed_ratio %s (%zu of %zu steps; %zu sampled steps checked against "
              "analytics/reference.h)\n",
              fmt(tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0)
                  .c_str(),
              tally.failed, tally.attempted, tally.checked);
  for (const auto& e : tally.errors) std::printf("error: %s\n", e.c_str());
  if (!warm_ep.error.empty()) std::printf("error (warm-up): %s\n", warm_ep.error.c_str());
  const bool correct = gate_ok && tally.failed == 0 && tally.checked > 0;
  report.print_result(correct, tally.attempted, tally.failed);
  return 0;
}
