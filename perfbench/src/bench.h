// Shared types of the end-to-end benchmark driver.
//
// One *episode* is one SPMD launch: set-up (launch, simulation init,
// scheduler and pool construction), then a closed loop of analyzed steps —
// the simulation produces step s+1 only after it has handed step s to the
// analytics — then teardown.  A benchmark run repeats episodes of a fixed
// length until its time budget is spent and reports medians over them.
//
// Every number here is measured from outside the runtime: timestamps the
// driver takes around the public entry points (simulation step(),
// Scheduler::run/run2/feed) and the counters the layers already expose
// (RunStats, LaunchStats, MemoryTracker, MetricsRegistry, BufferPool).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/run_stats.h"
#include "obs/metrics.h"
#include "simmpi/world.h"

namespace perfbench {

/// Seconds on the steady clock since a process-wide origin, so stamps taken
/// on different rank threads share one time base.
double now_s();

/// Counters Scheduler::run/run2 advance, read on the thread that calls run
/// (space sharing's feed() writes copy_seconds from the simulation thread,
/// so that field is read there instead).
struct CoreSample {
  double reduce_s = 0.0;
  double local_s = 0.0;
  double global_s = 0.0;
  double copy_s = 0.0;  ///< copy inside run (copy_input mode); 0 when zero-copy
  double codec_s = 0.0;
  double merges = 0.0;
  double early_emissions = 0.0;
  double elements = 0.0;
  double worker_skew = 0.0;             ///< as reported after the call
  double peak_reduction_objects = 0.0;  ///< as reported after the call

  /// Fields run() writes; `with_copy` also reads copy_seconds (time sharing).
  static CoreSample read(const smart::RunStats& s, bool with_copy);
  /// Additive fields as after - before; skew and peak keep `after`'s value.
  static CoreSample delta(const CoreSample& before, const CoreSample& after);
};

/// One analyzed step as one rank saw it.  Stamps are now_s(); a span that
/// does not exist in a mode (feed in time sharing) stays {0, 0}.  In space
/// sharing the simulation thread fills iter/sim/feed/ready and the
/// analytics thread fills call/done/core — disjoint fields, read together
/// only after both threads are joined.
struct StepRec {
  double iter0 = 0.0, iter1 = 0.0;  ///< whole loop iteration on the simulation thread
  double sim0 = 0.0, sim1 = 0.0;    ///< sim.step (all sub-steps of one analyzed step)
  double feed0 = 0.0, feed1 = 0.0;  ///< Scheduler::feed
  double feed_copy_s = 0.0;         ///< RunStats::copy_seconds advanced by that feed
  double ready = 0.0;  ///< step output ready: after sim.step (time) / at feed (space)
  double call = 0.0;   ///< run/run2 called
  double done = 0.0;   ///< run/run2 returned: the step's result is available
  CoreSample core;     ///< counters advanced by the run call (traced only)

  /// When run/run2 started on this step: the call itself in time sharing;
  /// in space sharing the later of the call and the step's hand-off.
  double pickup() const { return feed1 > call ? feed1 : call; }
};

/// What a workload needs to run one episode.
struct EpisodeParams {
  std::uint64_t seed = 1;
  std::size_t steps = 0;
  int threads = 1;       ///< analytics threads per rank
  bool traced = false;   ///< read per-step counters and reset metrics around the launch
  bool corrupt = false;  ///< gate self-test: corrupt every other sampled result
};

/// Outcome of one episode.
struct Episode {
  double setup_wall_s = 0.0;  ///< launch start -> last rank ready for its first step
  double setup_cpu_s = 0.0;   ///< launching thread's CPU + the slowest rank's CPU to ready
  double wall_s = 0.0;       ///< first step start -> last result available
  double vmakespan_s = 0.0;  ///< LaunchStats::makespan()
  std::size_t steps = 0;
  std::vector<double> latency_ms;  ///< per step: max over ranks of result latency
  double peak_analytics_bytes = 0.0;
  std::size_t checked = 0;   ///< sampled steps compared with the reference
  std::size_t mismatched = 0;
  std::size_t corrupted = 0;  ///< sampled results corrupted on purpose (self-test)
  std::size_t threw = 0;      ///< steps lost to an exception
  std::string error;

  std::vector<std::vector<StepRec>> recs;  ///< [rank][step]
  smart::simmpi::LaunchStats launch;

  // Traced episodes only.
  smart::obs::MetricsSnapshot metrics;
  smart::BufferPool::Totals pool;  ///< BufferPool totals advanced by the episode
  std::uint64_t payload_bytes_copied = 0;

  std::size_t failed() const { return mismatched + threw; }
};

/// A benchmark workload: one simulation + one analytics in one in-situ mode.
struct Workload {
  const char* name;
  int ranks;
  int threads;                ///< analytics threads per rank
  std::size_t episode_steps;  ///< analyzed steps per launch (>= 1000: ten beyond its p99)
  bool space_sharing;
  const char* shape;          ///< one-line description, printed in the run context
  Episode (*run)(const EpisodeParams&);
};

/// The three workloads (iter_kmeans, combine_keys, space_window); null for
/// an unknown name.
const Workload* find_workload(const std::string& name);

/// p-quantile (0..1) by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
