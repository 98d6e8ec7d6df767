// The three benchmark workloads and their correctness gate.
//
//   iter_kmeans  — Heat3D 32x32x64 slab, k-means (k=8, 4 dims, 10 iterations
//                  per step), 1 rank x 4 analytics threads, time sharing.
//   combine_keys — Emulator Gaussian stream, 4096 doubles per rank per step,
//                  1200-bucket histogram, 4 ranks x 1 thread, time sharing.
//   space_window — MiniLulesh edge 16 per rank, moving median (window 25),
//                  space sharing (feed -> circular buffer -> run2 on a
//                  concurrent analytics task), 2 ranks x (1 sim + 1 worker).
//
// Correctness is checked outside the timed region: on sampled steps the
// loop stashes the step's input and result (after the result stamp), and
// once the launch has ended the stashes are compared with the serial
// references of analytics/reference.h.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/moving_median.h"
#include "analytics/reference.h"
#include "bench.h"
#include "common/memory_tracker.h"
#include "common/rng.h"
#include "common/timing.h"
#include "sim/emulator.h"
#include "sim/heat3d.h"
#include "sim/minilulesh.h"

namespace perfbench {

using namespace smart;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin).count();
}

CoreSample CoreSample::read(const RunStats& s, bool with_copy) {
  CoreSample c;
  c.reduce_s = s.reduction_seconds;
  c.local_s = s.combination_seconds;
  c.global_s = s.global_seconds;
  c.copy_s = with_copy ? s.copy_seconds : 0.0;
  c.codec_s = s.codec_seconds;
  c.merges = static_cast<double>(s.map_merges);
  c.early_emissions = static_cast<double>(s.early_emissions);
  c.elements = static_cast<double>(s.elements_processed);
  c.worker_skew = s.worker_skew;
  c.peak_reduction_objects = static_cast<double>(s.peak_reduction_objects);
  return c;
}

CoreSample CoreSample::delta(const CoreSample& before, const CoreSample& after) {
  CoreSample d;
  d.reduce_s = after.reduce_s - before.reduce_s;
  d.local_s = after.local_s - before.local_s;
  d.global_s = after.global_s - before.global_s;
  d.copy_s = after.copy_s - before.copy_s;
  d.codec_s = after.codec_s - before.codec_s;
  d.merges = after.merges - before.merges;
  d.early_emissions = after.early_emissions - before.early_emissions;
  d.elements = after.elements - before.elements;
  d.worker_skew = after.worker_skew;
  d.peak_reduction_objects = after.peak_reduction_objects;
  return d;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {

// derive_seed lanes of the workload seed (ranks use lanes 0..ranks-1).
constexpr std::uint64_t kCentroidLane = 1000;
constexpr std::uint64_t kSampleLane = 1001;
constexpr std::uint64_t kBlastLane = 1002;

/// Sampled results per episode checked against the reference.
constexpr std::size_t kSamplesPerEpisode = 8;

/// Which steps of an episode the correctness gate samples: every stride-th
/// step from a seed-derived offset.
class Sampler {
 public:
  Sampler(std::uint64_t seed, std::size_t steps) {
    stride_ = std::max<std::size_t>(1, steps / kSamplesPerEpisode);
    offset_ = derive_seed(seed, kSampleLane) % stride_;
    count_ = steps > offset_ ? (steps - offset_ + stride_ - 1) / stride_ : 0;
  }
  /// Sample slot of step s, or -1 when s is not sampled.
  int slot(std::size_t s) const {
    return s % stride_ == offset_ ? static_cast<int>(s / stride_) : -1;
  }
  std::size_t count() const { return count_; }

 private:
  std::size_t stride_ = 1;
  std::size_t offset_ = 0;
  std::size_t count_ = 0;
};

/// Stashed inputs and results of the sampled steps, [slot][rank].  Each
/// rank thread writes only its own column.
struct Stash {
  std::vector<std::vector<std::vector<double>>> input;
  std::vector<std::vector<std::vector<double>>> output;
  std::vector<std::vector<char>> filled;

  Stash(std::size_t slots, int ranks)
      : input(slots, std::vector<std::vector<double>>(static_cast<std::size_t>(ranks))),
        output(slots, std::vector<std::vector<double>>(static_cast<std::size_t>(ranks))),
        filled(slots, std::vector<char>(static_cast<std::size_t>(ranks), 0)) {}

  template <class T>
  void put(int slot, int rank, const double* in, std::size_t in_len, const T* out,
           std::size_t out_len) {
    const auto s = static_cast<std::size_t>(slot);
    const auto r = static_cast<std::size_t>(rank);
    input[s][r].assign(in, in + in_len);
    output[s][r].assign(out, out + out_len);
    filled[s][r] = 1;
  }
};

/// Counters and histogram buckets of `after` minus those of `before`
/// (gauges keep `after`'s value: they are high-water marks).
obs::MetricsSnapshot metrics_delta(const obs::MetricsSnapshot& before,
                                   obs::MetricsSnapshot after) {
  for (auto& [name, value] : after.counters) {
    if (const auto it = before.counters.find(name); it != before.counters.end()) {
      value -= it->second;
    }
  }
  for (auto& h : after.histograms) {
    for (const auto& b : before.histograms) {
      if (b.name != h.name || b.buckets.size() != h.buckets.size()) continue;
      for (std::size_t i = 0; i < h.buckets.size(); ++i) h.buckets[i] -= b.buckets[i];
      h.count -= b.count;
      h.sum -= b.sum;
    }
  }
  return after;
}

/// Per-episode bookkeeping shared by the workloads: set-up stamps, the
/// memory tracker window, and the traced counters around the launch.
class EpisodeFrame {
 public:
  EpisodeFrame(const EpisodeParams& p, int ranks)
      : p_(p),
        ready_(static_cast<std::size_t>(ranks), 0.0),
        ready_cpu_(static_cast<std::size_t>(ranks), 0.0) {
    ep_.steps = p.steps;
    ep_.recs.assign(static_cast<std::size_t>(ranks), std::vector<StepRec>(p.steps));
    auto& tracker = MemoryTracker::instance();
    if (tracker.current() == 0) tracker.reset();  // nothing live: open a fresh peak window
    if (p.traced) {
      // Deltas, not MetricsRegistry::reset(): reset() frees histograms that
      // instrument sites keep cached by reference.
      metrics_before_ = obs::MetricsRegistry::global().snapshot();
      obs::set_metrics_enabled(true);
      pool_before_ = BufferPool::totals();
      copied_before_ = simmpi::payload_bytes_copied();
    }
    launch0_ = now_s();
    launch0_cpu_ = thread_cpu_seconds();
  }

  EpisodeFrame(const EpisodeFrame&) = delete;
  EpisodeFrame& operator=(const EpisodeFrame&) = delete;

  StepRec& rec(int rank, std::size_t step) {
    return ep_.recs[static_cast<std::size_t>(rank)][step];
  }
  /// Called by each rank thread when it is about to start its first step.
  void ready(int rank) {
    const auto r = static_cast<std::size_t>(rank);
    ready_[r] = now_s();
    ready_cpu_[r] = thread_cpu_seconds();  // the rank thread's CPU since it started
  }

  /// Closes the episode after the launch returned (or threw).
  void finish(const simmpi::LaunchStats* launch, std::exception_ptr error) {
    ep_.setup_wall_s = *std::max_element(ready_.begin(), ready_.end()) - launch0_;
    // CPU time, not wall: on a shared host the wall-clock set-up is mostly
    // thread wake-up latency, which host CPU steal inflates several-fold.
    // The launching thread's CPU covers spawning (and joining) the ranks.
    ep_.setup_cpu_s = (thread_cpu_seconds() - launch0_cpu_) +
                      *std::max_element(ready_cpu_.begin(), ready_cpu_.end());
    const auto& tracker = MemoryTracker::instance();
    ep_.peak_analytics_bytes = static_cast<double>(
        tracker.peak_in(MemCategory::kReductionObjects) + tracker.peak_in(MemCategory::kInputCopy));
    if (p_.traced) {
      obs::set_metrics_enabled(false);
      ep_.metrics = metrics_delta(metrics_before_, obs::MetricsRegistry::global().snapshot());
      const auto after = BufferPool::totals();
      ep_.pool.hits = after.hits - pool_before_.hits;
      ep_.pool.misses = after.misses - pool_before_.misses;
      ep_.payload_bytes_copied = simmpi::payload_bytes_copied() - copied_before_;
    }
    if (launch != nullptr) {
      ep_.launch = *launch;
      ep_.vmakespan_s = launch->makespan();
    }
    if (error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        ep_.error = e.what();
      } catch (...) {
        ep_.error = "unknown exception";
      }
      ep_.threw = ep_.steps;  // which steps completed is unknown: count them all
      return;
    }
    double first = 0.0;
    double last = 0.0;
    ep_.latency_ms.assign(ep_.steps, 0.0);
    for (std::size_t r = 0; r < ep_.recs.size(); ++r) {
      const auto& recs = ep_.recs[r];
      if (recs.empty()) continue;
      first = r == 0 ? recs.front().iter0 : std::min(first, recs.front().iter0);
      for (std::size_t s = 0; s < recs.size(); ++s) {
        last = std::max(last, std::max(recs[s].done, recs[s].iter1));
        ep_.latency_ms[s] = std::max(ep_.latency_ms[s], (recs[s].done - recs[s].ready) * 1e3);
      }
    }
    ep_.wall_s = last - first;
  }

  /// Runs the gate over `stash` with `check(slot) -> matches`, after the
  /// self-test corruption when requested.
  template <class Check, class Corrupt>
  void verify(Stash& stash, Check check, Corrupt corrupt) {
    if (!ep_.error.empty()) return;
    for (std::size_t slot = 0; slot < stash.filled.size(); ++slot) {
      const auto& f = stash.filled[slot];
      if (std::find(f.begin(), f.end(), 0) != f.end()) {
        ++ep_.checked;
        ++ep_.mismatched;  // a sampled step that never produced a result
        continue;
      }
      if (p_.corrupt && slot % 2 == 0) {
        corrupt(stash, slot);
        ++ep_.corrupted;
      }
      ++ep_.checked;
      if (!check(stash, slot)) ++ep_.mismatched;
    }
  }

  Episode& episode() { return ep_; }
  Episode take() { return std::move(ep_); }

 private:
  const EpisodeParams& p_;
  Episode ep_;
  std::vector<double> ready_;
  std::vector<double> ready_cpu_;
  double launch0_ = 0.0;
  double launch0_cpu_ = 0.0;
  obs::MetricsSnapshot metrics_before_;
  BufferPool::Totals pool_before_;
  std::uint64_t copied_before_ = 0;
};

/// The self-test corruption: one output value of rank 0 moves by 1.
void corrupt_first_output(Stash& stash, std::size_t slot) { stash.output[slot][0][0] += 1.0; }

// --- iter_kmeans -------------------------------------------------------------

constexpr std::size_t kHeatNx = 32, kHeatNy = 32, kHeatNz = 64;
constexpr std::size_t kK = 8, kDims = 4;
constexpr int kKmeansIters = 10;
/// Absolute tolerance of the k-means comparison (the k-means tests' own).
constexpr double kKmeansTol = 1e-9;

std::vector<double> initial_centroids(std::uint64_t seed) {
  Rng rng(derive_seed(seed, kCentroidLane));
  std::vector<double> c(kK * kDims);
  for (auto& x : c) x = rng.uniform(0.0, 1.0);
  return c;
}

Episode run_iter_kmeans(const EpisodeParams& p) {
  const std::vector<double> init = initial_centroids(p.seed);
  const Sampler sampler(p.seed, p.steps);
  Stash stash(sampler.count(), 1);
  EpisodeFrame frame(p, 1);
  simmpi::LaunchStats launch;
  std::exception_ptr error;
  try {
    launch = simmpi::launch(1, [&](simmpi::Communicator& comm) {
      sim::Heat3D heat({.nx = kHeatNx, .ny = kHeatNy, .nz_local = kHeatNz}, &comm);
      analytics::KMeansInit seed{init.data(), kK, kDims};
      analytics::KMeans<double> km(SchedArgs(p.threads, kDims, &seed, kKmeansIters), kK, kDims);
      std::vector<double> centroids(kK * kDims);
      std::vector<double*> out(kK);
      for (std::size_t c = 0; c < kK; ++c) out[c] = centroids.data() + c * kDims;
      frame.ready(0);
      for (std::size_t s = 0; s < p.steps; ++s) {
        StepRec& rec = frame.rec(0, s);
        rec.iter0 = now_s();
        rec.sim0 = rec.iter0;
        heat.step();
        rec.ready = rec.sim1 = rec.call = now_s();
        CoreSample before;
        if (p.traced) {
          km.reset_stats();  // per-step skew and peak, not the running max
          rec.call = now_s();
        }
        km.run(heat.output(), heat.output_len(), out.data(), kK);
        rec.done = now_s();
        if (p.traced) rec.core = CoreSample::delta(before, CoreSample::read(km.stats(), true));
        if (const int slot = sampler.slot(s); slot >= 0) {
          stash.put(slot, 0, heat.output(), heat.output_len(), centroids.data(), centroids.size());
        }
        rec.iter1 = now_s();
      }
    });
  } catch (...) {
    error = std::current_exception();
  }
  frame.finish(error ? nullptr : &launch, error);
  frame.verify(
      stash,
      [&](const Stash& st, std::size_t slot) {
        const auto& slab = st.input[slot][0];
        const auto expected =
            analytics::ref::kmeans(slab.data(), slab.size() / kDims, kDims, kK, kKmeansIters, init);
        const auto& got = st.output[slot][0];
        if (got.size() != expected.size()) return false;
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (!(std::fabs(got[i] - expected[i]) <= kKmeansTol)) return false;
        }
        return true;
      },
      corrupt_first_output);
  return frame.take();
}

// --- combine_keys ------------------------------------------------------------

constexpr std::size_t kStreamLen = 4096;
constexpr int kBuckets = 1200;
constexpr double kHistMin = -5.0, kHistMax = 5.0;  // ~600 live buckets per rank

Episode run_combine_keys(const EpisodeParams& p) {
  constexpr int kRanks = 4;
  const Sampler sampler(p.seed, p.steps);
  Stash stash(sampler.count(), kRanks);
  EpisodeFrame frame(p, kRanks);
  simmpi::LaunchStats launch;
  std::exception_ptr error;
  try {
    launch = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
      const int rank = comm.rank();
      sim::Emulator emulator({.step_len = kStreamLen,
                              .seed = derive_seed(p.seed, static_cast<std::uint64_t>(rank))});
      analytics::Histogram<double> hist(SchedArgs(p.threads, 1), kHistMin, kHistMax, kBuckets);
      std::vector<std::size_t> counts(kBuckets);
      frame.ready(rank);
      for (std::size_t s = 0; s < p.steps; ++s) {
        StepRec& rec = frame.rec(rank, s);
        rec.iter0 = now_s();
        std::fill(counts.begin(), counts.end(), 0);  // buckets no element hit are not written
        rec.sim0 = now_s();
        const double* data = emulator.step();
        rec.ready = rec.sim1 = rec.call = now_s();
        CoreSample before;
        if (p.traced) {
          hist.reset_stats();
          rec.call = now_s();
        }
        hist.run(data, kStreamLen, counts.data(), counts.size());
        rec.done = now_s();
        if (p.traced) rec.core = CoreSample::delta(before, CoreSample::read(hist.stats(), true));
        if (const int slot = sampler.slot(s); slot >= 0) {
          stash.put(slot, rank, data, kStreamLen, counts.data(), counts.size());
        }
        rec.iter1 = now_s();
      }
    });
  } catch (...) {
    error = std::current_exception();
  }
  frame.finish(error ? nullptr : &launch, error);
  frame.verify(
      stash,
      [&](const Stash& st, std::size_t slot) {
        std::vector<double> all;  // the concatenated rank slabs of this step
        for (const auto& slab : st.input[slot]) all.insert(all.end(), slab.begin(), slab.end());
        const auto expected =
            analytics::ref::histogram(all.data(), all.size(), kHistMin, kHistMax, kBuckets);
        for (const auto& got : st.output[slot]) {  // every rank holds the global result
          if (got.size() != expected.size()) return false;
          for (std::size_t b = 0; b < got.size(); ++b) {
            if (got[b] != static_cast<double>(expected[b])) return false;
          }
        }
        return true;
      },
      corrupt_first_output);
  return frame.take();
}

// --- space_window ------------------------------------------------------------

constexpr std::size_t kLuleshEdge = 16;
constexpr std::size_t kWindow = 25;
/// Simulation sub-steps per analyzed step: the simulation costs about half
/// of the moving median per step.  Near an exact balance the buffer flips
/// between empty and full on scheduling noise, and the latency and the
/// buffered-copy peak flip with it.  At half, the buffer runs full in
/// steady state, each simulation thread spends about half of each step
/// blocked in feed, and the simulation still carries a real share.
constexpr int kSubSteps = 12;

Episode run_space_window(const EpisodeParams& p) {
  constexpr int kRanks = 2;
  Rng blast_rng(derive_seed(p.seed, kBlastLane));
  const double blast = blast_rng.uniform(500.0, 1500.0);
  const Sampler sampler(p.seed, p.steps);
  Stash stash(sampler.count(), kRanks);
  EpisodeFrame frame(p, kRanks);
  std::vector<std::size_t> lost(kRanks, 0);
  simmpi::LaunchStats launch;
  std::exception_ptr error;
  try {
    launch = simmpi::launch(kRanks, [&](simmpi::Communicator& comm) {
      const int rank = comm.rank();
      sim::MiniLulesh lulesh({.edge = kLuleshEdge, .blast_energy = blast}, &comm);
      analytics::MovingMedian<double> median(SchedArgs(p.threads, 1), kWindow);
      const std::size_t len = lulesh.output_len();
      std::vector<double> slab(len);

      // Analytics task: pops fed steps in order; the i-th pop is step i.
      // It is not a simmpi rank thread, so it stays off the virtual clock.
      std::thread analytics_task([&] {
        std::vector<double> out(len);
        std::size_t s = 0;
        for (;;) {
          const double call = now_s();
          CoreSample before;
          if (p.traced) before = CoreSample::read(median.stats(), false);
          bool more = false;
          try {
            more = median.run2(out.data(), out.size());
          } catch (...) {
            ++lost[static_cast<std::size_t>(rank)];
            ++s;
            continue;
          }
          if (!more) break;
          if (s >= p.steps) continue;  // never: one pop per fed step
          StepRec& rec = frame.rec(rank, s);
          rec.call = call;
          rec.done = now_s();
          if (p.traced) {
            rec.core = CoreSample::delta(before, CoreSample::read(median.stats(), false));
          }
          if (const int slot = sampler.slot(s); slot >= 0) {
            stash.output[static_cast<std::size_t>(slot)][static_cast<std::size_t>(rank)] = out;
          }
          ++s;
        }
      });
      struct Join {
        analytics::MovingMedian<double>& median;
        std::thread& task;
        ~Join() {
          median.close_feed();
          task.join();
        }
      } join{median, analytics_task};

      frame.ready(rank);
      for (std::size_t s = 0; s < p.steps; ++s) {
        StepRec& rec = frame.rec(rank, s);
        rec.iter0 = now_s();
        rec.sim0 = rec.iter0;
        for (int sub = 0; sub < kSubSteps; ++sub) lulesh.step();
        rec.sim1 = rec.feed0 = rec.ready = now_s();
        const double copy_before = p.traced ? median.stats().copy_seconds : 0.0;
        median.feed(lulesh.output(), len);
        rec.feed1 = now_s();
        if (p.traced) rec.feed_copy_s = median.stats().copy_seconds - copy_before;
        if (const int slot = sampler.slot(s); slot >= 0) {
          const auto us = static_cast<std::size_t>(slot);
          const auto ur = static_cast<std::size_t>(rank);
          stash.input[us][ur].assign(lulesh.output(), lulesh.output() + len);
          stash.filled[us][ur] = 1;
        }
        rec.iter1 = now_s();
      }
    });
  } catch (...) {
    error = std::current_exception();
  }
  frame.finish(error ? nullptr : &launch, error);
  if (!error) {
    for (const std::size_t n : lost) frame.episode().threw += n;
  }
  frame.verify(
      stash,
      [&](const Stash& st, std::size_t slot) {
        for (int r = 0; r < kRanks; ++r) {
          const auto& in = st.input[slot][static_cast<std::size_t>(r)];
          const auto& got = st.output[slot][static_cast<std::size_t>(r)];
          const auto expected = analytics::ref::moving_median(in.data(), in.size(), kWindow);
          if (got != expected) return false;
        }
        return true;
      },
      corrupt_first_output);
  return frame.take();
}

const Workload kWorkloads[] = {
    {"iter_kmeans", 1, 4, 1000, false,
     "Heat3D 32x32x64, k-means k=8 d=4 x10 iterations, 1 rank x 4 threads, time sharing",
     run_iter_kmeans},
    {"combine_keys", 4, 1, 1000, false,
     "Emulator 4096 doubles/rank, histogram 1200 buckets, 4 ranks x 1 thread, time sharing",
     run_combine_keys},
    {"space_window", 2, 1, 1000, true,
     "MiniLulesh edge 16 x12 sub-steps, moving median w=25, 2 ranks x (1 sim + 1 worker), "
     "space sharing",
     run_space_window},
};

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
