// Microbenchmarks (google-benchmark) for the core runtime operations the
// figures aggregate: in-place reduction, map serialization, the circular
// buffer, simmpi point-to-point and collectives, and end-to-end per-element
// costs of representative analytics.
#include <benchmark/benchmark.h>

#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analytics/batch_kernels.h"
#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/moving_average.h"
#include "analytics/red_objs.h"
#include "analytics/reference.h"
#include "analytics/summary_stats.h"
#include "bench/legacy_map_codec.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "sim/heat3d.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"
#include "threading/thread_pool.h"

namespace {

using namespace smart;
using namespace smart::analytics;

std::vector<double> bench_data(std::size_t n) {
  Rng rng(4242);
  return rng.gaussian_vector(n);
}

// --- reduction-map operations ----------------------------------------------

void BM_ReductionMapAccumulate(benchmark::State& state) {
  // The inner loop of Smart's reduction phase: locate by key, accumulate in
  // place (no KV pair emission).
  register_red_objs();
  CombinationMap map;
  const auto keys = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(i++ % static_cast<std::size_t>(keys));
    auto& slot = map[key];
    if (!slot) slot = std::make_unique<Bucket>();
    static_cast<Bucket&>(*slot).count += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_ReductionMapAccumulate)->Arg(100)->Arg(1200)->Arg(10000);

void BM_LegacyStdMapAccumulate(benchmark::State& state) {
  // The structure CombinationMap replaced — the same accumulate loop over a
  // std::map (red-black tree) — kept as the before side of the flat-map
  // comparison recorded in BENCH_core.json.
  register_red_objs();
  std::map<int, std::unique_ptr<RedObj>> map;
  const auto keys = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const int key = static_cast<int>(i++ % static_cast<std::size_t>(keys));
    auto& slot = map[key];
    if (!slot) slot = std::make_unique<Bucket>();
    static_cast<Bucket&>(*slot).count += 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_LegacyStdMapAccumulate)->Arg(100)->Arg(1200)->Arg(10000);

void BM_CombinationMapInsert(benchmark::State& state) {
  // Cold-map seeding cost: N fresh inserts (hash + append) per iteration.
  register_red_objs();
  const int keys = static_cast<int>(state.range(0));
  for (auto _ : state) {
    CombinationMap map;
    for (int k = 0; k < keys; ++k) map.emplace(k, std::make_unique<Bucket>());
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * keys);
}
BENCHMARK(BM_CombinationMapInsert)->Arg(100)->Arg(10000);

void BM_LegacyStdMapInsert(benchmark::State& state) {
  register_red_objs();
  const int keys = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::map<int, std::unique_ptr<RedObj>> map;
    for (int k = 0; k < keys; ++k) map.emplace(k, std::make_unique<Bucket>());
    benchmark::DoNotOptimize(map);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * keys);
}
BENCHMARK(BM_LegacyStdMapInsert)->Arg(100)->Arg(10000);

void BM_MapCodec(benchmark::State& state) {
  // Wire-format comparison: v1 (per-entry type-name strings, per-entry
  // registry locks) vs v2 (interned type table, varint indices, per-type
  // factory resolution).  The wire_bytes counter shows the payload-size
  // drop that RUNSTATS wire_bytes lines inherit.
  register_red_objs();
  const bool v1 = state.range(0) != 0;
  CombinationMap map;
  for (int k = 0; k < state.range(1); ++k) {
    auto b = std::make_unique<Bucket>();
    b->count = static_cast<std::size_t>(k);
    map.emplace(k, std::move(b));
  }
  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    Buffer buf;
    if (v1) {
      serialize_map_v1(map, buf);
    } else {
      serialize_map(map, buf);
    }
    wire_bytes = buf.size();
    benchmark::DoNotOptimize(deserialize_map(buf));
  }
  state.SetLabel(v1 ? "v1" : "v2");
  state.counters["wire_bytes"] = benchmark::Counter(static_cast<double>(wire_bytes));
}
BENCHMARK(BM_MapCodec)->Args({1, 100})->Args({0, 100})->Args({1, 10000})->Args({0, 10000});

void BM_LocalCombine(benchmark::State& state) {
  // The scheduler's local-combination phase in isolation: 8 worker maps of
  // N buckets each fold into one, serially (worker-after-worker, the old
  // path) or as the pool's binomial merge tree (parallel_local_combine).
  register_red_objs();
  const bool parallel = state.range(0) != 0;
  const int keys = static_cast<int>(state.range(1));
  constexpr int kWorkers = 8;
  ThreadPool pool(kWorkers);
  const MergeFn merge = [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<Bucket&>(*com).count += static_cast<const Bucket&>(red).count;
  };
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<CombinationMap> maps(kWorkers);
    for (auto& m : maps) {
      for (int k = 0; k < keys; ++k) {
        auto b = std::make_unique<Bucket>();
        b->count = 1;
        m.emplace(k, std::move(b));
      }
    }
    state.ResumeTiming();
    if (parallel) {
      for (std::size_t dist = 1; dist < kWorkers; dist *= 2) {
        pool.parallel_region([&](int w) {
          const auto uw = static_cast<std::size_t>(w);
          if (uw % (2 * dist) != 0) return;
          const std::size_t src = uw + dist;
          if (src >= kWorkers) return;
          merge_map_into(std::move(maps[src]), maps[uw], merge);
        });
      }
      benchmark::DoNotOptimize(maps[0]);
    } else {
      CombinationMap fresh;
      for (auto& m : maps) merge_map_into(std::move(m), fresh, merge);
      benchmark::DoNotOptimize(fresh);
    }
  }
  state.SetLabel(parallel ? "parallel" : "serial");
}
BENCHMARK(BM_LocalCombine)->Args({0, 512})->Args({1, 512})->Args({0, 8192})->Args({1, 8192});

void BM_MapSerializeRoundTrip(benchmark::State& state) {
  // The global-combination cost unit: serialize + deserialize a map.
  register_red_objs();
  CombinationMap map;
  for (int k = 0; k < state.range(0); ++k) {
    auto b = std::make_unique<Bucket>();
    b->count = static_cast<std::size_t>(k);
    map.emplace(k, std::move(b));
  }
  for (auto _ : state) {
    Buffer buf;
    serialize_map(map, buf);
    benchmark::DoNotOptimize(deserialize_map(buf));
  }
}
BENCHMARK(BM_MapSerializeRoundTrip)->Arg(100)->Arg(1200)->Arg(10000);

void BM_RedObjClone(benchmark::State& state) {
  ClusterObj obj;
  obj.centroid.assign(64, 1.0);
  obj.sum.assign(64, 2.0);
  for (auto _ : state) benchmark::DoNotOptimize(obj.clone());
}
BENCHMARK(BM_RedObjClone);

// --- threading substrate -----------------------------------------------------

void BM_CircularBufferPushPop(benchmark::State& state) {
  CircularBuffer<std::vector<double>> buf(4);
  std::vector<double> cell(static_cast<std::size_t>(state.range(0)), 1.0);
  for (auto _ : state) {
    buf.push(cell);
    benchmark::DoNotOptimize(buf.pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_CircularBufferPushPop)->Arg(1024)->Arg(65536);

void BM_ThreadPoolRegionLatency(benchmark::State& state) {
  ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    pool.parallel_region([](int) {});
  }
}
BENCHMARK(BM_ThreadPoolRegionLatency)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- simmpi ------------------------------------------------------------------

void BM_SimmpiPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(2, [&](simmpi::Communicator& comm) {
      Buffer payload(bytes);
      if (comm.rank() == 0) {
        comm.send(1, 0, std::move(payload));
        (void)comm.recv(1, 1);
      } else {
        Buffer got = comm.recv(0, 0);
        comm.send(0, 1, std::move(got));
      }
    });
  }
}
BENCHMARK(BM_SimmpiPingPong)->Arg(64)->Arg(65536);

void BM_SimmpiAllreduce(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(nranks, [](simmpi::Communicator& comm) {
      std::vector<double> v(256, static_cast<double>(comm.rank()));
      benchmark::DoNotOptimize(comm.allreduce_sum(v));
    });
  }
}
BENCHMARK(BM_SimmpiAllreduce)->Arg(2)->Arg(4)->Arg(8);

void BM_SimmpiAllreduceAlgorithms(benchmark::State& state) {
  // The binomial tree allreduce on a small and a larger vector (the
  // bandwidth-optimal ring is MapCombiner's; see BM_MapCombineAlgorithms).
  const std::size_t len = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    simmpi::launch(4, [&](simmpi::Communicator& comm) {
      std::vector<double> v(len, static_cast<double>(comm.rank()));
      benchmark::DoNotOptimize(comm.allreduce_sum(v));
    });
  }
}
BENCHMARK(BM_SimmpiAllreduceAlgorithms)->Arg(1 << 10)->Arg(1 << 17);

void BM_MapCombineAlgorithms(benchmark::State& state) {
  // The MapCombiner crossover measurement: single-pass tree vs
  // key-partitioned ring over growing map sizes on 4 ranks.  The default
  // MapCombiner::kDefaultRingCrossoverBytes comes from where the two
  // virtual-makespan curves cross on the container.
  register_red_objs();
  const bool ring = state.range(0) != 0;
  const int keys = static_cast<int>(state.range(1));
  const MapCombiner::Algorithm algo =
      ring ? MapCombiner::Algorithm::kRing : MapCombiner::Algorithm::kTree;
  const MergeFn merge = [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    auto& dst = static_cast<ClusterObj&>(*com);
    const auto& src = static_cast<const ClusterObj&>(red);
    for (std::size_t i = 0; i < dst.sum.size(); ++i) dst.sum[i] += src.sum[i];
    dst.size += src.size;
  };
  double makespan = 0.0;
  for (auto _ : state) {
    const auto stats = simmpi::launch(4, [&](simmpi::Communicator& comm) {
      CombinationMap map;
      for (int k = 0; k < keys; ++k) {
        auto obj = std::make_unique<ClusterObj>();
        obj->centroid.assign(8, static_cast<double>(k));
        obj->sum.assign(8, static_cast<double>(comm.rank()));
        obj->size = 1;
        obj->set_key(k);
        map.emplace(k, std::move(obj));
      }
      MapCombiner combiner(algo);
      combiner.allreduce(comm, map, merge);
      benchmark::DoNotOptimize(map);
    });
    makespan += stats.makespan();
  }
  state.SetLabel(ring ? "ring" : "tree");
  state.counters["vmakespan_s"] =
      benchmark::Counter(makespan / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MapCombineAlgorithms)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 512})
    ->Args({1, 512})
    ->Args({0, 4096})
    ->Args({1, 4096});

// --- end-to-end analytics per element ---------------------------------------

void BM_HistogramEndToEnd(benchmark::State& state) {
  const auto data = bench_data(1 << 16);
  Histogram<double> hist(SchedArgs(static_cast<int>(state.range(0)), 1), -5.0, 5.0, 100);
  for (auto _ : state) {
    hist.run(data.data(), data.size(), nullptr, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_HistogramEndToEnd)->Arg(1)->Arg(4);

void BM_MovingAverageEndToEnd(benchmark::State& state) {
  const auto data = bench_data(1 << 14);
  const bool trigger = state.range(0) != 0;
  RunOptions opts;
  opts.enable_trigger = trigger;
  MovingAverage<double> ma(SchedArgs(2, 1), 25, opts);
  std::vector<double> out(data.size(), 0.0);
  for (auto _ : state) {
    ma.run2(data.data(), data.size(), out.data(), out.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(trigger ? "early-emission" : "no-trigger");
}
BENCHMARK(BM_MovingAverageEndToEnd)->Arg(1)->Arg(0);

// --- scalar vs batched reduction path ----------------------------------------
//
// The before/after pairs for the batched kernel work (DESIGN.md §4.8):
// the same app over the same data, single-threaded, with batch_chunks = 0
// (the legacy chunk-at-a-time loop: one virtual gen_key + map locate +
// virtual accumulate per chunk) against the default batched path (one
// gen_keys_batch per batch, key-run detection, one accumulate_batch per
// run).  Results are bit-identical; only the per-chunk overhead moves.
//
// The input is a smooth field — a slowly drifting wave, the shape an
// in-situ simulation slab actually has and the shape key-run detection is
// built for.  White noise (run length ~1) is covered by the kernel-level
// benches below, which measure gen_keys_batch vectorization alone.

std::vector<double> smooth_field(std::size_t n, std::uint64_t seed = 77) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 1e-3) + 0.005 * rng.gaussian();
  }
  return v;
}

/// Smooth 4-d point stream: points orbit k cluster centers, switching
/// centers every ~few hundred points (a drifting particle population).
std::vector<double> smooth_points(std::size_t n, std::size_t dims, std::size_t k) {
  Rng rng(99);
  std::vector<double> v(n * dims);
  std::size_t cluster = 0;
  for (std::size_t p = 0; p < n; ++p) {
    if (rng.uniform() < 1.0 / 256.0) cluster = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
    for (std::size_t d = 0; d < dims; ++d) {
      v[p * dims + d] = static_cast<double>(cluster * 10 + d) + 0.1 * rng.gaussian();
    }
  }
  return v;
}

void accumulate_bench(benchmark::State& state, const std::string& app, std::size_t batch) {
  const auto chunks = static_cast<std::size_t>(state.range(0));
  RunOptions opts;
  opts.batch_chunks = batch;
  if (app == "histogram") {
    const auto data = smooth_field(chunks);
    Histogram<double> h(SchedArgs(1, 1), -2.0, 2.0, 100, opts);
    for (auto _ : state) h.run(data.data(), data.size(), nullptr, 0);
  } else if (app == "kmeans") {
    constexpr std::size_t dims = 4, k = 8;
    const auto data = smooth_points(chunks, dims, k);
    std::vector<double> init(k * dims);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t d = 0; d < dims; ++d) init[c * dims + d] = static_cast<double>(c * 10 + d);
    }
    KMeansInit seed{init.data(), k, dims};
    KMeans<double> km(SchedArgs(1, dims, &seed, 1), k, dims, opts);
    for (auto _ : state) km.run(data.data(), data.size(), nullptr, 0);
  } else if (app == "moments") {
    const auto data = smooth_field(chunks);
    SummaryStats<double> stats(SchedArgs(1, 1), opts);
    for (auto _ : state) stats.run(data.data(), data.size(), nullptr, 0);
  } else {  // grid
    const auto data = smooth_field(chunks * 8);
    GridAggregation<double> grid(SchedArgs(1, 8), 64, opts);
    for (auto _ : state) grid.run(data.data(), data.size(), nullptr, 0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunks));
}

void BM_ScalarAccumulate(benchmark::State& state, const char* app) {
  accumulate_bench(state, app, 0);  // batch_chunks = 0: legacy per-chunk path
}
void BM_BatchedAccumulate(benchmark::State& state, const char* app) {
  accumulate_bench(state, app, 64);  // the default batched path
}
// The reduction runs on pool workers while the bench thread waits, so the
// default thread-CPU clock would miss all the work: measure process CPU
// (also the stablest clock on a shared/loaded container).
#define SMART_ACCUMULATE_BENCH(fn, tag) \
  BENCHMARK_CAPTURE(fn, tag, #tag)->MeasureProcessCPUTime()->UseRealTime()
SMART_ACCUMULATE_BENCH(BM_ScalarAccumulate, histogram)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_BatchedAccumulate, histogram)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_ScalarAccumulate, kmeans)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_BatchedAccumulate, kmeans)->Arg(10000)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_ScalarAccumulate, moments)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_BatchedAccumulate, moments)->Arg(100000);
SMART_ACCUMULATE_BENCH(BM_ScalarAccumulate, grid)->Arg(10000);
SMART_ACCUMULATE_BENCH(BM_BatchedAccumulate, grid)->Arg(10000);
#undef SMART_ACCUMULATE_BENCH

// Kernel-level pair: the bucketing loop alone, one element at a time (the
// scalar gen_key shape) vs one vectorizable pass — worst-case run length
// (white noise) so the win here is pure SIMD + call amortization, not runs.
// The scalar side goes through a noinline boundary, as the real per-chunk
// path's virtual gen_key does; inlined, the compiler would fuse the n = 1
// calls back into the very vector loop it is the baseline for.
__attribute__((noinline)) void histogram_key_one(const double* x, int* key) {
  kernels::histogram_keys(x, 1, 1, -5.0, 0.1, 100, key);
}

void BM_HistogramKeysScalar(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = bench_data(n);
  std::vector<int> keys(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      histogram_key_one(data.data() + i, keys.data() + i);
    }
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramKeysScalar)->Arg(65536);

void BM_HistogramKeysBatched(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = bench_data(n);
  std::vector<int> keys(n);
  for (auto _ : state) {
    kernels::histogram_keys(data.data(), n, 1, -5.0, 0.1, 100, keys.data());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramKeysBatched)->Arg(65536);

// --- nearest-centroid assignment: hinted scan, pair-packed, points in lanes ---
//
// The before/after pairs for the k-means assignment kernel (DESIGN.md
// §4.8), d = 4, k = 8.  Both "before" sides are replaced kernels,
// preserved here (not in src/) so the pairs keep measuring against the
// designs they replaced:
//
//   * the hinted scan: a blocked 4-point scan seeded with the previous
//     block's winner, whose early exit makes a point's cost depend on how
//     far it sits from that seed;
//   * the pair-packed kernel: every distance, two centroids per SSE2
//     vector, 4-point blocks, lane winners merged per point.
//
// The "after" side is kernels::nearest_centroids, which computes every
// distance with one point per lane, on the widest leg the CPU runs (the
// "assign_isa" context entry records which).
//
// Two inputs: a Heat3D slab read as 4-d points (a hot region near the
// heated plane, a cold bulk — the iter_kmeans benchmark's field) with
// centroids converged on it, and the smooth_points cluster stream.

namespace legacy {

template <std::size_t Dims>
double dist_sq(const double* pt, const double* centroid) {
  double dist = 0.0;
  for (std::size_t d = 0; d < Dims; ++d) {
    const double diff = pt[d] - centroid[d];
    dist += diff * diff;
  }
  return dist;
}

/// The run-aware hinted scan: exact (lowest-index argmin, ties included)
/// on finite inputs, cost data-dependent.
template <std::size_t Dims>
void hinted_nearest_centroids(const double* pts, std::size_t n, const double* centroids,
                              std::size_t k, int* keys) {
  int hint = 0;
  std::size_t p = 0;
  for (; p + 4 <= n; p += 4) {
    const double* p0 = pts + (p + 0) * Dims;
    const double* p1 = pts + (p + 1) * Dims;
    const double* p2 = pts + (p + 2) * Dims;
    const double* p3 = pts + (p + 3) * Dims;
    const double* seed = centroids + static_cast<std::size_t>(hint) * Dims;
    double best0 = dist_sq<Dims>(p0, seed);
    double best1 = dist_sq<Dims>(p1, seed);
    double best2 = dist_sq<Dims>(p2, seed);
    double best3 = dist_sq<Dims>(p3, seed);
    int key0 = hint, key1 = hint, key2 = hint, key3 = hint;
    for (std::size_t c = 0; c < k; ++c) {
      if (static_cast<int>(c) == hint) continue;
      const double* centroid = centroids + c * Dims;
      double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
      for (std::size_t d = 0; d < Dims; ++d) {
        const double ce = centroid[d];
        const double e0 = p0[d] - ce;
        const double e1 = p1[d] - ce;
        const double e2 = p2[d] - ce;
        const double e3 = p3[d] - ce;
        d0 += e0 * e0;
        d1 += e1 * e1;
        d2 += e2 * e2;
        d3 += e3 * e3;
        if ((d0 > best0) & (d1 > best1) & (d2 > best2) & (d3 > best3)) break;
      }
      const int key = static_cast<int>(c);
      if (d0 <= best0 && (d0 < best0 || key < key0)) { best0 = d0; key0 = key; }
      if (d1 <= best1 && (d1 < best1 || key < key1)) { best1 = d1; key1 = key; }
      if (d2 <= best2 && (d2 < best2 || key < key2)) { best2 = d2; key2 = key; }
      if (d3 <= best3 && (d3 < best3 || key < key3)) { best3 = d3; key3 = key; }
    }
    keys[p + 0] = key0;
    keys[p + 1] = key1;
    keys[p + 2] = key2;
    keys[p + 3] = key3;
    hint = key3;
  }
  for (; p < n; ++p) {
    keys[p] = kernels::detail::nearest_centroid_fixed<double, Dims>(pts + p * Dims, centroids, k);
  }
}

/// The pair-packed constant-cost kernel: centroid pairs packed dim-major
/// into SSE2 lanes (lane 0 = even index, lane 1 = odd, odd k padded with
/// NaN), 4-point blocks, per-lane strict-< argmin, then the two lane
/// winners merged by smaller distance, then lower index.
template <std::size_t Dims>
void pair_packed_nearest_centroids(const double* pts, std::size_t n, const double* centroids,
                                   std::size_t k, int* keys) {
  using v2d = kernels::detail::v2d;
  using v2m = decltype(v2d{} < v2d{});
  constexpr std::size_t kBlock = 4;
  if (n < kBlock) {
    for (std::size_t p = 0; p < n; ++p) {
      keys[p] = kernels::detail::nearest_centroid_fixed<double, Dims>(pts + p * Dims, centroids, k);
    }
    return;
  }
  const std::size_t pairs = (k + 1) / 2;
  constexpr std::size_t kStackPairs = 16;
  v2d stack_lanes[kStackPairs * Dims] = {};
  std::vector<v2d> heap_lanes;
  v2d* lanes = stack_lanes;
  if (pairs > kStackPairs) {
    heap_lanes.resize(pairs * Dims);
    lanes = heap_lanes.data();
  }
  const double pad = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t j = 0; j < pairs; ++j) {
    const double* c0 = centroids + 2 * j * Dims;
    const double* c1 = 2 * j + 1 < k ? c0 + Dims : nullptr;
    for (std::size_t d = 0; d < Dims; ++d) {
      lanes[j * Dims + d] = v2d{c0[d], c1 != nullptr ? c1[d] : pad};
    }
  }

  const v2d max = {std::numeric_limits<double>::max(), std::numeric_limits<double>::max()};
  std::size_t p = 0;
  for (; p + kBlock <= n; p += kBlock) {
    v2d pt[kBlock][Dims] = {};
    for (std::size_t b = 0; b < kBlock; ++b) {
      for (std::size_t d = 0; d < Dims; ++d) {
        const double x = pts[(p + b) * Dims + d];
        pt[b][d] = v2d{x, x};
      }
    }
    v2d key[kBlock] = {};
    v2d best[kBlock];
    for (auto& b : best) b = max;
    v2d index = {0.0, 1.0};
    const v2d step = {2.0, 2.0};
    for (std::size_t j = 0; j < pairs; ++j, index += step) {
      const v2d* c = lanes + j * Dims;
      for (std::size_t b = 0; b < kBlock; ++b) {
        v2d diff = pt[b][0] - c[0];
        v2d dist = diff * diff;
        for (std::size_t d = 1; d < Dims; ++d) {
          diff = pt[b][d] - c[d];
          dist += diff * diff;
        }
        const v2m lt = dist < best[b];
        best[b] = (v2d)(((v2m)dist & lt) | ((v2m)best[b] & ~lt));
        key[b] = (v2d)(((v2m)index & lt) | ((v2m)key[b] & ~lt));
      }
    }
    for (std::size_t b = 0; b < kBlock; ++b) {
      const double k0 = key[b][0], k1 = key[b][1];
      const bool odd = best[b][1] < best[b][0] || (best[b][1] == best[b][0] && k1 < k0);
      keys[p + b] = static_cast<int>(odd ? k1 : k0);
    }
  }
  for (; p < n; ++p) {
    keys[p] = kernels::detail::nearest_centroid_fixed<double, Dims>(pts + p * Dims, centroids, k);
  }
}

}  // namespace legacy

constexpr std::size_t kAssignDims = 4, kAssignK = 8;

struct AssignInput {
  std::vector<double> points;  ///< row-major, kAssignDims per point
  std::vector<double> centroids;
};

/// Heat3D 32x32x64 after 200 steps, centroids after 10 k-means rounds from
/// uniform [0, 1) starts — the shape the iter_kmeans workload assigns.
AssignInput heat_assign_input() {
  sim::Heat3D heat({.nx = 32, .ny = 32, .nz_local = 64}, nullptr);
  for (int s = 0; s < 200; ++s) heat.step();
  AssignInput in;
  in.points.assign(heat.output(), heat.output() + heat.output_len());
  Rng rng(4711);
  std::vector<double> init(kAssignK * kAssignDims);
  for (auto& x : init) x = rng.uniform(0.0, 1.0);
  in.centroids = ref::kmeans(in.points.data(), in.points.size() / kAssignDims, kAssignDims,
                             kAssignK, 10, init);
  return in;
}

AssignInput smooth_assign_input() {
  AssignInput in;
  in.points = smooth_points(16384, kAssignDims, kAssignK);
  in.centroids.resize(kAssignK * kAssignDims);
  for (std::size_t c = 0; c < kAssignK; ++c) {
    for (std::size_t d = 0; d < kAssignDims; ++d) {
      in.centroids[c * kAssignDims + d] = static_cast<double>(c * 10 + d);
    }
  }
  return in;
}

template <class Assign>
void assign_bench(benchmark::State& state, const std::string& field, Assign assign) {
  const AssignInput in = field == "heat" ? heat_assign_input() : smooth_assign_input();
  const std::size_t n = in.points.size() / kAssignDims;
  // The scheduler hands the kernel one batch of 64 points per call.
  constexpr std::size_t kBatch = 64;
  std::vector<int> keys(n);
  for (auto _ : state) {
    for (std::size_t p = 0; p < n; p += kBatch) {
      assign(in.points.data() + p * kAssignDims, std::min(kBatch, n - p), in.centroids.data(),
             keys.data() + p);
    }
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_NearestCentroidsHinted(benchmark::State& state, const char* field) {
  assign_bench(state, field, [](const double* pts, std::size_t n, const double* c, int* keys) {
    legacy::hinted_nearest_centroids<kAssignDims>(pts, n, c, kAssignK, keys);
  });
}
void BM_NearestCentroidsPairPacked(benchmark::State& state, const char* field) {
  assign_bench(state, field, [](const double* pts, std::size_t n, const double* c, int* keys) {
    legacy::pair_packed_nearest_centroids<kAssignDims>(pts, n, c, kAssignK, keys);
  });
}
void BM_NearestCentroidsLanes(benchmark::State& state, const char* field) {
  assign_bench(state, field, [](const double* pts, std::size_t n, const double* c, int* keys) {
    kernels::nearest_centroids(pts, n, kAssignDims, c, kAssignK, keys);
  });
}
BENCHMARK_CAPTURE(BM_NearestCentroidsHinted, heat, "heat");
BENCHMARK_CAPTURE(BM_NearestCentroidsPairPacked, heat, "heat");
BENCHMARK_CAPTURE(BM_NearestCentroidsLanes, heat, "heat");
BENCHMARK_CAPTURE(BM_NearestCentroidsHinted, smooth, "smooth");
BENCHMARK_CAPTURE(BM_NearestCentroidsPairPacked, smooth, "smooth");
BENCHMARK_CAPTURE(BM_NearestCentroidsLanes, smooth, "smooth");

// --- the batched path's run loop: one call per run vs one call per batch ----
//
// The before/after pair for the one-call batch (DESIGN.md §4.8).  Both
// sides fold the same precomputed keys into the same worker map, 64 chunks
// per batch, single-threaded, so the pair measures the run loop alone:
//
//   * before: the scheduler's per-run loop as it stood when
//     accumulate_batch took one run, copied here (legacy::RunLoop) — per
//     run a last-key-cached locate, two set_key stores and two virtual
//     calls (the run's accumulate and trigger());
//   * after: one virtual accumulate_batch per batch, whose override walks
//     the runs through WorkerSlots::for_each_run.
//
// Two inputs: the hot quarter of the Heat3D slab as 4-d k-means points
// (the worker that set iter_kmeans' critical path: ~1 key run per 3.4
// points), and a Gaussian stream into 1200 histogram buckets, where almost
// every element is its own run (combine_keys' reduce).

namespace legacy {

/// The replaced per-run virtual: accumulates one run of equal keys and
/// returns the chunks consumed (objects that never trigger consume all).
class RunAccumulator {
 public:
  virtual ~RunAccumulator() = default;
  virtual std::size_t accumulate_run(const ChunkBatch& run, const double* data,
                                     std::unique_ptr<RedObj>& red_obj,
                                     bool stop_after_trigger) = 0;
};

class KMeansRuns final : public RunAccumulator {
 public:
  explicit KMeansRuns(std::size_t dims) : dims_(dims) {}
  std::size_t accumulate_run(const ChunkBatch& run, const double* data,
                             std::unique_ptr<RedObj>& red_obj, bool) override {
    auto& cluster = static_cast<ClusterObj&>(*red_obj);
    kernels::accumulate_points(data + run.start, run.count, dims_, cluster.sum.data());
    cluster.size += run.count;
    return run.count;
  }

 private:
  std::size_t dims_;
};

class HistogramRuns final : public RunAccumulator {
 public:
  std::size_t accumulate_run(const ChunkBatch& run, const double*,
                             std::unique_ptr<RedObj>& red_obj, bool) override {
    if (!red_obj) red_obj = std::make_unique<Bucket>();
    static_cast<Bucket&>(*red_obj).count += run.count;
    return run.count;
  }
};

/// The scheduler's per-run loop over one batch's keys, as it stood before
/// the one-call batch (trigger honoured, as with RunOptions' default).
class RunLoop {
 public:
  explicit RunLoop(CombinationMap& map) : map_(map) {}

  void run_batch(RunAccumulator& app, const ChunkBatch& batch, const double* data,
                 const int* keys) {
    std::size_t i = 0;
    const std::size_t n = batch.count;
    while (i < n) {
      const int key = keys[i];
      std::size_t run_end = i + 1;
      while (run_end < n && keys[run_end] == key) ++run_end;
      while (i < run_end) {
        detail::t_current_key = key;
        auto& slot = locate(key);
        if (slot) slot->set_key(key);
        const std::size_t consumed =
            app.accumulate_run(batch.sub(i, run_end - i), data, slot, /*stop=*/true);
        if (!slot) throw std::logic_error("accumulate_run left a null reduction object");
        slot->set_key(key);
        if (slot->trigger()) {
          map_.erase(key);
          cached_slot_ = CombinationMap::npos;
        }
        i += consumed == 0 ? 1 : consumed;
      }
    }
  }

 private:
  std::unique_ptr<RedObj>& locate(int key) {
    if (cached_slot_ == CombinationMap::npos || cached_key_ != key) {
      cached_slot_ = map_.slot_index(key);
      cached_key_ = key;
    }
    return map_.slot_at(cached_slot_);
  }

  CombinationMap& map_;
  int cached_key_ = 0;
  std::size_t cached_slot_ = CombinationMap::npos;
};

}  // namespace legacy

/// Exposes the apps' protected accumulate_batch to the bench.
class KMeansBatch : public KMeans<double> {
 public:
  using KMeans<double>::KMeans;
  void batch(const ChunkBatch& b, const double* data, const int* keys, WorkerSlots& slots) {
    accumulate_batch(b, data, keys, slots);
  }
};

class HistogramBatch : public Histogram<double> {
 public:
  using Histogram<double>::Histogram;
  void batch(const ChunkBatch& b, const double* data, const int* keys, WorkerSlots& slots) {
    accumulate_batch(b, data, keys, slots);
  }
};

struct RunLoopInput {
  std::vector<double> data;  ///< chunk_size doubles per chunk
  std::size_t chunk_size = 1;
  std::vector<int> keys;     ///< one per chunk
};

/// The quarter of the Heat3D slab (a 4-worker contiguous split) with the
/// most key runs, keyed by the converged centroids.
RunLoopInput heat_hot_quarter() {
  const AssignInput in = heat_assign_input();
  const std::size_t points = in.points.size() / kAssignDims;
  std::vector<int> keys(points);
  kernels::nearest_centroids(in.points.data(), points, kAssignDims, in.centroids.data(),
                             kAssignK, keys.data());
  const std::size_t quarter = points / 4;
  std::size_t best = 0, best_runs = 0;
  for (std::size_t q = 0; q < 4; ++q) {
    std::size_t runs = 1;
    for (std::size_t p = q * quarter + 1; p < (q + 1) * quarter; ++p) {
      runs += keys[p] != keys[p - 1] ? 1 : 0;
    }
    if (runs > best_runs) {
      best_runs = runs;
      best = q;
    }
  }
  RunLoopInput out;
  out.chunk_size = kAssignDims;
  out.data.assign(in.points.begin() + static_cast<std::ptrdiff_t>(best * quarter * kAssignDims),
                  in.points.begin() +
                      static_cast<std::ptrdiff_t>((best + 1) * quarter * kAssignDims));
  out.keys.assign(keys.begin() + static_cast<std::ptrdiff_t>(best * quarter),
                  keys.begin() + static_cast<std::ptrdiff_t>((best + 1) * quarter));
  return out;
}

constexpr int kRunLoopBuckets = 1200;

RunLoopInput gaussian_stream() {
  RunLoopInput out;
  out.data = bench_data(4096);
  out.keys.resize(out.data.size());
  kernels::histogram_keys(out.data.data(), out.data.size(), 1, -5.0, 10.0 / kRunLoopBuckets,
                          kRunLoopBuckets, out.keys.data());
  return out;
}

/// Walks the input in 64-chunk batches through `fold(batch, keys)`.
template <class Fold>
void run_loop_bench(benchmark::State& state, const RunLoopInput& in, Fold fold) {
  constexpr std::size_t kBatch = 64;
  const std::size_t chunks = in.keys.size();
  for (auto _ : state) {
    for (std::size_t c = 0; c < chunks; c += kBatch) {
      const ChunkBatch batch{c * in.chunk_size, in.chunk_size, std::min(kBatch, chunks - c)};
      fold(batch, in.keys.data() + c);
    }
  }
  std::size_t runs = 1;
  for (std::size_t c = 1; c < chunks; ++c) runs += in.keys[c] != in.keys[c - 1] ? 1 : 0;
  state.counters["key_runs"] = static_cast<double>(runs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(chunks));
}

/// k-means worker map seeded like an iteration's hand-back: k objects.
void seed_clusters(CombinationMap& map) {
  for (std::size_t c = 0; c < kAssignK; ++c) {
    auto obj = std::make_unique<ClusterObj>();
    obj->centroid.assign(kAssignDims, 0.0);
    obj->sum.assign(kAssignDims, 0.0);
    map.emplace(static_cast<int>(c), std::move(obj));
  }
}

void BM_RunLoopPerRun(benchmark::State& state, const char* input) {
  const bool heat = std::string(input) == "heat";
  const RunLoopInput in = heat ? heat_hot_quarter() : gaussian_stream();
  CombinationMap map;
  if (heat) seed_clusters(map);
  legacy::RunLoop loop(map);
  legacy::KMeansRuns kmeans(kAssignDims);
  legacy::HistogramRuns histogram;
  legacy::RunAccumulator& app = heat ? static_cast<legacy::RunAccumulator&>(kmeans) : histogram;
  run_loop_bench(state, in, [&](const ChunkBatch& batch, const int* keys) {
    loop.run_batch(app, batch, in.data.data(), keys);
  });
  benchmark::DoNotOptimize(map);
}

void BM_RunLoopPerBatch(benchmark::State& state, const char* input) {
  const bool heat = std::string(input) == "heat";
  const RunLoopInput in = heat ? heat_hot_quarter() : gaussian_stream();
  CombinationMap map;
  if (heat) seed_clusters(map);
  WorkerSlots slots(map);
  std::vector<double> init(kAssignK * kAssignDims, 0.0);
  KMeansInit seed{init.data(), kAssignK, kAssignDims};
  KMeansBatch kmeans(SchedArgs(1, kAssignDims, &seed), kAssignK, kAssignDims);
  HistogramBatch histogram(SchedArgs(1, 1), -5.0, 5.0, kRunLoopBuckets);
  run_loop_bench(state, in, [&](const ChunkBatch& batch, const int* keys) {
    if (heat) {
      kmeans.batch(batch, in.data.data(), keys, slots);
    } else {
      histogram.batch(batch, in.data.data(), keys, slots);
    }
  });
  benchmark::DoNotOptimize(map);
}
BENCHMARK_CAPTURE(BM_RunLoopPerRun, heat, "heat");
BENCHMARK_CAPTURE(BM_RunLoopPerBatch, heat, "heat");
BENCHMARK_CAPTURE(BM_RunLoopPerRun, gauss, "gauss");
BENCHMARK_CAPTURE(BM_RunLoopPerBatch, gauss, "gauss");

/// The assignment kernel leg the Lanes benches ran on this CPU.
const char* assign_isa() {
#if defined(__x86_64__) || defined(__i386__)
  if (kernels::detail::cpu_has_avx512f()) return "avx512f (8 points per vector)";
  if (kernels::detail::cpu_has_avx2()) return "avx2 (4 points per vector)";
#endif
  return "sse2 (2 points per vector)";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("assign_isa", assign_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
