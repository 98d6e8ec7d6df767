// Exactness properties for the batched reduction path (DESIGN.md §4.8).
//
// The contract under test: the batched path (gen_keys_batch /
// accumulate_batch over columnar ChunkBatch views) produces *bit-for-bit*
// the results of the per-chunk scalar path, which in turn equals the
// serial single-thread run.  The kernels may only draw SIMD/ILP from
// independent streams — per-element keys, per-dimension sums, other
// points' distance chains — never from reassociating one floating-point
// chain, so equality here is EXPECT_EQ on doubles, not EXPECT_NEAR.
//
// Also covered: the kernel-level identities the batched apps rely on
// (truncation == floor after clamping, points-in-lanes argmin == scalar
// argmin on every ISA leg with the lowest-index tie rule, NaN and infinite
// coordinates and centroids and distances at DBL_MAX included), batch 0 ==
// batch 64 on a Heat3D slab at 1, 2 and 4 threads under every split
// policy, trigger-driven mid-batch erase through the default
// accumulate_batch, split-policy invariance for integer apps, and the
// worker_skew metric.  Registered under the `schedule` ctest label and
// run under TSan by scripts/check.sh.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "analytics/batch_kernels.h"
#include "analytics/block_aggregation.h"
#include "analytics/grid_aggregation.h"
#include "analytics/histogram.h"
#include "analytics/kmeans.h"
#include "analytics/red_objs.h"
#include "analytics/reference.h"
#include "analytics/summary_stats.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "sim/heat3d.h"

namespace smart {
namespace {

using namespace analytics;

// --- kernel-level identities -------------------------------------------------

// The reference bucketing expression the floorless kernel must equal:
// clamp(floor((x - min) / width)) with a libm floor.
int floor_bucket(double x, double min, double width, int num_buckets) {
  const double q = (x - min) / width;
  if (std::isnan(q)) return 0;  // kernel contract: NaN fails both compares, clamps low
  const double f = std::floor(q);
  if (f < 0.0) return 0;
  if (f >= static_cast<double>(num_buckets)) return num_buckets - 1;
  return static_cast<int>(f);
}

TEST(HistogramKeys, TruncationMatchesFloorReference) {
  Rng rng(901);
  const int buckets = 37;
  const double min = -3.0, width = 6.5 / buckets;
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.uniform(-10.0, 10.0);  // well outside [min, max]
  std::vector<int> keys(xs.size());
  kernels::histogram_keys(xs.data(), xs.size(), 1, min, width, buckets, keys.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(keys[i], floor_bucket(xs[i], min, width, buckets)) << "x=" << xs[i];
  }
}

TEST(HistogramKeys, EdgeValues) {
  const int buckets = 10;
  const double min = 0.0, width = 0.1;  // range [0, 1]
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> xs = {
      0.0,   1.0,    0.9999999, -0.0,  -1e300, 1e300, -inf,
      inf,   nan,    0.1,       0.05,  5e-324, // denormal
      -5e-324,
  };
  const std::vector<int> expected = {0, 9, 9, 0, 0, 9, 0, 9, 0, 1, 0, 0, 0};
  std::vector<int> keys(xs.size());
  kernels::histogram_keys(xs.data(), xs.size(), 1, min, width, buckets, keys.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(keys[i], expected[i]) << "x=" << xs[i];
  }
}

TEST(HistogramKeys, StridedMatchesGatheredContiguous) {
  Rng rng(902);
  const std::size_t n = 977, stride = 4;
  std::vector<double> xs(n * stride);
  for (auto& x : xs) x = rng.uniform(-2.0, 12.0);
  std::vector<int> strided(n), contiguous(n);
  kernels::histogram_keys(xs.data(), n, stride, 0.0, 1.0, 10, strided.data());
  std::vector<double> gathered(n);
  for (std::size_t i = 0; i < n; ++i) gathered[i] = xs[i * stride];
  kernels::histogram_keys(gathered.data(), n, 1, 0.0, 1.0, 10, contiguous.data());
  EXPECT_EQ(strided, contiguous);
}

// Reference argmin: full distances, strict < from max, lowest index wins
// ties — the spec every assignment path must realize.  A point whose every
// distance fails `< max` (NaN or infinite coordinates) takes key 0.
int ref_nearest(const double* pt, std::size_t dims, const double* centroids, std::size_t k) {
  int best_key = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    double dist = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double diff = pt[d] - centroids[c * dims + d];
      dist += diff * diff;
    }
    if (dist < best) {
      best = dist;
      best_key = static_cast<int>(c);
    }
  }
  return best_key;
}

TEST(NearestCentroids, LaneKernelMatchesReference) {
  Rng rng(903);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t dims : {2u, 3u, 4u, 8u, 5u}) {  // 5 exercises the generic path
    for (const std::size_t k : {1u, 2u, 7u, 8u, 9u}) {  // 1 .. 9 broadcast centroids
      const std::size_t n = 403;  // not a multiple of 4: blocked body + tail
      std::vector<double> pts(n * dims), centroids(k * dims);
      for (auto& v : centroids) v = rng.uniform(-5.0, 5.0);
      for (auto& v : pts) v = rng.uniform(-5.0, 5.0);
      // Non-finite rows inside blocks and in the tail: NaN anywhere, +inf,
      // -inf, and inf next to NaN.
      for (const std::size_t p : {6u, 41u, 42u, 123u, 401u}) pts[p * dims + dims - 1] = nan;
      for (const std::size_t p : {9u, 77u, 402u}) pts[p * dims] = inf;
      for (const std::size_t p : {10u, 250u}) pts[p * dims] = -inf;
      pts[300 * dims] = inf;
      pts[300 * dims + 1] = nan;
      std::vector<int> keys(n);
      kernels::nearest_centroids(pts.data(), n, dims, centroids.data(), k, keys.data());
      for (std::size_t p = 0; p < n; ++p) {
        ASSERT_EQ(keys[p], ref_nearest(pts.data() + p * dims, dims, centroids.data(), k))
            << "dims=" << dims << " k=" << k << " p=" << p;
      }
    }
  }
}

TEST(NearestCentroids, NanPointTakesKeyZeroNotTheNeighboursKey) {
  // Eight points near c2 with a NaN in point 4: every distance of point 4
  // is NaN, so the strict-< scan from max keeps key 0 — on the batched
  // path exactly as on the scalar gen_key path (n = 1 per point).
  const std::size_t dims = 2, k = 3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> centroids = {0.0, 0.0, 5.0, 5.0, 10.0, 10.0};
  std::vector<double> pts;
  for (int i = 0; i < 8; ++i) pts.insert(pts.end(), {10.0 + 0.01 * i, 9.9});
  pts[4 * dims + 1] = nan;
  const std::size_t n = pts.size() / dims;
  std::vector<int> batched(n);
  kernels::nearest_centroids(pts.data(), n, dims, centroids.data(), k, batched.data());
  for (std::size_t p = 0; p < n; ++p) {
    int scalar = -1;
    kernels::nearest_centroids(pts.data() + p * dims, 1, dims, centroids.data(), k, &scalar);
    EXPECT_EQ(batched[p], scalar) << p;
    EXPECT_EQ(batched[p], p == 4 ? 0 : 2) << p;
  }
}

TEST(NearestCentroids, TiesBreakToLowestIndex) {
  // Duplicate centroids (every point ties across indices 0/2) and points
  // exactly midway between two distinct centroids: a tie must resolve to
  // the lower index, as the scalar scan does.
  const std::size_t dims = 4;
  const std::vector<double> centroids = {
      0.0, 0.0, 0.0, 0.0,  // c0
      2.0, 0.0, 0.0, 0.0,  // c1
      0.0, 0.0, 0.0, 0.0,  // c2 == c0
  };
  const std::size_t k = 3;
  std::vector<double> pts;
  for (int i = 0; i < 29; ++i) {
    if (i % 3 == 0) {
      pts.insert(pts.end(), {1.0, 0.0, 0.0, 0.0});  // midway c0/c1 -> key 0
    } else if (i % 3 == 1) {
      pts.insert(pts.end(), {2.1, 0.0, 0.0, 0.0});  // nearest c1 -> key 1
    } else {
      pts.insert(pts.end(), {-0.5, 0.0, 0.0, 0.0});  // ties c0/c2 -> key 0
    }
  }
  const std::size_t n = pts.size() / dims;
  std::vector<int> keys(n);
  kernels::nearest_centroids(pts.data(), n, dims, centroids.data(), k, keys.data());
  for (std::size_t p = 0; p < n; ++p) {
    ASSERT_EQ(keys[p], ref_nearest(pts.data() + p * dims, dims, centroids.data(), k)) << p;
  }
}

// The fixed-width assignment kernel's ISA legs, called directly: the
// dispatcher reaches only one of them on a given CPU, so a leg the host
// does not pick would otherwise go untested.
struct Sse2Leg {
  template <class T, std::size_t Dims>
  static void assign(const T* pts, std::size_t n, const double* centroids, std::size_t k,
                     int* keys) {
    kernels::detail::nearest_centroids_lanes<kernels::detail::v2d, T, Dims>(pts, n, centroids,
                                                                             k, keys);
  }
};

#if defined(__x86_64__) || defined(__i386__)
struct Avx2Leg {
  template <class T, std::size_t Dims>
  static void assign(const T* pts, std::size_t n, const double* centroids, std::size_t k,
                     int* keys) {
    kernels::detail::nearest_centroids_avx2<T, Dims>(pts, n, centroids, k, keys);
  }
};

struct Avx512Leg {
  template <class T, std::size_t Dims>
  static void assign(const T* pts, std::size_t n, const double* centroids, std::size_t k,
                     int* keys) {
    kernels::detail::nearest_centroids_avx512<T, Dims>(pts, n, centroids, k, keys);
  }
};
#endif

// Every (k, n) in the grid against the scalar early-exit scan, point by
// point.  Centroid k-1 duplicates centroid 0 and some points sit exactly on
// centroid 0, so exact ties occur; non-finite rows land at the start, the
// middle and the end of each batch, and a sentinel past keys[n-1] catches
// an over-long store.
template <class Leg, class T, std::size_t Dims>
void expect_leg_matches_scalar(Rng& rng) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T inf = std::numeric_limits<T>::infinity();
  for (const std::size_t k : {1u, 2u, 3u, 7u, 8u, 9u, 17u, 40u}) {
    std::vector<double> centroids(k * Dims);
    for (auto& v : centroids) v = static_cast<double>(static_cast<T>(rng.uniform(-5.0, 5.0)));
    for (std::size_t d = 0; d < Dims; ++d) centroids[(k - 1) * Dims + d] = centroids[d];
    for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 63u, 64u, 65u}) {
      std::vector<T> pts(n * Dims);
      for (auto& v : pts) v = static_cast<T>(rng.uniform(-5.0, 5.0));
      for (std::size_t p = 2; p < n; p += 5) {
        for (std::size_t d = 0; d < Dims; ++d) pts[p * Dims + d] = static_cast<T>(centroids[d]);
      }
      if (n >= 4) {
        pts[(n / 2) * Dims + Dims - 1] = nan;
        pts[0] = inf;
        pts[(n - 1) * Dims] = -inf;
        pts[(n / 3) * Dims] = inf;
        pts[(n / 3) * Dims + 1] = nan;
      }
      constexpr int kSentinel = -7;
      std::vector<int> keys(n + 1, kSentinel);
      Leg::template assign<T, Dims>(pts.data(), n, centroids.data(), k, keys.data());
      for (std::size_t p = 0; p < n; ++p) {
        ASSERT_EQ(keys[p], (kernels::detail::nearest_centroid_fixed<T, Dims>(
                               pts.data() + p * Dims, centroids.data(), k)))
            << "dims=" << Dims << " k=" << k << " n=" << n << " p=" << p
            << " float=" << std::is_same_v<T, float>;
      }
      ASSERT_EQ(keys[n], kSentinel) << "dims=" << Dims << " k=" << k << " n=" << n;
    }
  }
}

template <class Leg>
void expect_every_width_matches_scalar() {
  Rng rng(905);
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, double, 2>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, double, 3>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, double, 4>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, double, 8>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, float, 2>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, float, 3>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, float, 4>(rng)));
  ASSERT_NO_FATAL_FAILURE((expect_leg_matches_scalar<Leg, float, 8>(rng)));
}

TEST(NearestCentroids, EveryIsaLegMatchesScalarScan) {
  ASSERT_NO_FATAL_FAILURE(expect_every_width_matches_scalar<Sse2Leg>());
#if defined(__x86_64__) || defined(__i386__)
  if (!kernels::detail::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2; the SSE2 leg passed";
  ASSERT_NO_FATAL_FAILURE(expect_every_width_matches_scalar<Avx2Leg>());
  if (!kernels::detail::cpu_has_avx512f()) {
    GTEST_SKIP() << "CPU lacks AVX-512F; the SSE2 and AVX2 legs passed";
  }
  expect_every_width_matches_scalar<Avx512Leg>();
#else
  GTEST_SKIP() << "no AVX2 leg on this architecture; the SSE2 leg passed";
#endif
}

// Hostile inputs for the leg-equality property below: NaN and +-inf in
// points and in centroids, exact ties (a duplicated centroid, points on a
// centroid, points midway between two), and squared distances at or above
// DBL_MAX.  sqrt(DBL_MAX)^2 rounds one ulp below DBL_MAX, and adding
// (1.5 * 2^485)^2 = 1.125 ulp lands the sum exactly on DBL_MAX, which the
// strict `< best` scan from DBL_MAX must not take; a 1e200 coordinate
// overflows its square to +inf.
struct HostileCase {
  std::vector<double> pts;
  std::vector<double> centroids;
};

HostileCase hostile_case(Rng& rng, std::size_t dims, std::size_t n, std::size_t k) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  HostileCase hc;
  hc.centroids.resize(k * dims);
  for (auto& v : hc.centroids) v = rng.uniform(-5.0, 5.0);
  if (k >= 3) {
    hc.centroids[1 * dims + dims - 1] = nan;  // never wins: every distance is NaN
    hc.centroids[2 * dims] = inf;             // finite points are infinitely far
  }
  if (k >= 4) {  // the mirror of centroid 0: the origin ties between them
    for (std::size_t d = 0; d < dims; ++d) hc.centroids[3 * dims + d] = -hc.centroids[d];
  }
  if (k >= 8) {
    for (std::size_t d = 0; d < dims; ++d) hc.centroids[4 * dims + d] = 0.0;  // the origin
    hc.centroids[5 * dims + 1] = -inf;
    hc.centroids[6 * dims] = inf;  // inf next to NaN
    hc.centroids[6 * dims + 1] = nan;
  }
  if (k >= 2) {  // exact ties: the last centroid duplicates centroid 0
    for (std::size_t d = 0; d < dims; ++d) hc.centroids[(k - 1) * dims + d] = hc.centroids[d];
  }
  const double* c0 = hc.centroids.data();
  hc.pts.resize(n * dims);
  for (std::size_t p = 0; p < n; ++p) {
    double* pt = hc.pts.data() + p * dims;
    for (std::size_t d = 0; d < dims; ++d) pt[d] = rng.uniform(-5.0, 5.0);
    switch (p % 11) {
      case 1:  // on centroid 0 (and its duplicate)
        for (std::size_t d = 0; d < dims; ++d) pt[d] = c0[d];
        break;
      case 3:  // the origin: midway between centroid 0 and its mirror
        for (std::size_t d = 0; d < dims; ++d) pt[d] = 0.0;
        break;
      case 4: pt[dims - 1] = nan; break;
      case 5: pt[0] = inf; break;
      case 6: pt[p % dims] = -inf; break;
      case 7:  // squared distance to the origin (centroid 4) exactly DBL_MAX
        for (std::size_t d = 0; d < dims; ++d) pt[d] = 0.0;
        pt[0] = std::sqrt(std::numeric_limits<double>::max());
        pt[1] = 1.5 * std::ldexp(1.0, 485);
        break;
      case 8: pt[1] = 1e200; break;  // squared distance overflows to +inf
      case 9:
        pt[0] = inf;
        pt[1] = nan;
        break;
      default: break;
    }
  }
  return hc;
}

using AssignFn =
    std::function<void(const double*, std::size_t, const double*, std::size_t, int*)>;
using Legs = std::vector<std::pair<std::string, AssignFn>>;

// Every leg the host can run, at one fixed width, called directly; the
// scalar leg is the early-exit scan the per-point path used before the
// lanes kernel, and the dispatcher picks among the others by CPUID and n.
template <std::size_t Dims>
Legs runnable_legs() {
  namespace kd = kernels::detail;
  Legs legs = {
      {"scalar",
       [](const double* pts, std::size_t n, const double* c, std::size_t k, int* keys) {
         for (std::size_t p = 0; p < n; ++p) {
           keys[p] = kd::nearest_centroid_fixed<double, Dims>(pts + p * Dims, c, k);
         }
       }},
      {"sse2", Sse2Leg::assign<double, Dims>},
      {"dispatch", kd::nearest_centroids_fixed<double, Dims>},
  };
#if defined(__x86_64__) || defined(__i386__)
  if (kd::cpu_has_avx2()) legs.emplace_back("avx2", kd::nearest_centroids_avx2<double, Dims>);
  if (kd::cpu_has_avx512f()) {
    legs.emplace_back("avx512", kd::nearest_centroids_avx512<double, Dims>);
  }
#endif
  return legs;
}

void expect_legs_match_reference(std::size_t dims, const Legs& legs) {
  Rng rng(920 + dims);
  for (const std::size_t k : {1u, 2u, 3u, 8u, 9u, 17u}) {
    for (std::size_t n = 0; n <= 70; ++n) {
      const HostileCase hc = hostile_case(rng, dims, n, k);
      std::vector<int> want(n);
      for (std::size_t p = 0; p < n; ++p) {
        want[p] = ref_nearest(hc.pts.data() + p * dims, dims, hc.centroids.data(), k);
      }
      for (const auto& [name, assign] : legs) {
        constexpr int kSentinel = -7;
        std::vector<int> got(n + 1, kSentinel);
        assign(hc.pts.data(), n, hc.centroids.data(), k, got.data());
        ASSERT_EQ(got[n], kSentinel) << name << " dims=" << dims << " k=" << k << " n=" << n;
        got.pop_back();
        ASSERT_EQ(got, want) << name << " dims=" << dims << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(NearestCentroids, EveryLegMatchesReferenceOnHostileInputs) {
  ASSERT_NO_FATAL_FAILURE(expect_legs_match_reference(2, runnable_legs<2>()));
  ASSERT_NO_FATAL_FAILURE(expect_legs_match_reference(3, runnable_legs<3>()));
  ASSERT_NO_FATAL_FAILURE(expect_legs_match_reference(4, runnable_legs<4>()));
  ASSERT_NO_FATAL_FAILURE(expect_legs_match_reference(8, runnable_legs<8>()));
  // Generic widths have one leg: the entry point's plain loop.
  for (const std::size_t dims : {5u, 6u}) {
    const Legs generic = {
        {"generic", [dims](const double* pts, std::size_t n, const double* c, std::size_t k,
                           int* keys) { kernels::nearest_centroids(pts, n, dims, c, k, keys); }}};
    ASSERT_NO_FATAL_FAILURE(expect_legs_match_reference(dims, generic));
  }
}

TEST(AccumulateKernels, PointSumsMatchPerPointOrderBitForBit) {
  Rng rng(904);
  for (const std::size_t dims : {2u, 3u, 4u, 8u, 6u}) {
    const std::size_t n = 1531;
    std::vector<double> pts(n * dims);
    for (auto& v : pts) v = rng.gaussian(0.0, 3.0);
    std::vector<double> got(dims, 0.25), want(dims, 0.25);  // nonzero resume state
    kernels::accumulate_points(pts.data(), n, dims, got.data());
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t d = 0; d < dims; ++d) want[d] += pts[p * dims + d];
    }
    EXPECT_EQ(got, want) << "dims=" << dims;
  }
}

TEST(AccumulateKernels, MomentsResumeAcrossSegmentsBitForBit) {
  // Resuming the kernel across arbitrary segment boundaries continues the
  // same scalar chains, so the result equals one manual pass exactly.
  Rng rng(905);
  std::vector<double> xs(4096);
  for (auto& x : xs) x = rng.gaussian(1.0, 2.0);
  double sum = 0.0, sum_sq = 0.0;
  double mn = std::numeric_limits<double>::infinity(), mx = -mn;
  std::size_t at = 0;
  while (at < xs.size()) {
    const auto seg = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 700)), xs.size() - at);
    kernels::accumulate_moments(xs.data() + at, seg, sum, sum_sq, mn, mx);
    at += seg;
  }
  double wsum = 0.0, wsq = 0.0;
  double wmn = std::numeric_limits<double>::infinity(), wmx = -wmn;
  for (const double x : xs) {
    wsum += x;
    wsq += x * x;
    if (x < wmn) wmn = x;
    if (x > wmx) wmx = x;
  }
  EXPECT_EQ(sum, wsum);
  EXPECT_EQ(sum_sq, wsq);
  EXPECT_EQ(mn, wmn);
  EXPECT_EQ(mx, wmx);
  EXPECT_EQ(kernels::accumulate_sum(xs.data(), xs.size(), 0.5), [&] {
    double s = 0.5;
    for (const double x : xs) s += x;
    return s;
  }());
}

// --- end-to-end: batched == scalar == serial --------------------------------

RunOptions with_batch(std::size_t batch_chunks) {
  RunOptions opts;
  opts.batch_chunks = batch_chunks;
  return opts;
}

std::vector<std::size_t> run_histogram(const std::vector<double>& data, int threads,
                                       std::size_t batch_chunks) {
  Histogram<double> hist(SchedArgs(threads, 1), -1.0, 1.0, 23, with_batch(batch_chunks));
  std::vector<std::size_t> out(23, 0);
  hist.run(data.data(), data.size(), out.data(), out.size());
  return out;
}

TEST(BatchedExactness, HistogramAcrossThreadsAndBatchSizes) {
  Rng rng(910);
  std::vector<double> data(4096 + 17);  // odd length: uneven worker ranges
  for (auto& x : data) x = rng.uniform(-1.5, 1.5);  // clamping in play
  const auto serial = run_histogram(data, 1, 0);
  // Bucket counts are integers, so every thread count, batch size, and the
  // scalar path must agree exactly — including batch sizes that don't
  // divide the range and one larger than the whole input.
  for (const int threads : {1, 3}) {
    for (const std::size_t batch : {2u, 3u, 64u, 100000u}) {
      EXPECT_EQ(run_histogram(data, threads, batch), serial)
          << "threads=" << threads << " batch=" << batch;
    }
  }
  EXPECT_EQ(run_histogram(data, 3, 0), serial);
}

std::vector<double> run_kmeans(const std::vector<double>& data, int threads,
                               std::size_t batch_chunks) {
  const std::size_t dims = 4, k = 3;
  const std::vector<double> init = {0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0,
                                    -5.0, -5.0, -5.0, -5.0};
  KMeansInit seed{init.data(), k, dims};
  KMeans<double> km(SchedArgs(threads, dims, &seed, 4), k, dims, with_batch(batch_chunks));
  km.run(data.data(), data.size(), nullptr, 0);
  return km.centroids();
}

TEST(BatchedExactness, KMeansCentroidsBitForBit) {
  Rng rng(911);
  const std::size_t dims = 4, n = 1200;
  std::vector<double> data(n * dims + 2);  // +2: ragged tail, dropped by both paths
  for (std::size_t p = 0; p < n; ++p) {
    const double base = (p % 3 == 0) ? 0.0 : (p % 3 == 1 ? 5.0 : -5.0);
    for (std::size_t d = 0; d < dims; ++d) {
      data[p * dims + d] = base + rng.gaussian(0.0, 0.8);
    }
  }
  // Same thread count -> same chunk partition -> identical FP merge order:
  // batched and scalar must agree bit-for-bit at every thread count.
  for (const int threads : {1, 2, 3, 4}) {
    const auto scalar = run_kmeans(data, threads, 0);
    const auto batched = run_kmeans(data, threads, 64);
    EXPECT_EQ(scalar, batched) << "threads=" << threads;
  }
}

/// Bit patterns, so NaN results compare equal to themselves.
std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(double));
  return out;
}

TEST(BatchedExactness, KMeansWithNanPointsMatchesScalarAndReference) {
  // NaN points take key 0 on every path, so cluster 0's sums (and then its
  // centroid) turn NaN identically on the batched path (batch_chunks 64),
  // the scalar path (0) and ref::kmeans, at every thread count.  The NaN
  // rows follow runs of points near c1 and c2, where a key inherited from
  // the neighbouring points would differ from 0.
  Rng rng(913);
  const std::size_t dims = 4, n = 1200, k = 3;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> data(n * dims);
  for (std::size_t p = 0; p < n; ++p) {
    const double base = (p / 40 % 3 == 0) ? 0.0 : (p / 40 % 3 == 1 ? 5.0 : -5.0);
    for (std::size_t d = 0; d < dims; ++d) data[p * dims + d] = base + rng.gaussian(0.0, 0.8);
  }
  for (const std::size_t p : {45u, 90u, 93u, 530u, 1001u}) data[p * dims + 2] = nan;
  const std::vector<double> init = {0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0,
                                    -5.0, -5.0, -5.0, -5.0};
  const auto expected = ref::kmeans(data.data(), n, dims, k, 4, init);
  for (const int threads : {1, 2, 4}) {
    const auto scalar = run_kmeans(data, threads, 0);
    const auto batched = run_kmeans(data, threads, 64);
    EXPECT_EQ(bits_of(scalar), bits_of(batched)) << "threads=" << threads;
    ASSERT_EQ(batched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (std::isnan(expected[i])) {
        EXPECT_TRUE(std::isnan(batched[i])) << "threads=" << threads << " i=" << i;
      } else {
        EXPECT_NEAR(batched[i], expected[i], 1e-9) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

Summary run_moments(const std::vector<double>& data, int threads, std::size_t batch_chunks) {
  SummaryStats<double> stats(SchedArgs(threads, 1), with_batch(batch_chunks));
  stats.run(data.data(), data.size(), nullptr, 0);
  return stats.summary();
}

TEST(BatchedExactness, SummaryMomentsBitForBit) {
  Rng rng(912);
  std::vector<double> data(8192 + 3);
  for (auto& x : data) x = rng.gaussian(2.0, 5.0);
  for (const int threads : {1, 3}) {
    const auto scalar = run_moments(data, threads, 0);
    const auto batched = run_moments(data, threads, 64);
    EXPECT_EQ(scalar.count, batched.count);
    EXPECT_EQ(scalar.mean, batched.mean) << "threads=" << threads;
    EXPECT_EQ(scalar.stddev, batched.stddev);
    EXPECT_EQ(scalar.min, batched.min);
    EXPECT_EQ(scalar.max, batched.max);
  }
}

std::vector<double> run_grid(const std::vector<double>& data, std::size_t chunk_size,
                             int threads, std::size_t batch_chunks) {
  const std::size_t grid_size = 32;
  GridAggregation<double> grid(SchedArgs(threads, chunk_size), grid_size,
                               with_batch(batch_chunks));
  std::vector<double> out((data.size() + grid_size - 1) / grid_size, 0.0);
  grid.run(data.data(), data.size(), out.data(), out.size());
  return out;
}

TEST(BatchedExactness, GridAggregationWithRaggedTail) {
  Rng rng(913);
  std::vector<double> data(8 * 500 + 5);  // chunk_size 8 -> 5-element ragged tail
  for (auto& x : data) x = rng.gaussian(0.0, 1.0);
  for (const int threads : {1, 3}) {
    const auto scalar = run_grid(data, 8, threads, 0);
    const auto batched = run_grid(data, 8, threads, 64);
    EXPECT_EQ(scalar, batched) << "threads=" << threads;
  }
  // Batch-size invariance: any batch granularity walks the same chunks in
  // the same order within a run of equal keys.
  const auto base = run_grid(data, 8, 1, 64);
  for (const std::size_t batch : {2u, 3u, 7u, 1000u}) {
    EXPECT_EQ(run_grid(data, 8, 1, batch), base) << "batch=" << batch;
  }
}

TEST(BatchedExactness, BlockAggregationBitForBit) {
  Rng rng(914);
  BlockAggregation<double>::Shape shape;
  shape.nx = 16; shape.ny = 8; shape.nz = 4;
  shape.bx = 4;  shape.by = 4; shape.bz = 2;
  std::vector<double> data(shape.nx * shape.ny * shape.nz);
  for (auto& x : data) x = rng.gaussian(3.0, 2.0);
  auto run_block = [&](int threads, std::size_t batch_chunks) {
    BlockAggregation<double> block(SchedArgs(threads, 1), shape, with_batch(batch_chunks));
    std::vector<double> out(block.num_blocks(), 0.0);
    block.run(data.data(), data.size(), out.data(), out.size());
    return out;
  };
  for (const int threads : {1, 3}) {
    EXPECT_EQ(run_block(threads, 0), run_block(threads, 64)) << "threads=" << threads;
  }
}

// --- batch 0 == batch 64 on a Heat3D slab, every thread count and split -----

// A Heat3D 32x32x64 slab after 200 steps: a hot quarter near the heated
// plane with short key runs, a cold bulk with long ones — the field the
// one-call batch's run loop is built for.
std::vector<double> heat_slab() {
  sim::Heat3D heat({.nx = 32, .ny = 32, .nz_local = 64}, nullptr);
  for (int s = 0; s < 200; ++s) heat.step();
  return std::vector<double>(heat.output(), heat.output() + heat.output_len());
}

// The same slab rounded to multiples of 2^-16.  Its values lie in [0, 1],
// so every sum and sum of squares the apps form over 65536 of them is
// exact in any order.  Under kDynamic and kGuided the chunk-to-worker
// assignment depends on timing, and with it the grouping of the
// floating-point merges; on this slab the results are still defined bit
// for bit, so batch 0 and batch 64 must agree under every policy.
std::vector<double> dyadic(std::vector<double> v) {
  for (auto& x : v) x = std::ldexp(std::nearbyint(std::ldexp(x, 16)), -16);
  return v;
}

/// run(slab, threads, opts) at batch_chunks 0 and 64 must agree bit for bit
/// at 1, 2 and 4 threads, under kContiguous or under every split policy.
template <class Run>
void expect_batch_invariant(const std::vector<double>& slab, bool every_policy, Run run) {
  const std::vector<SplitPolicy> policies =
      every_policy
          ? std::vector<SplitPolicy>{SplitPolicy::kContiguous, SplitPolicy::kDynamic,
                                     SplitPolicy::kGuided}
          : std::vector<SplitPolicy>{SplitPolicy::kContiguous};
  for (const SplitPolicy policy : policies) {
    for (const int threads : {1, 2, 4}) {
      RunOptions scalar = with_batch(0), batched = with_batch(64);
      scalar.split_policy = batched.split_policy = policy;
      EXPECT_EQ(bits_of(run(slab, threads, scalar)), bits_of(run(slab, threads, batched)))
          << "threads=" << threads << " policy=" << static_cast<int>(policy);
    }
  }
}

std::vector<double> heat_kmeans(const std::vector<double>& slab, int threads,
                                const RunOptions& opts) {
  constexpr std::size_t dims = 4, k = 8;
  Rng rng(4711);
  std::vector<double> init(k * dims);
  for (auto& x : init) x = rng.uniform(0.0, 1.0);
  KMeansInit seed{init.data(), k, dims};
  KMeans<double> km(SchedArgs(threads, dims, &seed, 10), k, dims, opts);
  km.run(slab.data(), slab.size(), nullptr, 0);
  return km.centroids();
}

std::vector<double> heat_histogram(const std::vector<double>& slab, int threads,
                                   const RunOptions& opts) {
  Histogram<double> hist(SchedArgs(threads, 1), 0.0, 1.0, 1200, opts);
  std::vector<std::size_t> counts(1200, 0);
  hist.run(slab.data(), slab.size(), counts.data(), counts.size());
  return std::vector<double>(counts.begin(), counts.end());
}

std::vector<double> heat_moments(const std::vector<double>& slab, int threads,
                                 const RunOptions& opts) {
  SummaryStats<double> stats(SchedArgs(threads, 1), opts);
  stats.run(slab.data(), slab.size(), nullptr, 0);
  const Summary s = stats.summary();
  return {static_cast<double>(s.count), s.mean, s.stddev, s.min, s.max};
}

std::vector<double> heat_grid(const std::vector<double>& slab, int threads,
                              const RunOptions& opts) {
  GridAggregation<double> grid(SchedArgs(threads, 8), 64, opts);
  std::vector<double> out(slab.size() / 64, 0.0);
  grid.run(slab.data(), slab.size(), out.data(), out.size());
  return out;
}

std::vector<double> heat_blocks(const std::vector<double>& slab, int threads,
                                const RunOptions& opts) {
  BlockAggregation<double>::Shape shape;
  shape.nx = 32; shape.ny = 32; shape.nz = 64;
  shape.bx = 8;  shape.by = 4;  shape.bz = 8;
  BlockAggregation<double> block(SchedArgs(threads, 1), shape, opts);
  std::vector<double> out(block.num_blocks(), 0.0);
  block.run(slab.data(), slab.size(), out.data(), out.size());
  return out;
}

TEST(HeatSlabBatching, KMeansCentroidsBitForBit) {
  const auto slab = heat_slab();
  expect_batch_invariant(slab, false, heat_kmeans);
  expect_batch_invariant(dyadic(slab), true, heat_kmeans);
}

TEST(HeatSlabBatching, HistogramBitForBit) {
  const auto slab = heat_slab();
  expect_batch_invariant(slab, true, heat_histogram);  // integer counts: any order
}

TEST(HeatSlabBatching, SummaryStatsBitForBit) {
  const auto slab = heat_slab();
  expect_batch_invariant(slab, false, heat_moments);
  expect_batch_invariant(dyadic(slab), true, heat_moments);
}

TEST(HeatSlabBatching, GridAggregationBitForBit) {
  const auto slab = heat_slab();
  expect_batch_invariant(slab, false, heat_grid);
  expect_batch_invariant(dyadic(slab), true, heat_grid);
}

TEST(HeatSlabBatching, BlockAggregationBitForBit) {
  const auto slab = heat_slab();
  expect_batch_invariant(slab, false, heat_blocks);
  expect_batch_invariant(dyadic(slab), true, heat_blocks);
}

TEST(HeatSlabBatching, ReusedSchedulerMatchesFreshOne) {
  // The worker slot caches outlive a run: a histogram scheduler reused on
  // streams that touch the buckets in different orders (so every worker
  // map files its keys at other dense indices each run) must count exactly
  // what a fresh scheduler counts.
  Rng rng(918);
  for (const int threads : {1, 3}) {
    Histogram<double> reused(SchedArgs(threads, 1), -1.0, 1.0, 37, with_batch(64));
    for (int round = 0; round < 4; ++round) {
      std::vector<double> data(3000 + 17 * static_cast<std::size_t>(round));
      const double shift = round % 2 == 0 ? 0.6 : -0.6;  // hot buckets move each round
      for (auto& x : data) x = rng.gaussian(shift, 0.3);
      std::vector<std::size_t> got(37, 0), want(37, 0);
      reused.run(data.data(), data.size(), got.data(), got.size());
      Histogram<double> fresh(SchedArgs(threads, 1), -1.0, 1.0, 37, with_batch(64));
      fresh.run(data.data(), data.size(), want.data(), want.size());
      EXPECT_EQ(got, want) << "threads=" << threads << " round=" << round;
    }
  }
}

// --- trigger mid-batch -------------------------------------------------------

// A windowed sum that triggers every `window` values: batch 64 with window
// 7 makes the default accumulate_batch emit mid-run on nearly every batch,
// exercising the erase/re-insert resume inside a key run.
struct WindowSumObj : RedObj {
  static constexpr std::size_t kWindow = 7;
  std::size_t count = 0;
  double sum = 0.0;

  std::string type_name() const override { return "WindowSumObj"; }
  std::unique_ptr<RedObj> clone() const override {
    return std::make_unique<WindowSumObj>(*this);
  }
  void serialize(Writer& w) const override {
    w.write<std::uint64_t>(count);
    w.write(sum);
  }
  void deserialize(Reader& r) override {
    count = r.read<std::uint64_t>();
    sum = r.read<double>();
  }
  bool trigger() const override { return count == kWindow; }
};

class SegmentWindow : public Scheduler<double, double> {
 public:
  SegmentWindow(const SchedArgs& args, RunOptions opts)
      : Scheduler<double, double>(args, opts) {}

 protected:
  // 64-element segments: long same-key runs, so batches span many windows.
  int gen_key(const Chunk& chunk, const double*, const CombinationMap&) const override {
    return static_cast<int>(chunk.start / 64);
  }
  // Default gen_keys_batch / accumulate_batch (per-chunk replay with
  // trigger and early emission) — the path every app gets without an
  // override.
  void accumulate(const Chunk& chunk, const double* data,
                  std::unique_ptr<RedObj>& obj) override {
    if (!obj) obj = std::make_unique<WindowSumObj>();
    auto& w = static_cast<WindowSumObj&>(*obj);
    w.sum += data[chunk.start];
    w.count += 1;
  }
  void merge(const RedObj& src, std::unique_ptr<RedObj>& dst) override {
    auto& d = static_cast<WindowSumObj&>(*dst);
    const auto& s = static_cast<const WindowSumObj&>(src);
    d.sum += s.sum;
    d.count += s.count;
  }
  void convert(const RedObj& obj, double* out) const override {
    *out = static_cast<const WindowSumObj&>(obj).sum;
  }
};

TEST(TriggerMidBatch, BatchedEmissionsMatchScalarBitForBit) {
  Rng rng(915);
  std::vector<double> data(64 * 9 + 13);  // partial last segment + windows astride batches
  for (auto& x : data) x = rng.uniform(0.0, 1.0);
  const std::size_t segments = (data.size() + 63) / 64;
  auto run_one = [&](int threads, std::size_t batch_chunks) {
    SegmentWindow sched(SchedArgs(threads, 1), with_batch(batch_chunks));
    std::vector<double> out(segments, -1.0);
    sched.run(data.data(), data.size(), out.data(), out.size());
    return std::pair(out, sched.stats().early_emissions);
  };
  for (const int threads : {1, 2}) {
    const auto [scalar_out, scalar_emits] = run_one(threads, 0);
    const auto [batched_out, batched_emits] = run_one(threads, 64);
    EXPECT_EQ(scalar_out, batched_out) << "threads=" << threads;
    EXPECT_EQ(scalar_emits, batched_emits);
    // 64-element segments with window 7 -> 9 emissions per full segment.
    EXPECT_GT(batched_emits, 0u);
  }
  // With the trigger off nothing is emitted mid-run on either path, and the
  // paths still agree on the surviving per-segment totals.
  RunOptions no_trigger = with_batch(64);
  no_trigger.enable_trigger = false;
  SegmentWindow sched(SchedArgs(1, 1), no_trigger);
  sched.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(sched.stats().early_emissions, 0u);
  EXPECT_EQ(sched.get_combination_map().size(), segments);
}

// --- split policies and the skew metric -------------------------------------

TEST(SplitPolicies, IntegerResultsInvariantAcrossPolicies) {
  Rng rng(916);
  std::vector<double> data(10007);
  for (auto& x : data) x = rng.uniform(-1.0, 1.0);
  auto run_policy = [&](SplitPolicy policy) {
    RunOptions opts;
    opts.split_policy = policy;
    Histogram<double> hist(SchedArgs(4, 1), -1.0, 1.0, 16, opts);
    std::vector<std::size_t> out(16, 0);
    hist.run(data.data(), data.size(), out.data(), out.size());
    return std::pair(out, hist.stats().worker_skew);
  };
  const auto [contiguous, skew] = run_policy(SplitPolicy::kContiguous);
  EXPECT_EQ(run_policy(SplitPolicy::kDynamic).first, contiguous);
  EXPECT_EQ(run_policy(SplitPolicy::kGuided).first, contiguous);
  // Skew is max-over-mean worker busy time: >= 1 whenever workers ran.
  EXPECT_GE(skew, 1.0);
}

}  // namespace
}  // namespace smart
