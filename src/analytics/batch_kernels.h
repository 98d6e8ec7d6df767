// Auto-vectorizable inner loops for the batched reduction kernels
// (DESIGN.md §4.8).  These are the free-function hearts of the numeric
// apps' gen_keys_batch / accumulate_batch overrides, factored out so
//
//   * the scalar per-chunk virtuals call the same code with n = 1 — the
//     batched and scalar paths literally cannot diverge, which is what the
//     bit-for-bit exactness property tests pin down; and
//   * a standalone TU (scripts/vec_probe.cpp) can compile just these loops
//     with -fopt-info-vec and assert that the compiler actually vectorizes
//     them (check.sh's SMART_NATIVE pass).
//
// Exactness contract: every kernel preserves the scalar accumulation order.
// SIMD lanes come only from *independent* streams — per-element bucket
// keys, per-dimension k-means sums, per-centroid distance accumulators —
// never from reassociating one floating-point reduction chain.  That rules
// out horizontal-sum tricks on `sum += x[i]`, and it is why the summary
// moments keep a scalar dependency chain while min/max and the squared
// terms still vectorize.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace smart::analytics::kernels {

/// Equi-width histogram bucketing over a contiguous (stride 1) or strided
/// value stream: keys[i] = clamp(floor((x[i*stride] - min) / width)).
/// Element-independent, so the stride-1 loop vectorizes.
///
/// The clamp range makes floor redundant: for quotients in [0, num_buckets)
/// truncation IS floor, and everything negative lands in bucket 0 whether
/// floored or truncated.  Comparing in the double domain before the cast
/// keeps huge quotients (and NaN, which fails both compares and clamps
/// low) away from undefined int conversions — and leaves a branch-free
/// div / cmp / blend / cvttpd2dq sequence that needs nothing past SSE2,
/// where std::floor would have cost a libm call on baseline x86-64.
template <class In>
inline void histogram_keys(const In* x, std::size_t n, std::size_t stride, double min,
                           double width, int num_buckets, int* keys) {
  const double hi = static_cast<double>(num_buckets);
  if (stride == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(x[i]) - min) / width;
      keys[i] = q >= hi ? num_buckets - 1 : (q > 0.0 ? static_cast<int>(q) : 0);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double q = (static_cast<double>(x[i * stride]) - min) / width;
      keys[i] = q >= hi ? num_buckets - 1 : (q > 0.0 ? static_cast<int>(q) : 0);
    }
  }
}

namespace detail {

/// Nearest centroid for one point; distances accumulate per centroid in
/// the scalar dim order (bit-exact vs KMeans::gen_key, first index wins
/// ties).  Dims as a template constant lets the compiler fully unroll the
/// distance loop and keep the per-centroid accumulators in registers.
template <class T, std::size_t Dims>
inline int nearest_centroid_fixed(const T* pt, const double* centroids, std::size_t k) {
  int best_key = 0;
  double best = std::numeric_limits<double>::max();
  for (std::size_t c = 0; c < k; ++c) {
    const double* centroid = centroids + c * Dims;
    double dist = 0.0;
    for (std::size_t d = 0; d < Dims; ++d) {
      const double diff = static_cast<double>(pt[d]) - centroid[d];
      dist += diff * diff;
      // Monotone early exit: partial sums of squares only grow, so once
      // the prefix reaches `best` this centroid cannot win — the argmin
      // (ties included: strict <, first index wins) is unchanged.
      if (dist >= best) break;
    }
    if (dist < best) {
      best = dist;
      best_key = static_cast<int>(c);
    }
  }
  return best_key;
}

/// Two doubles per SSE2 register (GCC/Clang vector extensions), and the
/// matching lane mask type a vector compare yields.
using v2d = double __attribute__((vector_size(16)));
using v2m = decltype(v2d{} < v2d{});

/// Batched assignment with a cost that does not depend on the data: every
/// centroid's full squared distance is computed, two centroids per vector
/// (lane 0 = even index, lane 1 = odd), for a block of 4 points at a time
/// so the four points' chains interleave in the pipeline.  Each lane adds
/// the same (p[d] - c[d])^2 terms in the same dim order as
/// nearest_centroid_fixed, so every distance is bit-identical to the
/// scalar one — the SIMD width comes from independent centroids, never
/// from reassociating one chain.
///
/// The argmin is lane-wise too: each lane keeps the strict-< running best
/// of its own centroids in ascending index order, starting from
/// best = max.  The two lane winners then combine with the same rule —
/// the smaller distance wins, equal distances go to the lower index — so
/// the key is the lowest index achieving the minimum, or 0 when no
/// distance is below max (NaN or infinite points), exactly as the scalar
/// scan decides.  An odd k pads the last pair's lane 1 with NaN
/// coordinates, whose distance never compares below the best.
///
/// Why no early exit: an exit makes a point's cost depend on how far it
/// sits from the running best, and under the contiguous worker split that
/// data dependence turns into worker skew (DESIGN.md §4.8).
template <class T, std::size_t Dims>
inline void nearest_centroids_fixed(const T* pts, std::size_t n, const double* centroids,
                                    std::size_t k, int* keys) {
  constexpr std::size_t kBlock = 4;
  if (n < kBlock) {  // e.g. the scalar gen_key path (n = 1): not worth packing
    for (std::size_t p = 0; p < n; ++p) {
      keys[p] = nearest_centroid_fixed<T, Dims>(pts + p * Dims, centroids, k);
    }
    return;
  }
  // Pack centroid pairs dim-major: lanes[j * Dims + d] = {c[2j][d], c[2j+1][d]}.
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
        const double x = static_cast<double>(pts[(p + b) * Dims + d]);
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
        // The scalar chain starts at 0.0, and 0.0 + x == x for every
        // square (+0, positive, +inf or NaN), so the first term seeds it.
        v2d diff = pt[b][0] - c[0];
        v2d dist = diff * diff;
        for (std::size_t d = 1; d < Dims; ++d) {
          diff = pt[b][d] - c[d];
          dist += diff * diff;
        }
        const v2m lt = dist < best[b];  // all-ones where this pair's lane wins
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
    keys[p] = nearest_centroid_fixed<T, Dims>(pts + p * Dims, centroids, k);
  }
}

}  // namespace detail

/// Nearest-centroid assignment for n dims-length points (row-major).
/// Common feature widths dispatch to a fixed-dims specialization whose
/// distance loop fully unrolls; anything else takes the generic loop.
template <class T>
inline void nearest_centroids(const T* pts, std::size_t n, std::size_t dims,
                              const double* centroids, std::size_t k, int* keys) {
  switch (dims) {
    case 2: detail::nearest_centroids_fixed<T, 2>(pts, n, centroids, k, keys); return;
    case 3: detail::nearest_centroids_fixed<T, 3>(pts, n, centroids, k, keys); return;
    case 4: detail::nearest_centroids_fixed<T, 4>(pts, n, centroids, k, keys); return;
    case 8: detail::nearest_centroids_fixed<T, 8>(pts, n, centroids, k, keys); return;
    default: break;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const T* pt = pts + p * dims;
    int best_key = 0;
    double best = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < k; ++c) {
      const double* centroid = centroids + c * dims;
      double dist = 0.0;
      for (std::size_t d = 0; d < dims; ++d) {
        const double diff = static_cast<double>(pt[d]) - centroid[d];
        dist += diff * diff;
        if (dist >= best) break;  // monotone early exit, argmin unchanged
      }
      if (dist < best) {
        best = dist;
        best_key = static_cast<int>(c);
      }
    }
    keys[p] = best_key;
  }
}

/// Accumulates n dims-length points into sum[0..dims): point-major order
/// per dimension — bit-exact vs per-point accumulate — with the common
/// fixed widths keeping each dimension's chain in a register for the whole
/// run instead of store-forwarding through sum[] every point.  The chains
/// stay independent (one per dimension); no chain is reassociated.
namespace detail {

template <class T, std::size_t Dims>
inline void accumulate_points_fixed(const T* pts, std::size_t n, double* sum) {
  double s[Dims];
  for (std::size_t d = 0; d < Dims; ++d) s[d] = sum[d];
  for (std::size_t p = 0; p < n; ++p) {
    const T* pt = pts + p * Dims;
    for (std::size_t d = 0; d < Dims; ++d) s[d] += static_cast<double>(pt[d]);
  }
  for (std::size_t d = 0; d < Dims; ++d) sum[d] = s[d];
}

}  // namespace detail

template <class T>
inline void accumulate_points(const T* pts, std::size_t n, std::size_t dims, double* sum) {
  switch (dims) {
    case 2: detail::accumulate_points_fixed<T, 2>(pts, n, sum); return;
    case 3: detail::accumulate_points_fixed<T, 3>(pts, n, sum); return;
    case 4: detail::accumulate_points_fixed<T, 4>(pts, n, sum); return;
    case 8: detail::accumulate_points_fixed<T, 8>(pts, n, sum); return;
    default: break;
  }
  for (std::size_t p = 0; p < n; ++p) {
    const T* pt = pts + p * dims;
    for (std::size_t d = 0; d < dims; ++d) {
      sum[d] += static_cast<double>(pt[d]);
    }
  }
}

/// One-pass moments over n contiguous values, resuming from (and writing
/// back) the caller's running state.  sum / sum_sq stay one scalar chain
/// each (exactness contract); min / max and the v*v products are still
/// lane-parallel for the compiler to pick up.
template <class In>
inline void accumulate_moments(const In* x, std::size_t n, double& sum, double& sum_sq,
                               double& min, double& max) {
  double s = sum, sq = sum_sq, mn = min, mx = max;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]);
    s += v;
    sq += v * v;
    if (v < mn) mn = v;
    if (v > mx) mx = v;
  }
  sum = s;
  sum_sq = sq;
  min = mn;
  max = mx;
}

/// Plain running sum over n contiguous values, scalar chain order (the
/// grid/block aggregation accumulate).  Returned rather than written
/// through a pointer so the caller's += keeps its own order.
template <class In>
inline double accumulate_sum(const In* x, std::size_t n, double sum) {
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(x[i]);
  return sum;
}

}  // namespace smart::analytics::kernels
