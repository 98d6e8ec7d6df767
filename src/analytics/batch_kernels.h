// Auto-vectorizable inner loops for the batched reduction kernels
// (DESIGN.md §4.8).  These are the free-function hearts of the numeric
// apps' gen_keys_batch / accumulate_batch overrides (the latter run once
// per key run, inside WorkerSlots::for_each_run), factored out so
//
//   * the scalar per-chunk virtuals call the same code with n = 1 — the
//     batched and scalar paths literally cannot diverge, which is what the
//     bit-for-bit exactness property tests pin down; and
//   * a standalone TU (scripts/vec_probe.cpp) can compile just these loops
//     with -fopt-info-vec and assert that the compiler actually vectorizes
//     them, and that the k-means assignment kernel's SSE2, AVX2 and
//     AVX-512 legs emit packed arithmetic and no fused multiply-add.
//
// The assignment kernel picks its widest leg at run time by CPUID; the
// AVX2 and AVX-512 legs carry their own FMA-contraction guard, so they
// round exactly like the scalar scan whatever flags the including
// translation unit was built with.
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
#include <cstring>
#include <limits>

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

/// GCC/Clang vector types: two doubles per SSE2 register, four per AVX2
/// register, eight per AVX-512 register.
using v2d = double __attribute__((vector_size(16)));
using v4d = double __attribute__((vector_size(32)));
using v8d = double __attribute__((vector_size(64)));

/// Batched assignment with points in lanes: each lane of V holds one
/// point, and each centroid's coordinates are broadcast against all lanes.
/// Per lane this is exactly nearest_centroid_fixed without its early exit:
/// the squared distance accumulates in the same dim order, and the argmin
/// is strict < from best = max in ascending centroid order.  So the lowest
/// index wins ties, and a point whose every distance fails `< max` (NaN or
/// infinite coordinates) keeps key 0 — bit-for-bit the scalar decision.
/// The SIMD width comes from independent points, never from reassociating
/// one chain.
///
/// Why no early exit: an exit makes a point's cost depend on how far it
/// sits from the running best, and under the contiguous worker split that
/// data dependence turns into worker skew (DESIGN.md §4.8).  Tails shorter
/// than a vector take the scalar scan.
///
/// always_inline: the AVX2 and AVX-512 legs get their width only by
/// inlining this body into their target() functions; an out-of-line copy
/// would be compiled for the baseline target.
template <class V, class T, std::size_t Dims>
__attribute__((always_inline)) inline void nearest_centroids_lanes(const T* pts, std::size_t n,
                                                                    const double* centroids,
                                                                    std::size_t k, int* keys) {
  using M = decltype(V{} < V{});  // lane mask: all-ones where a compare holds
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  std::size_t p = 0;
  for (; p + kLanes <= n; p += kLanes) {
    V x[Dims] = {};  // x[d] = coordinate d of this vector's points
    for (std::size_t d = 0; d < Dims; ++d) {
      double column[kLanes] = {};
      for (std::size_t l = 0; l < kLanes; ++l) {
        column[l] = static_cast<double>(pts[(p + l) * Dims + d]);
      }
      std::memcpy(&x[d], column, sizeof(V));
    }
    V best = V{} + std::numeric_limits<double>::max();
    M key = {};
    M index = {};
    for (std::size_t c = 0; c < k; ++c, index += 1) {
      const double* centroid = centroids + c * Dims;
      // The scalar chain starts at 0.0, and 0.0 + x == x for every square
      // (+0, positive, +inf or NaN), so the first term seeds it.
      V diff = x[0] - centroid[0];
      V dist = diff * diff;
      for (std::size_t d = 1; d < Dims; ++d) {
        diff = x[d] - centroid[d];
        dist += diff * diff;
      }
      const M lt = dist < best;
      best = lt ? dist : best;
      key = lt ? index : key;
    }
    for (std::size_t l = 0; l < kLanes; ++l) keys[p + l] = static_cast<int>(key[l]);
  }
  for (; p < n; ++p) {
    keys[p] = nearest_centroid_fixed<T, Dims>(pts + p * Dims, centroids, k);
  }
}

#if defined(__x86_64__) || defined(__i386__)
/// The same body at AVX2 and AVX-512 width, compiled for that ISA whatever
/// the build's baseline; call a leg only where its cpu_has_*() holds.
/// Neither may contract `dist += diff * diff` into a fused multiply-add,
/// which rounds once where the SSE2 leg and the scalar scan round twice:
/// the target("avx2") leg enables no FMA, but AVX-512F implies it, and a
/// target() attribute adds to a -march=native baseline rather than
/// replacing it.  So each leg carries optimize("fp-contract=off") itself,
/// whatever flags the including translation unit was built with.
template <class T, std::size_t Dims>
__attribute__((target("avx2"), optimize("fp-contract=off"))) void nearest_centroids_avx2(
    const T* pts, std::size_t n, const double* centroids, std::size_t k, int* keys) {
  nearest_centroids_lanes<v4d, T, Dims>(pts, n, centroids, k, keys);
}

template <class T, std::size_t Dims>
__attribute__((target("avx512f"), optimize("fp-contract=off"))) void nearest_centroids_avx512(
    const T* pts, std::size_t n, const double* centroids, std::size_t k, int* keys) {
  nearest_centroids_lanes<v8d, T, Dims>(pts, n, centroids, k, keys);
}

/// Whether this CPU runs AVX2 / AVX-512F, asked once per process.
inline bool cpu_has_avx2() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
}
inline bool cpu_has_avx512f() {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return yes;
}
#endif

/// The fixed-width assignment entry: the widest leg this CPU runs that
/// the batch fills at least one vector of.  Shorter batches (the n = 1
/// gen_key path among them) stay inline on the SSE2 leg rather than pay
/// a call into a wider leg.
template <class T, std::size_t Dims>
inline void nearest_centroids_fixed(const T* pts, std::size_t n, const double* centroids,
                                    std::size_t k, int* keys) {
#if defined(__x86_64__) || defined(__i386__)
  if (n >= sizeof(v8d) / sizeof(double) && cpu_has_avx512f()) {
    nearest_centroids_avx512<T, Dims>(pts, n, centroids, k, keys);
    return;
  }
  if (n >= sizeof(v4d) / sizeof(double) && cpu_has_avx2()) {
    nearest_centroids_avx2<T, Dims>(pts, n, centroids, k, keys);
    return;
  }
#endif
  nearest_centroids_lanes<v2d, T, Dims>(pts, n, centroids, k, keys);
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
/// grid aggregation accumulate).  Returned rather than written
/// through a pointer so the caller's += keeps its own order.
template <class In>
inline double accumulate_sum(const In* x, std::size_t n, double sum) {
  for (std::size_t i = 0; i < n; ++i) sum += static_cast<double>(x[i]);
  return sum;
}

}  // namespace smart::analytics::kernels
