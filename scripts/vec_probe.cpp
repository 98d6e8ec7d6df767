// Vectorization probe for the batched reduction kernels (check.sh).
//
// This TU exists only to be compiled, never linked.  check.sh asserts two
// things about the object file:
//
//   * -fopt-info-vec-optimized reports "loop vectorized" for the histogram
//     bucketing loops instantiated here (auto-vectorized code);
//   * every fixed-width nearest-centroid kernel instantiated here still
//     emits packed-double arithmetic (subpd and mulpd in its disassembly),
//     and its AVX2 and AVX-512 legs do so on 256-bit and 512-bit registers
//     (vsubpd and vmulpd on %ymm and %zmm) with no fused multiply-add,
//     which would round differently from the SSE2 leg and the scalar scan.
//     The command line below passes no -ffp-contract=off, so the probe
//     also proves that each leg carries its own contraction guard.  That kernel is written with GCC
//     vector types, which the compiler lowers straight to SIMD instructions
//     without the auto-vectorizer, so -fopt-info-vec has nothing to report
//     for it; the disassembly does.
//
// If a change to batch_kernels.h silently breaks either (a reintroduced
// libm call, a loop-carried dependence, an aliasing hazard, a kernel that
// fell back to scalar doubles), the probe fails the build matrix rather
// than letting the regression ride to a bench diff weeks later.
//
//   g++ -O3 -std=c++20 -Isrc -fopt-info-vec-optimized -c scripts/vec_probe.cpp
#include "analytics/batch_kernels.h"

namespace smart::analytics::kernels {

// The stride-1 and strided bucketing loops, over both element types the
// apps instantiate.
template void histogram_keys<double>(const double*, std::size_t, std::size_t, double, double,
                                     int, int*);
template void histogram_keys<float>(const float*, std::size_t, std::size_t, double, double,
                                    int, int*);

// The k-means assignment kernel at every width nearest_centroids<double>
// dispatches to a fixed-dims specialization: the dispatching entry, whose
// body holds the inlined SSE2 leg, the AVX2 leg and the AVX-512 leg.
template void detail::nearest_centroids_fixed<double, 2>(const double*, std::size_t,
                                                         const double*, std::size_t, int*);
template void detail::nearest_centroids_fixed<double, 3>(const double*, std::size_t,
                                                         const double*, std::size_t, int*);
template void detail::nearest_centroids_fixed<double, 4>(const double*, std::size_t,
                                                         const double*, std::size_t, int*);
template void detail::nearest_centroids_fixed<double, 8>(const double*, std::size_t,
                                                         const double*, std::size_t, int*);
template void detail::nearest_centroids_avx2<double, 2>(const double*, std::size_t,
                                                        const double*, std::size_t, int*);
template void detail::nearest_centroids_avx2<double, 3>(const double*, std::size_t,
                                                        const double*, std::size_t, int*);
template void detail::nearest_centroids_avx2<double, 4>(const double*, std::size_t,
                                                        const double*, std::size_t, int*);
template void detail::nearest_centroids_avx2<double, 8>(const double*, std::size_t,
                                                        const double*, std::size_t, int*);
template void detail::nearest_centroids_avx512<double, 2>(const double*, std::size_t,
                                                          const double*, std::size_t, int*);
template void detail::nearest_centroids_avx512<double, 3>(const double*, std::size_t,
                                                          const double*, std::size_t, int*);
template void detail::nearest_centroids_avx512<double, 4>(const double*, std::size_t,
                                                          const double*, std::size_t, int*);
template void detail::nearest_centroids_avx512<double, 8>(const double*, std::size_t,
                                                          const double*, std::size_t, int*);

}  // namespace smart::analytics::kernels
