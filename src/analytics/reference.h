// Independent serial reference implementations of all nine analytics.
//
// The test suite validates every Smart scheduler against these, for any
// combination of thread count, rank count, chunking and in-situ mode — the
// core "parallelization is transparent and exact" property of the paper's
// API.  The references share *no* code with the schedulers.
#pragma once

#include <cstddef>
#include <vector>

namespace smart::analytics::ref {

/// Mean of each grid of `grid_size` consecutive elements (last grid may be
/// partial).
std::vector<double> grid_aggregation(const double* data, std::size_t len, std::size_t grid_size);

/// Equi-width histogram over [min, max]; out-of-range values clamp into
/// the edge buckets.
std::vector<std::size_t> histogram(const double* data, std::size_t len, double min, double max,
                                   int num_buckets);

/// Mutual information (nats) of (x, y) pairs via a bx*by joint histogram.
double mutual_information(const double* pairs, std::size_t num_pairs, double min, double max,
                          int buckets_x, int buckets_y);

/// Batch gradient descent for logistic regression; records are rows of
/// (dim + 1): features then a {0,1} label.  Matches the scheduler's exact
/// update rule: w -= lr * grad / count per iteration.
std::vector<double> logistic_regression(const double* records, std::size_t num_records,
                                        std::size_t dim, int iterations, double learning_rate,
                                        const std::vector<double>& init_weights);

/// Lloyd's k-means; returns k rows of dims.  Empty clusters keep their
/// centroid, ties break toward the lower cluster id — the scheduler's
/// exact semantics.
std::vector<double> kmeans(const double* points, std::size_t num_points, std::size_t dims,
                           std::size_t k, int iterations, const std::vector<double>& init_centroids);

/// Centered moving average with windows clipped at the array boundary.
std::vector<double> moving_average(const double* data, std::size_t len, std::size_t window);

/// Centered moving median (clipped windows); even-sized clipped windows
/// average the two middle elements.
std::vector<double> moving_median(const double* data, std::size_t len, std::size_t window);

/// Gaussian kernel density estimate at each position over its clipped
/// window, bandwidth h.
std::vector<double> kernel_density(const double* data, std::size_t len, std::size_t window,
                                   double h);

/// Savitzky-Golay smoothing; positions whose window does not fit are 0.
std::vector<double> savitzky_golay(const double* data, std::size_t len, int window,
                                   int poly_order);

}  // namespace smart::analytics::ref
