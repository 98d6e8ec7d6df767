// Concrete reduction-object types for the nine analytics applications of
// the paper's evaluation (Section 5.1).  Every type implements the full
// RedObj contract — clone (combination-map distribution), serialize
// (global combination across ranks) and, for the window-based apps,
// trigger (early emission, Algorithm 2).
//
// All accumulator fields are double/size_t regardless of the scheduler's
// input element type: accumulation casts on the way in, which keeps the
// wire format and the registry independent of In.
#pragma once

#include <cstddef>
#include <vector>

#include "core/red_obj.h"

namespace smart::analytics {

/// Grid aggregation (multi-resolution visualization): one cell's sum/count.
struct GridObj : RedObj {
  double sum = 0.0;
  std::size_t count = 0;

  std::string type_name() const override { return "GridObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Histogram: one equi-width bucket (paper Listing 3).
struct Bucket : RedObj {
  std::size_t count = 0;

  std::string type_name() const override { return "Bucket"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Mutual information: one joint-histogram cell.
struct CellObj : RedObj {
  std::size_t count = 0;

  std::string type_name() const override { return "CellObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Logistic regression: current weights plus the accumulated gradient.
/// merge touches only grad/count; post_combine applies the step and resets
/// them (the merge-identity contract of scheduler.h).
struct GradObj : RedObj {
  std::vector<double> weights;
  std::vector<double> grad;
  std::size_t count = 0;
  double learning_rate = 0.1;

  std::string type_name() const override { return "GradObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  std::size_t footprint_bytes() const override {
    return sizeof(*this) + (weights.capacity() + grad.capacity()) * sizeof(double);
  }

  /// Gradient-descent step; resets the accumulators to merge identity.
  void update();
};

/// K-means: one cluster (paper Listing 4).
struct ClusterObj : RedObj {
  std::vector<double> centroid;
  std::vector<double> sum;
  std::size_t size = 0;

  std::string type_name() const override { return "ClusterObj"; }
  std::unique_ptr<RedObj> clone() const override;
  bool copy_from(const RedObj& src) override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  std::size_t footprint_bytes() const override {
    return sizeof(*this) + (centroid.capacity() + sum.capacity()) * sizeof(double);
  }

  /// centroid = sum / size, then reset sum/size (paper's update()).
  void update();
};

/// Moving average: one window snapshot (paper Listing 5).  Θ(1) state —
/// average is algebraic.
struct WinObj : RedObj {
  double sum = 0.0;
  std::size_t count = 0;
  std::size_t window = 0;  ///< emission threshold, set by the scheduler

  std::string type_name() const override { return "WinObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  bool trigger() const override { return window != 0 && count == window; }
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Moving median: holistic — must hold all window elements (Θ(W) state,
/// the paper's Section 4.1 contrast with the algebraic average).
struct WinMedianObj : RedObj {
  std::vector<double> elems;
  std::size_t window = 0;

  std::string type_name() const override { return "WinMedianObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  bool trigger() const override { return window != 0 && elems.size() == window; }
  std::size_t footprint_bytes() const override {
    return sizeof(*this) + elems.capacity() * sizeof(double);
  }

  double median() const;
};

/// Gaussian kernel density estimate at one window center.
struct KdeObj : RedObj {
  double kernel_sum = 0.0;
  std::size_t count = 0;
  std::size_t window = 0;

  std::string type_name() const override { return "KdeObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  bool trigger() const override { return window != 0 && count == window; }
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Savitzky–Golay filter: the running convolution at one window center.
struct SgObj : RedObj {
  double acc = 0.0;
  std::size_t count = 0;
  std::size_t window = 0;

  std::string type_name() const override { return "SgObj"; }
  std::unique_ptr<RedObj> clone() const override;
  void serialize(Writer& w) const override;
  void deserialize(Reader& r) override;
  bool trigger() const override { return window != 0 && count == window; }
  std::size_t footprint_bytes() const override { return sizeof(*this); }
};

/// Ensures every analytics RedObj type is in the registry (idempotent;
/// also wired up at static-init time by red_objs.cpp).
void register_red_objs();

}  // namespace smart::analytics
