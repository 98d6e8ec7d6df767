// Summary statistics (statistical analytics class): count, mean, variance,
// min and max of a simulated field in one pass, via a single reduction
// object holding the classic mergeable moments (count, sum, sum of squares,
// min, max) — all distributive/algebraic, so merge is exact.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "analytics/batch_kernels.h"
#include "analytics/red_objs.h"
#include "core/scheduler.h"

namespace smart::analytics {

/// Moment accumulator; merge-friendly (sums and extrema).
struct StatsObj : RedObj {
  std::size_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  std::string type_name() const override { return "StatsObj"; }
  std::unique_ptr<RedObj> clone() const override { return std::make_unique<StatsObj>(*this); }
  void serialize(Writer& w) const override {
    w.write<std::uint64_t>(count);
    w.write(sum);
    w.write(sum_sq);
    w.write(min);
    w.write(max);
  }
  void deserialize(Reader& r) override {
    count = r.read<std::uint64_t>();
    sum = r.read<double>();
    sum_sq = r.read<double>();
    min = r.read<double>();
    max = r.read<double>();
  }
  std::size_t footprint_bytes() const override { return sizeof(*this); }

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Population variance.
  double variance() const {
    if (count == 0) return 0.0;
    const double m = mean();
    return sum_sq / static_cast<double>(count) - m * m;
  }
  double stddev() const { return std::sqrt(std::max(0.0, variance())); }
};

/// Aggregated view for the caller.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

template <class In>
class SummaryStats : public Scheduler<In, double> {
 public:
  explicit SummaryStats(const SchedArgs& args, RunOptions opts = {})
      : Scheduler<In, double>(args, opts) {
    if (args.chunk_size != 1) {
      throw std::invalid_argument("SummaryStats: chunk_size must be 1");
    }
    RedObjRegistry::instance().register_type("StatsObj",
                                             [] { return std::make_unique<StatsObj>(); });
  }

  /// The globally combined summary after run().
  Summary summary() const {
    Summary s;
    const auto& map = this->get_combination_map();
    const auto it = map.find(0);
    if (it == map.end()) return s;
    const auto& obj = static_cast<const StatsObj&>(*it->second);
    s.count = obj.count;
    s.mean = obj.mean();
    s.stddev = obj.stddev();
    s.min = obj.min;
    s.max = obj.max;
    return s;
  }

 protected:
  int gen_key(const Chunk&, const In*, const CombinationMap&) const override { return 0; }

  void gen_keys_batch(const ChunkBatch& batch, const In*, int* keys,
                      const CombinationMap&) const override {
    std::fill(keys, keys + batch.count, 0);  // single-object app: key is always 0
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) red_obj = std::make_unique<StatsObj>();
    auto& s = static_cast<StatsObj&>(*red_obj);
    const double x = static_cast<double>(data[chunk.start]);
    s.count += 1;
    s.sum += x;
    s.sum_sq += x * x;
    if (x < s.min) s.min = x;
    if (x > s.max) s.max = x;
  }

  void accumulate_batch(const ChunkBatch& batch, const In* data, const int* keys,
                        WorkerSlots& slots) override {
    // StatsObj never triggers and every key is 0, so the batch is one run
    // over a contiguous value span (chunk_size is 1).  The moments kernel
    // keeps the sum/sum_sq chains in scalar order (bit-exact) while
    // min/max and the squares vectorize.
    slots.for_each_run(batch, keys, [&](std::unique_ptr<RedObj>& red_obj, const ChunkBatch& run) {
      if (!red_obj) red_obj = std::make_unique<StatsObj>();
      auto& s = static_cast<StatsObj&>(*red_obj);
      kernels::accumulate_moments(data + run.start, run.count, s.sum, s.sum_sq, s.min, s.max);
      s.count += run.count;
    });
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const StatsObj&>(red_obj);
    auto& dst = static_cast<StatsObj&>(*com_obj);
    dst.count += src.count;
    dst.sum += src.sum;
    dst.sum_sq += src.sum_sq;
    dst.min = std::min(dst.min, src.min);
    dst.max = std::max(dst.max, src.max);
  }
};

}  // namespace smart::analytics
