// Equi-width histogram (statistical analytics, paper Listing 3): each
// element lands in the bucket covering its value; bucket counts reduce in
// place, with no intermediate key-value pairs.
#pragma once

#include <cmath>

#include "analytics/batch_kernels.h"
#include "analytics/red_objs.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class Histogram : public Scheduler<In, std::size_t> {
 public:
  /// Buckets of width (max - min) / num_buckets over [min, max]; values
  /// outside the range clamp into the edge buckets.
  Histogram(const SchedArgs& args, double min, double max, int num_buckets, RunOptions opts = {})
      : Scheduler<In, std::size_t>(args, opts),
        min_(min),
        width_((max - min) / num_buckets),
        num_buckets_(num_buckets) {
    if (num_buckets <= 0 || !(max > min)) {
      throw std::invalid_argument("Histogram: need max > min and num_buckets > 0");
    }
    register_red_objs();
  }

  int num_buckets() const { return num_buckets_; }
  double bucket_low(int b) const { return min_ + b * width_; }

 protected:
  int gen_key(const Chunk& chunk, const In* data, const CombinationMap&) const override {
    // n = 1 call into the batch kernel: the scalar and batched paths share
    // one bucketing expression, so they cannot diverge on edge values.
    int key = 0;
    kernels::histogram_keys(data + chunk.start, 1, 1, min_, width_, num_buckets_, &key);
    return key;
  }

  void gen_keys_batch(const ChunkBatch& batch, const In* data, int* keys,
                      const CombinationMap&) const override {
    kernels::histogram_keys(data + batch.start, batch.count, batch.chunk_len, min_, width_,
                            num_buckets_, keys);
  }

  void accumulate(const Chunk& chunk, const In* /*data*/, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) red_obj = std::make_unique<Bucket>();
    static_cast<Bucket&>(*red_obj).count += chunk.length > 0 ? 1 : 0;
  }

  void accumulate_batch(const ChunkBatch& batch, const In* /*data*/, const int* keys,
                        WorkerSlots& slots) override {
    // Batches hold full chunks only, so every chunk counts; Bucket never
    // triggers, so each run of equal keys lands in one add.
    slots.for_each_run(batch, keys, [](std::unique_ptr<RedObj>& red_obj, const ChunkBatch& run) {
      if (!red_obj) red_obj = std::make_unique<Bucket>();
      static_cast<Bucket&>(*red_obj).count += run.count;
    });
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    static_cast<Bucket&>(*com_obj).count += static_cast<const Bucket&>(red_obj).count;
  }

  void convert(const RedObj& red_obj, std::size_t* out) const override {
    *out = static_cast<const Bucket&>(red_obj).count;
  }

 private:
  double min_;
  double width_;
  int num_buckets_;
};

}  // namespace smart::analytics
