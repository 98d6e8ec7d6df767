// Grid aggregation (visualization class, paper Section 5.1 app 1): groups
// the elements within each grid of `grid_size` consecutive elements into a
// single aggregated element (here: the mean), the structural aggregation
// used for multi-resolution visualization [57].
//
// Non-iterative, single key per chunk; the chunk's position (not its value)
// decides the key — only possible because Smart chunks preserve array
// positional information (paper Section 5.8).
#pragma once

#include "analytics/batch_kernels.h"
#include "analytics/red_objs.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class GridAggregation : public Scheduler<In, double> {
 public:
  GridAggregation(const SchedArgs& args, std::size_t grid_size, RunOptions opts = {})
      : Scheduler<In, double>(args, opts), grid_size_(grid_size) {
    if (grid_size_ == 0) throw std::invalid_argument("GridAggregation: grid_size > 0 required");
    register_red_objs();
  }

  std::size_t grid_size() const { return grid_size_; }

 protected:
  int gen_key(const Chunk& chunk, const In* /*data*/, const CombinationMap&) const override {
    return static_cast<int>(chunk.start / grid_size_);
  }

  void gen_keys_batch(const ChunkBatch& batch, const In*, int* keys,
                      const CombinationMap&) const override {
    // Purely positional; chunk i of the batch starts at start + i * chunk_len.
    for (std::size_t i = 0; i < batch.count; ++i) {
      keys[i] = static_cast<int>((batch.start + i * batch.chunk_len) / grid_size_);
    }
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) red_obj = std::make_unique<GridObj>();
    auto& grid = static_cast<GridObj&>(*red_obj);
    for (std::size_t i = 0; i < chunk.length; ++i) {
      grid.sum += static_cast<double>(data[chunk.start + i]);
    }
    grid.count += chunk.length;
  }

  void accumulate_batch(const ChunkBatch& batch, const In* data, const int* keys,
                        WorkerSlots& slots) override {
    // GridObj never triggers; batches hold full chunks, so each run is one
    // contiguous element span summed in scalar chain order (bit-exact).
    slots.for_each_run(batch, keys, [&](std::unique_ptr<RedObj>& red_obj, const ChunkBatch& run) {
      if (!red_obj) red_obj = std::make_unique<GridObj>();
      auto& grid = static_cast<GridObj&>(*red_obj);
      grid.sum = kernels::accumulate_sum(data + run.start, run.elements(), grid.sum);
      grid.count += run.elements();
    });
  }

  void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) override {
    const auto& src = static_cast<const GridObj&>(red_obj);
    auto& dst = static_cast<GridObj&>(*com_obj);
    dst.sum += src.sum;
    dst.count += src.count;
  }

  void convert(const RedObj& red_obj, double* out) const override {
    const auto& grid = static_cast<const GridObj&>(red_obj);
    *out = grid.count > 0 ? grid.sum / static_cast<double>(grid.count) : 0.0;
  }

 private:
  std::size_t grid_size_;
};

}  // namespace smart::analytics
