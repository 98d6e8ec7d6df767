// 3-D block aggregation: structural grid aggregation over a 3-D array slab
// (the SAGA-style "structural aggregations" of the paper's reference [57],
// and its Section 5.8 point that Smart's positional chunks natively support
// them, unlike record-oriented MapReduce).
//
// The slab is an nx * ny * nz row-major array; it is partitioned into
// bx * by * bz cells of equal blocks, and each block's elements reduce to
// their mean — the multi-resolution downsampling used for visualization.
// The key is the block's linear id, computed purely from the chunk's
// position.
#pragma once

#include "analytics/batch_kernels.h"
#include "analytics/red_objs.h"
#include "core/scheduler.h"

namespace smart::analytics {

template <class In>
class BlockAggregation : public Scheduler<In, double> {
 public:
  struct Shape {
    std::size_t nx = 0, ny = 0, nz = 0;  ///< slab extents (x fastest)
    std::size_t bx = 1, by = 1, bz = 1;  ///< block extents per axis
  };

  BlockAggregation(const SchedArgs& args, const Shape& shape, RunOptions opts = {})
      : Scheduler<In, double>(args, opts), s_(shape) {
    if (args.chunk_size != 1) {
      throw std::invalid_argument("BlockAggregation: chunk_size must be 1");
    }
    if (s_.nx == 0 || s_.ny == 0 || s_.nz == 0 || s_.bx == 0 || s_.by == 0 || s_.bz == 0) {
      throw std::invalid_argument("BlockAggregation: zero extent");
    }
    if (s_.nx % s_.bx != 0 || s_.ny % s_.by != 0 || s_.nz % s_.bz != 0) {
      throw std::invalid_argument("BlockAggregation: blocks must tile the slab exactly");
    }
    register_red_objs();
  }

  const Shape& shape() const { return s_; }
  std::size_t blocks_x() const { return s_.nx / s_.bx; }
  std::size_t blocks_y() const { return s_.ny / s_.by; }
  std::size_t blocks_z() const { return s_.nz / s_.bz; }
  std::size_t num_blocks() const { return blocks_x() * blocks_y() * blocks_z(); }

 protected:
  int gen_key(const Chunk& chunk, const In*, const CombinationMap&) const override {
    // Decompose the linear position into (x, y, z), then into block ids.
    const std::size_t x = chunk.start % s_.nx;
    const std::size_t y = (chunk.start / s_.nx) % s_.ny;
    const std::size_t z = chunk.start / (s_.nx * s_.ny);
    const std::size_t block =
        (z / s_.bz * blocks_y() + y / s_.by) * blocks_x() + x / s_.bx;
    return static_cast<int>(block);
  }

  void gen_keys_batch(const ChunkBatch& batch, const In*, int* keys,
                      const CombinationMap&) const override {
    // Same positional decomposition as gen_key; chunk_size is 1, so chunk i
    // sits at linear position start + i.  A run along x inside one block
    // keeps one key for up to bx consecutive elements.
    for (std::size_t i = 0; i < batch.count; ++i) {
      const std::size_t pos = batch.start + i;
      const std::size_t x = pos % s_.nx;
      const std::size_t y = (pos / s_.nx) % s_.ny;
      const std::size_t z = pos / (s_.nx * s_.ny);
      keys[i] = static_cast<int>((z / s_.bz * blocks_y() + y / s_.by) * blocks_x() + x / s_.bx);
    }
  }

  void accumulate(const Chunk& chunk, const In* data, std::unique_ptr<RedObj>& red_obj) override {
    if (!red_obj) red_obj = std::make_unique<GridObj>();
    auto& grid = static_cast<GridObj&>(*red_obj);
    grid.sum += static_cast<double>(data[chunk.start]);
    grid.count += 1;
  }

  void accumulate_batch(const ChunkBatch& batch, const In* data, const int* keys,
                        WorkerSlots& slots) override {
    // GridObj never triggers; chunk_size is 1 so each same-block run is a
    // contiguous value span, summed in scalar chain order (bit-exact).
    slots.for_each_run(batch, keys, [&](std::unique_ptr<RedObj>& red_obj, const ChunkBatch& run) {
      if (!red_obj) red_obj = std::make_unique<GridObj>();
      auto& grid = static_cast<GridObj&>(*red_obj);
      grid.sum = kernels::accumulate_sum(data + run.start, run.count, grid.sum);
      grid.count += run.count;
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
  Shape s_;
};

}  // namespace smart::analytics
