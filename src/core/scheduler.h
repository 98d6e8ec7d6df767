// Scheduler<In, Out>: the Smart runtime (paper Sections 3 and 4).
//
// One scheduler instance lives on each simulation process (simmpi rank) and
// is launched from the SPMD region — the paper's *hybrid programming view*:
// the caller sees its own data partition, everything below this API runs in
// a sequential programming view.
//
// Execution of one run() call (Algorithm 1):
//   1. combination map is (re)seeded by process_extra_data;
//   2. per iteration: the seeded map is *distributed* — copied into each
//      worker's reduction map (skipped outright when the map is empty; an
//      iterative run refreshes last iteration's worker objects in place) —
//      then every worker walks its split of the block chunk by chunk:
//      gen_key(s) -> accumulate in place on the keyed reduction object.
//      No key-value pair is emitted, so there is no shuffle and the
//      mapping phase needs no extra memory.  The trailing in_len %
//      chunk_size elements are processed as a short final chunk (its
//      Chunk::length carries the true count) unless the app declared
//      require_full_chunks();
//   3. local combination merges worker maps (merge); global combination
//      merges rank maps across simmpi via core/map_combiner: each rank
//      serializes its map at most once and deserializes the global result
//      at most once per round — interior reduction-tree nodes absorb peer
//      payloads straight into their live map (absorb_serialized_map)
//      instead of paying a deserialize+merge+serialize round-trip per hop.
//      Large maps automatically switch to a key-partitioned ring
//      (reduce-scatter + allgather over key segments, crossover measured
//      in bench/micro_core_ops); every rank ends the round holding the
//      identical global map, so iterative apps see global state.
//      RunStats::{map_serializes, map_deserializes, map_merges,
//      codec_seconds, wire_bytes} expose the single-pass invariant;
//      post_combine then updates objects (e.g. centroid = sum/size);
//   4. surviving reduction objects are convert()ed into the output array.
//
// Early emission (Algorithm 2): right after accumulate, RedObj::trigger()
// may emit the object straight into the output and drop it from the map,
// bounding live objects by the window size instead of the input size.
//
// Iterative-context contract: process_extra_data and post_combine must
// leave every field that merge() accumulates at its merge identity
// (k-means' update() resetting sum/size is the canonical example).  The
// runtime distributes those seeded objects to all workers and merges the
// worker maps back, so non-identity accumulator state at a hand-back point
// would be multiply counted.
//
// Modes:
//   * time sharing  — run(in, in_len, out, out_len): reads the simulation
//     slab through the caller's pointer, zero copy (RunOptions::copy_input
//     reproduces the paper's extra-copy comparison);
//   * space sharing — feed(in, in_len) copies the step into a circular
//     buffer cell (blocking when full) and run(out, out_len) pops and
//     analyzes one step; sim and analytics run as concurrent tasks on
//     disjoint worker groups (paper Listing 2 / Figure 4);
//   * offline       — identical analytics code called on data loaded from
//     disk; the paper's point that in-situ and offline code coincide.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/checkpoint_io.h"
#include "core/chunk.h"
#include "core/map_combiner.h"
#include "core/red_obj.h"
#include "core/run_stats.h"
#include "core/sched_args.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"
#include "threading/thread_pool.h"

namespace smart {

namespace detail {
/// Key currently being accumulated; lets position-aware apps (kernel
/// density estimation) recover the window center inside accumulate().
inline thread_local int t_current_key = 0;
}  // namespace detail

/// One worker's reduction map during a reduction phase, as handed to
/// Scheduler::accumulate_batch.  It owns the run loop of the batched path:
/// for_each_run splits a batch's keys into runs of consecutive equal keys
/// and hands each run's slot to the caller's body, inlined into the app's
/// override, so a batch costs one virtual call however many runs it holds.
///
/// Slot lookup caches dense slot indices, never pointers (appends never
/// move an index; the entry storage may reallocate), and trusts a cached
/// index only while the map still files the key there, so no cache needs
/// a reset across phases, erases, sorts or an exception that unwound a
/// phase.  for_each_run looks keys in [0, kSmallKeys) up in a
/// direct-indexed table; other keys pay one hash probe.  locate(), the
/// per-chunk path's lookup, keeps the last slot instead: consecutive
/// chunks usually share a key, consecutive runs never do.
class WorkerSlots {
 public:
  explicit WorkerSlots(CombinationMap& map) : map_(&map) {}

  /// The slot for `key` (a null slot is inserted when absent).  The
  /// returned reference is valid until the next insert or erase.
  std::unique_ptr<RedObj>& locate(int key) {
    if (!holds(last_slot_, key)) last_slot_ = map_->slot_index(key);
    return map_->slot_at(last_slot_);
  }

  /// Drops `key`'s entry (early emission); counted in erased().
  void erase(int key) {
    map_->erase(key);
    ++erased_;
  }

  /// Entries erase() dropped since this accessor was made.
  std::size_t erased() const { return erased_; }

  /// Calls body(slot, run) once per run of consecutive equal keys in
  /// keys[0..batch.count), in batch order: `run` is the run's sub-batch
  /// and `slot` its key's object (null on first touch; the body creates
  /// it).  Before the body, current_key() names the run's key and an
  /// existing object carries it; after, the object must exist and is
  /// (re)stamped with the key.  Nothing here asks trigger(): only
  /// overrides whose objects never trigger may use it.
  template <class Body>
  __attribute__((always_inline)) void for_each_run(const ChunkBatch& batch, const int* keys,
                                                   Body&& body) {
    std::size_t i = 0;
    while (i < batch.count) {
      const int key = keys[i];
      std::size_t end = i + 1;
      while (end < batch.count && keys[end] == key) ++end;
      detail::t_current_key = key;
      std::unique_ptr<RedObj>& slot = run_slot(key);
      if (slot) slot->set_key(key);
      body(slot, batch.sub(i, end - i));
      if (!slot) {
        throw std::logic_error("Scheduler: accumulate_batch left a null reduction object");
      }
      slot->set_key(key);
      i = end;
    }
  }

 private:
  std::unique_ptr<RedObj>& run_slot(int key) {
    const auto k = static_cast<std::size_t>(static_cast<unsigned>(key));
    if (k >= kSmallKeys) return map_->slot_at(map_->slot_index(key));
    if (k >= small_.size()) small_.resize(k + 1, kNoSlot);
    std::uint32_t& idx = small_[k];
    if (!holds(idx, key)) idx = static_cast<std::uint32_t>(map_->slot_index(key));
    return map_->slot_at(idx);
  }

  /// Whether dense index `idx` (possibly stale or kNoSlot) files `key`.
  bool holds(std::size_t idx, int key) const {
    return idx < map_->size() && map_->key_at(idx) == key;
  }

  static constexpr std::size_t kSmallKeys = 4096;
  static constexpr std::uint32_t kNoSlot = ~static_cast<std::uint32_t>(0);

  CombinationMap* map_;
  std::vector<std::uint32_t> small_;  ///< key -> dense index, validated on use
  std::size_t last_slot_ = CombinationMap::npos;
  std::size_t erased_ = 0;
};

template <class In, class Out>
class Scheduler {
 public:
  explicit Scheduler(const SchedArgs& args, RunOptions opts = {})
      : args_(args),
        opts_(opts),
        pool_(std::make_unique<ThreadPool>(args.num_threads)),
        reduction_maps_(static_cast<std::size_t>(args.num_threads)),
        feed_buffer_(std::make_unique<CircularBuffer<FeedCell>>(opts.buffer_cells)) {
    worker_slots_.reserve(reduction_maps_.size());
    for (auto& rmap : reduction_maps_) worker_slots_.emplace_back(rmap);
    if (args.chunk_size == 0) {
      throw std::invalid_argument("Scheduler: chunk_size must be positive");
    }
    if (args.num_iters <= 0) {
      throw std::invalid_argument("Scheduler: num_iters must be positive");
    }
  }

  virtual ~Scheduler() { release_tracked_objects(); }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enable/disable the global (cross-rank) combination; enabled by
  /// default.  Turned off for analytics whose output is per-partition
  /// (window-based preprocessing, MapReduce pipelines — paper Section 3.1).
  void set_global_combination(bool flag) { global_combination_ = flag; }
  bool global_combination() const { return global_combination_; }

  /// Picks the cross-rank combination algorithm (tree, ring, or size-based
  /// auto selection — the default).  See core/map_combiner.h.
  void set_combination_algorithm(MapCombiner::Algorithm algorithm) {
    map_combiner_.set_algorithm(algorithm);
  }
  MapCombiner::Algorithm combination_algorithm() const { return map_combiner_.algorithm(); }

  /// Arms fault tolerance (see RecoveryPolicy in core/sched_args.h): timed
  /// combination receives with retry + backoff, degradation to the
  /// surviving rank set once retries are exhausted, and periodic atomic
  /// checkpoints of the combination map.  The default policy (all zeros)
  /// keeps the legacy block-forever combination bit-exactly.
  void set_recovery_policy(RecoveryPolicy policy) { recovery_ = std::move(policy); }
  const RecoveryPolicy& recovery_policy() const { return recovery_; }

  /// Ranks the degraded combination currently spans (empty until a peer
  /// death has been detected — i.e. while every member participates).
  const std::vector<int>& surviving_ranks() const { return survivors_; }

  const RunOptions& options() const { return opts_; }

  const CombinationMap& get_combination_map() const { return combination_map_; }

  /// Drops all accumulated state (including the accumulate_across_runs
  /// carry), e.g. between independent experiments on one scheduler.
  void reset_combination_map() {
    combination_map_.clear();
    carry_map_.clear();
    for (auto& rmap : reduction_maps_) rmap.clear();  // objects kept for reuse
    sync_tracked_objects();
  }

  // --- time-sharing entry points (paper Table 1, functions 5 and 6) -------
  void run(const In* in, std::size_t in_len, Out* out, std::size_t out_len) {
    execute(in, in_len, out, out_len, /*multi_key=*/false);
  }
  void run2(const In* in, std::size_t in_len, Out* out, std::size_t out_len) {
    execute(in, in_len, out, out_len, /*multi_key=*/true);
  }

  // --- space-sharing entry points (functions 7 - 9) -----------------------
  /// Copies one time-step's output into a circular-buffer cell; blocks
  /// while all cells are in use (paper Figure 4's producer side).
  void feed(const In* in, std::size_t in_len) {
    obs::TraceSpan phase("feed_copy", "sched",
                         {{"bytes", static_cast<std::int64_t>(in_len * sizeof(In))}});
    ThreadCpuTimer timer;
    FeedCell cell;
    cell.data.assign(in, in + in_len);
    cell.charge = std::make_unique<ScopedMemCharge>(MemCategory::kInputCopy, in_len * sizeof(In));
    feed_buffer().push(std::move(cell));
    stats_.copy_seconds += timer.seconds();
  }

  /// Signals the end of the simulation stream; pending cells stay poppable.
  void close_feed() { feed_buffer().close(); }

  /// Pops and analyzes one fed time-step; false once the stream is closed
  /// and drained.
  bool run(Out* out, std::size_t out_len) { return run_fed(out, out_len, /*multi_key=*/false); }
  bool run2(Out* out, std::size_t out_len) { return run_fed(out, out_len, /*multi_key=*/true); }

  // --- custom combination topologies (in-transit / hybrid processing) -----
  /// Serialized snapshot of the current combination map.  Together with
  /// absorb() this lets callers build combination topologies other than
  /// the built-in world-wide allreduce — e.g. shipping per-step partial
  /// results to dedicated staging ranks (paper Section 6's in-transit and
  /// hybrid modes; see core/intransit.h).
  Buffer snapshot() const {
    Buffer buf = BufferPool::acquire(0);
    append_snapshot(buf);
    return buf;
  }

  /// Appends the serialized combination map to `out` — the buffer-reuse
  /// path for callers that snapshot every step (clear the buffer, keep its
  /// capacity) or prepend their own header (core/intransit).
  void append_snapshot(Buffer& out) const { serialize_map(combination_map_, out); }

  /// Merges a serialized combination map (a peer's snapshot) into this
  /// scheduler's map using the app's merge().
  void absorb(const Buffer& serialized_map) {
    Reader r(serialized_map);
    absorb(r);
  }

  /// Single-pass absorb from a positioned Reader: peer entries stream
  /// straight into the live map, with no intermediate CombinationMap (used
  /// by intransit staging ranks draining snapshot payloads in place).
  void absorb(Reader& r) {
    stats_.map_merges += absorb_serialized_map(r, combination_map_, merge_fn());
    sync_tracked_objects();
  }

  /// run()'s global-combination round over the ranks in `group` (ascending,
  /// containing this rank; empty = all of `comm`), then post_combine — for
  /// callers that combine outside run(), e.g. across intransit's staging
  /// ranks.  Collective over `group`, with RecoveryPolicy's recovery (see
  /// global_combination).  One scheduler combines over one group: its
  /// degraded survivors persist across rounds.
  void combine_group(simmpi::Communicator& comm, std::span<const int> group) {
    global_combination(comm, group);
    post_combine(combination_map_);
    sync_tracked_objects();
  }

  /// Converts the current combination map into the output array without
  /// running (Algorithm 1 lines 20-23 standalone) — used after absorb()
  /// or to re-extract an accumulated result.
  void convert_combination_map(Out* out, std::size_t out_len) const {
    if (out == nullptr || out_len == 0) return;
    for (const auto& [key, obj] : combination_map_) {
      if (key >= 0 && static_cast<std::size_t>(key) < out_len) {
        convert(*obj, out + key);
      }
    }
  }

  const RunStats& stats() const { return stats_; }
  void reset_stats() {
    stats_.reset();
    stats_.master_seed = master_seed_;  // the seed identifies the run, not a counter
  }

  /// Records the run's master seed (CLI --seed) so every stats dump echoes
  /// it; survives reset_stats().
  void set_master_seed(std::size_t seed) {
    master_seed_ = seed;
    stats_.master_seed = seed;
  }
  std::size_t master_seed() const { return master_seed_; }

  int num_threads() const { return args_.num_threads; }
  std::size_t chunk_size() const { return args_.chunk_size; }

 protected:
  // --- the user-implemented API (paper Table 1, lower half) ---------------
  virtual int gen_key(const Chunk& chunk, const In* data, const CombinationMap& com_map) const {
    (void)chunk;
    (void)data;
    (void)com_map;
    throw std::logic_error("Scheduler: run() used but gen_key not overridden");
  }

  virtual void gen_keys(const Chunk& chunk, const In* data, std::vector<int>& keys,
                        const CombinationMap& com_map) const {
    keys.push_back(gen_key(chunk, data, com_map));
  }

  virtual void accumulate(const Chunk& chunk, const In* data,
                          std::unique_ptr<RedObj>& red_obj) = 0;

  // --- batch-granular API (the batched reduction path; DESIGN.md §4.8) ----
  // The scheduler walks full chunks in batches of RunOptions::batch_chunks:
  // keys for the whole batch first (gen_keys_batch), then one
  // accumulate_batch call for the whole batch.  The defaults below replay
  // the per-chunk virtuals, so every app is batch-correct by construction;
  // the numeric apps override them with vectorizable kernels
  // (analytics/batch_kernels.h).  Overrides must preserve the scalar
  // path's accumulation order bit-for-bit — lane-parallelism may come from
  // independent dimensions/centroids/keys, never from reassociating a
  // floating-point reduction chain.

  /// Writes one key per chunk of `batch` into keys[0..batch.count).
  virtual void gen_keys_batch(const ChunkBatch& batch, const In* data, int* keys,
                              const CombinationMap& com_map) const {
    for (std::size_t i = 0; i < batch.count; ++i) {
      keys[i] = gen_key(batch.chunk(i), data, com_map);
    }
  }

  /// Accumulates every chunk of `batch`, chunk i into the object filed
  /// under keys[i] in this worker's map.  The default replays the
  /// per-chunk path chunk by chunk — accumulate, then trigger() and early
  /// emission — so it is exact for every app.  An override whose objects
  /// never trigger walks the batch with slots.for_each_run and folds each
  /// run of equal keys in one step.
  virtual void accumulate_batch(const ChunkBatch& batch, const In* data, const int* keys,
                                WorkerSlots& slots) {
    for (std::size_t i = 0; i < batch.count; ++i) {
      accumulate_chunk(batch.chunk(i), data, keys[i], slots);
    }
  }

  virtual void merge(const RedObj& red_obj, std::unique_ptr<RedObj>& com_obj) = 0;

  virtual void process_extra_data(const void* extra_data, CombinationMap& com_map) {
    (void)extra_data;
    (void)com_map;
  }

  virtual void post_combine(CombinationMap& com_map) { (void)com_map; }

  virtual void convert(const RedObj& red_obj, Out* out) const {
    (void)red_obj;
    (void)out;
  }

  /// Length of the block currently being processed (window apps use this
  /// to clip windows at the partition boundary).
  std::size_t total_len() const { return total_len_; }

  /// Key under accumulation (valid inside accumulate()).
  static int current_key() { return detail::t_current_key; }

  const void* extra_data() const { return args_.extra_data; }

  /// Apps whose chunk is a fixed-width record (k-means feature vectors,
  /// logistic-regression rows) call this in their constructor: a partial
  /// tail record is malformed input, so the ragged trailing elements are
  /// not processed and stay counted in RunStats::elements_skipped.
  void require_full_chunks() { process_tail_ = false; }

 private:
  struct FeedCell {
    std::vector<In> data;
    std::unique_ptr<ScopedMemCharge> charge;
  };

  // Constructed eagerly in the constructor: feed() (producer task) and
  // run() (analytics task) race in space-sharing mode, so lazy first-use
  // creation would be a data race on the pointer itself.
  CircularBuffer<FeedCell>& feed_buffer() { return *feed_buffer_; }

  bool run_fed(Out* out, std::size_t out_len, bool multi_key) {
    auto cell = feed_buffer().pop();
    if (!cell) return false;
    execute(cell->data.data(), cell->data.size(), out, out_len, multi_key);
    return true;
  }

  MergeFn merge_fn() {
    return [this](const RedObj& red, std::unique_ptr<RedObj>& com) { merge(red, com); };
  }

  /// The per-chunk path for one (chunk, key): accumulate into the key's
  /// object, then Algorithm 2 lines 5-7 — a triggered object is converted
  /// into the output right away and dropped from the map.  A later chunk
  /// of the same key re-inserts it and starts a fresh object.
  void accumulate_chunk(const Chunk& chunk, const In* data, int key, WorkerSlots& slots) {
    detail::t_current_key = key;
    auto& slot = slots.locate(key);
    if (slot) slot->set_key(key);
    accumulate(chunk, data, slot);
    if (!slot) throw std::logic_error("Scheduler: accumulate left a null reduction object");
    slot->set_key(key);
    if (opts_.enable_trigger && slot->trigger()) {
      if (out_ != nullptr && key >= 0 && static_cast<std::size_t>(key) < out_len_) {
        convert(*slot, out_ + key);
      }
      slots.erase(key);
    }
  }

  /// Keeps the memory tracker's reduction-object account at the current
  /// live total across all maps.
  void sync_tracked_objects() {
    std::size_t live = map_footprint_bytes(combination_map_) + map_footprint_bytes(carry_map_);
    for (const auto& m : reduction_maps_) live += map_footprint_bytes(m);
    auto& tracker = MemoryTracker::instance();
    if (live > tracked_red_bytes_) {
      tracker.charge(MemCategory::kReductionObjects, live - tracked_red_bytes_);
    } else if (live < tracked_red_bytes_) {
      tracker.release(MemCategory::kReductionObjects, tracked_red_bytes_ - live);
    }
    tracked_red_bytes_ = live;
    if (live > stats_.peak_reduction_bytes) stats_.peak_reduction_bytes = live;
  }

  void release_tracked_objects() {
    if (tracked_red_bytes_ != 0) {
      MemoryTracker::instance().release(MemCategory::kReductionObjects, tracked_red_bytes_);
      tracked_red_bytes_ = 0;
    }
  }

  void execute(const In* in, std::size_t in_len, Out* out, std::size_t out_len, bool multi_key) {
    const In* data = in;
    std::vector<In> copy;
    std::unique_ptr<ScopedMemCharge> copy_charge;
    if (opts_.copy_input) {
      // The Figure 9 comparison variant: materialize a private copy of the
      // simulation output before analyzing it.
      obs::TraceSpan phase("copy_input", "sched",
                           {{"bytes", static_cast<std::int64_t>(in_len * sizeof(In))}});
      ThreadCpuTimer timer;
      copy.assign(in, in + in_len);
      copy_charge =
          std::make_unique<ScopedMemCharge>(MemCategory::kInputCopy, in_len * sizeof(In));
      data = copy.data();
      stats_.copy_seconds += timer.seconds();
    }

    total_len_ = in_len;
    out_ = out;
    out_len_ = out_len;
    const std::size_t num_chunks = in_len / args_.chunk_size;
    const std::size_t tail = in_len - num_chunks * args_.chunk_size;
    // Ragged tail: processed as a short final chunk (Chunk::length tells
    // the app how much is real) unless the app requires full chunks.
    const std::size_t tail_len = process_tail_ ? tail : 0;
    if (tail_len == 0) stats_.elements_skipped += tail;

    // A run() analyzes one time-step independently (Listing 1 constructs
    // the scheduler per step); cross-step accumulation is explicit.
    if (opts_.accumulate_across_runs) {
      merge_map_into(std::move(combination_map_), carry_map_, merge_fn());
    }
    combination_map_.clear();
    process_extra_data(args_.extra_data, combination_map_);

    auto* comm = simmpi::current();

    for (int iter = 0; iter < args_.num_iters; ++iter) {
      distribute_combination_map();
      {
        obs::TraceSpan phase("reduction", "sched", {{"iter", iter}});
        reduction_phase(data, num_chunks, tail_len, multi_key);
      }
      {
        obs::TraceSpan phase("local_combine", "sched", {{"iter", iter}});
        local_combination();
      }
      if (global_combination_ && comm != nullptr && comm->size() > 1) {
        obs::TraceSpan phase("global_combine", "sched", {{"iter", iter}});
        global_combination(*comm);
      }
      post_combine(combination_map_);
      if (obs::metrics_enabled()) {
        static obs::Gauge& entries = obs::MetricsRegistry::global().gauge("smart.map_entries");
        entries.update_max(static_cast<double>(combination_map_.size()));
      }
      sync_tracked_objects();
    }

    if (opts_.accumulate_across_runs) {
      merge_map_into(std::move(combination_map_), carry_map_, merge_fn());
      combination_map_ = std::move(carry_map_);
      carry_map_.clear();
    }

    // Output conversion (Algorithm 1 lines 20-23): objects not already
    // emitted early are converted into the caller's output array.
    convert_combination_map(out, out_len);
    sync_tracked_objects();
    ++stats_.runs;
    if (obs::metrics_enabled()) {
      static obs::Counter& runs = obs::MetricsRegistry::global().counter("smart.runs");
      runs.add(1);
    }

    // Periodic auto-checkpoint (RecoveryPolicy): the accumulated state is
    // persisted atomically at run boundaries, so a job restarted after a
    // crash resumes from the last completed run (core/checkpoint_io.h).
    if (recovery_.checkpoint_every_runs > 0 &&
        stats_.runs % static_cast<std::size_t>(recovery_.checkpoint_every_runs) == 0) {
      obs::TraceSpan span("checkpoint", "sched");
      Buffer snap = snapshot();
      span.arg("bytes", static_cast<std::int64_t>(snap.size()));
      write_checkpoint_file(snap, recovery_.checkpoint_path);
      BufferPool::release(std::move(snap));
      ++stats_.auto_checkpoints;
    }
  }

  /// Algorithm 1 lines 3-6: copy the (seeded or post-combined) combination
  /// map into every worker's reduction map so accumulate/merge see the
  /// iterative context.  The map itself stays in place as the read-only
  /// com_map argument to gen_key(s); local combination rebuilds it from the
  /// worker maps (every seeded entry survives via its copies).  Non-seeded
  /// apps (empty map at this point) skip the per-worker pass entirely.
  ///
  /// In-place hand-back: local combination leaves every object it handed
  /// out in the worker maps (see local_combination).  A worker map that
  /// holds exactly the combination map's keys — the steady state of an
  /// iterative run — is refreshed object by object through
  /// RedObj::copy_from, so an iteration allocates nothing; objects that
  /// decline the hook, null slots and mismatched key sets fall back to
  /// clone().
  void distribute_combination_map() {
    reuse_worker_objects_ = !combination_map_.empty();
    if (!reuse_worker_objects_) {
      // Non-seeded: workers start from empty maps.  They already are,
      // unless an earlier seeded iteration left its objects behind.
      for (auto& rmap : reduction_maps_) {
        if (!rmap.empty()) rmap.clear();
      }
      return;
    }
    // Workers iterate the map concurrently (here and as gen_key's com_map
    // argument); restore key order now so no worker's begin() has to.
    combination_map_.ensure_sorted();
    auto refresh = [&](CombinationMap& rmap) {
      bool same_keys = rmap.size() == combination_map_.size();
      for (auto it = combination_map_.begin(); same_keys && it != combination_map_.end(); ++it) {
        same_keys = rmap.contains(it->first);
      }
      if (!same_keys) {
        rmap.clear();
        rmap.reserve(combination_map_.size());
      }
      for (const auto& [key, obj] : combination_map_) {
        auto& slot = rmap[key];
        if (!slot || !slot->copy_from(*obj)) slot = obj->clone();
        slot->set_key(key);
      }
    };
    if (reduction_maps_.size() > 1 && combination_map_.size() >= kParallelCombineMinEntries) {
      pool_->parallel_region(
          [&](int w) { refresh(reduction_maps_[static_cast<std::size_t>(w)]); });
    } else {
      for (auto& rmap : reduction_maps_) refresh(rmap);
    }
  }

  /// Walks num_chunks full chunks plus, when tail_len > 0, one short final
  /// chunk of tail_len elements at offset num_chunks * chunk_size.
  ///
  /// Single-key runs take the *batched* path when RunOptions::batch_chunks
  /// > 1: keys for up to batch_chunks consecutive full chunks are computed
  /// at once (gen_keys_batch over a columnar ChunkBatch view) and the whole
  /// batch goes to one accumulate_batch call, whose override folds each run
  /// of consecutive equal keys through WorkerSlots::for_each_run — two
  /// virtual calls per batch instead of two per chunk (or per run).  The
  /// ragged tail and the multi-key (run2) path stay chunk-at-a-time;
  /// multi-key chunks prefetch their whole key set's map probe heads
  /// before accumulating.
  void reduction_phase(const In* data, std::size_t num_chunks, std::size_t tail_len,
                       bool multi_key) {
    const std::size_t num_units = num_chunks + (tail_len > 0 ? 1 : 0);
    const auto workers = static_cast<std::size_t>(args_.num_threads);
    const std::size_t base = num_units / workers;
    const std::size_t extra = num_units % workers;

    std::vector<std::size_t> peak_objs(workers, 0);
    std::vector<std::size_t> emitted(workers, 0);
    std::vector<std::size_t> chunks_done(workers, 0);
    std::vector<std::size_t> elems_done(workers, 0);

    // Pool workers have no rank attribution of their own; pin their spans
    // to this scheduler's rank so the gather picks them up.
    const int trace_rank = obs::thread_rank();
    const std::vector<double> busy = pool_->parallel_region([&](int w) {
      obs::TraceSpan worker_span("reduce.worker", "sched", {{"worker", w}}, trace_rank);
      const auto uw = static_cast<std::size_t>(w);
      auto& rmap = reduction_maps_[uw];
      WorkerSlots& slots = worker_slots_[uw];
      const std::size_t erased_before = slots.erased();
      std::size_t peak = rmap.size();
      std::vector<int> keys;
      auto process_chunk = [&](std::size_t c) {
        // The last unit may be the ragged tail; Chunk::length carries its
        // true element count so apps clip their loops to it.
        const std::size_t len = c < num_chunks ? args_.chunk_size : tail_len;
        const Chunk chunk{c * args_.chunk_size, len};
        if (multi_key) {
          keys.clear();
          gen_keys(chunk, data, keys, combination_map_);
          // A window chunk touches W map entries; issuing the probe-head
          // prefetches for the whole key set up front overlaps the index
          // walk's cache misses instead of paying them one by one.
          for (const int key : keys) rmap.prefetch(key);
          for (const int key : keys) accumulate_chunk(chunk, data, key, slots);
        } else {
          accumulate_chunk(chunk, data, gen_key(chunk, data, combination_map_), slots);
        }
        elems_done[uw] += len;
        if (rmap.size() > peak) peak = rmap.size();
      };
      // Batched path state: one key per chunk of the current batch.
      const std::size_t batch_cap =
          (!multi_key && opts_.batch_chunks > 1) ? opts_.batch_chunks : 0;
      std::vector<int> batch_keys(batch_cap);
      auto process_batch = [&](std::size_t first_chunk, std::size_t n) {
        const ChunkBatch batch{first_chunk * args_.chunk_size, args_.chunk_size, n};
        gen_keys_batch(batch, data, batch_keys.data(), combination_map_);
        accumulate_batch(batch, data, batch_keys.data(), slots);
        elems_done[uw] += batch.elements();
        if (rmap.size() > peak) peak = rmap.size();
      };
      auto process_range = [&](std::size_t begin, std::size_t end) {
        std::size_t c = begin;
        if (batch_cap != 0) {
          const std::size_t full_end = std::min(end, num_chunks);
          while (c < full_end) {
            const std::size_t n = std::min(batch_cap, full_end - c);
            process_batch(c, n);
            c += n;
          }
        }
        // Per-chunk path: multi-key chunks, batching disabled, and the
        // ragged tail unit (never part of a ChunkBatch).
        for (; c < end; ++c) process_chunk(c);
        chunks_done[uw] += end - begin;
      };
      // Contiguous split of chunks for this worker (the paper's equal
      // division of a block into splits): one streaming range per worker.
      const std::size_t begin = uw * base + std::min(uw, extra);
      process_range(begin, begin + base + (uw < extra ? 1 : 0));
      peak_objs[uw] = peak;
      emitted[uw] = slots.erased() - erased_before;
    });

    double critical_path = 0.0;
    double busy_total = 0.0;
    for (double b : busy) {
      critical_path = std::max(critical_path, b);
      busy_total += b;
    }
    stats_.reduction_seconds += critical_path;
    // Load-balance observability: max-over-mean worker busy time (1.0 =
    // balanced, `workers` = one worker did it all).
    const double mean_busy = busy_total / static_cast<double>(workers);
    const double skew = mean_busy > 0.0 ? critical_path / mean_busy : 1.0;
    if (skew > stats_.worker_skew) stats_.worker_skew = skew;
    if (obs::metrics_enabled()) {
      static obs::Gauge& skew_gauge =
          obs::MetricsRegistry::global().gauge("sched.worker_skew");
      skew_gauge.update_max(skew);
    }
    // Threads within a rank run on that rank's dedicated cores; the rank's
    // virtual clock advances by the slowest worker.
    if (auto* comm = simmpi::current()) comm->advance(critical_path);

    std::size_t peak_total = combination_map_.size();
    for (std::size_t w = 0; w < workers; ++w) {
      peak_total += peak_objs[w];
      stats_.early_emissions += emitted[w];
      stats_.chunks_processed += chunks_done[w];
      stats_.elements_processed += elems_done[w];
    }
    if (peak_total > stats_.peak_reduction_objects) {
      stats_.peak_reduction_objects = peak_total;
    }
    sync_tracked_objects();
  }

  /// Below this many total entries the local combination folds serially:
  /// dispatching the pool costs more than merging a handful of objects.
  /// Also gates the parallel clone in distribute_combination_map.
  static constexpr std::size_t kParallelCombineMinEntries = 64;

  /// Algorithm 1 lines 11-17, local half: worker maps 1..T-1 merge into
  /// worker 0's map in place, which then swaps with the combination map
  /// (the seeded entries survive via their worker copies, so the pre-phase
  /// map is simply replaced).  The result is w0 ⊕ w1 ⊕ … ⊕ w(T-1), grouped
  /// left to right; a single worker's map just moves.
  ///
  /// When distribute_combination_map handed objects out this iteration,
  /// the merges keep them (merge_map_keeping) and the swap parks the
  /// previous combination map's objects in worker 0's map, so every worker
  /// gets its objects back for the next distribute to refresh in place.
  /// Otherwise merged maps are emptied as they go.
  ///
  /// With more than one worker and at least kParallelCombineMinEntries
  /// entries, the T worker maps merge pairwise on the pool as a binomial
  /// tree — round d merges map[w+d] into map[w] for every w divisible by
  /// 2d — so the phase costs log2(T) rounds of concurrent merges instead
  /// of T-1 serial ones.  Each round's pairs touch disjoint maps; merge()
  /// must therefore tolerate concurrent calls on disjoint objects, which
  /// the merge contract (pure function of its two operands) guarantees.  The phase charges the critical
  /// path (slowest worker per round) to combination_seconds, like the
  /// reduction phase; the simmpi clock is not advanced, preserving the
  /// serial path's timing semantics.
  void local_combination() {
    ThreadCpuTimer timer;
    const std::size_t workers = reduction_maps_.size();
    std::size_t total_entries = 0;
    for (const auto& m : reduction_maps_) total_entries += m.size();

    const MergeFn merge = merge_fn();
    auto fold = [&](std::size_t src, std::size_t dst) {
      if (reuse_worker_objects_) {
        merge_map_keeping(reduction_maps_[src], reduction_maps_[dst], merge);
      } else {
        merge_map_into(std::move(reduction_maps_[src]), reduction_maps_[dst], merge);
      }
    };
    double critical_path = 0.0;
    if (workers <= 1 || total_entries < kParallelCombineMinEntries) {
      for (std::size_t w = 1; w < workers; ++w) fold(w, 0);
      critical_path = timer.seconds();
    } else {
      critical_path = timer.seconds();  // serial prologue
      for (std::size_t dist = 1; dist < workers; dist *= 2) {
        const std::vector<double> busy = pool_->parallel_region([&](int w) {
          const auto uw = static_cast<std::size_t>(w);
          if (uw % (2 * dist) != 0) return;
          if (uw + dist < workers) fold(uw + dist, uw);
        });
        // Rounds are sequential; each costs its slowest merge.
        double round = 0.0;
        for (double b : busy) round = std::max(round, b);
        critical_path += round;
      }
    }
    // Without a hand-out the old combination map was empty, so worker 0
    // gets an empty map back either way.
    std::swap(combination_map_, reduction_maps_[0]);
    stats_.combination_seconds += critical_path;
  }

  /// First backoff of a fault-tolerant combination retry; doubles per
  /// subsequent retry.
  static constexpr double kRetryBackoffSeconds = 0.005;

  /// Algorithm 1 lines 11-17, global half: rank maps merge across simmpi
  /// via MapCombiner (single-pass tree or key-partitioned ring; see
  /// core/map_combiner.h) and the global map replaces every rank's local
  /// map, so the next iteration and get_combination_map see the global
  /// result.  `base` lists the ranks of the round (ascending; empty = all
  /// of `comm`).
  ///
  /// Under a fault-tolerant RecoveryPolicy, and for every round over an
  /// explicit group (MapCombiner runs those on the recovery round's tags),
  /// the round is wrapped in a recovery loop: on simmpi::PeerUnreachable
  /// the map rolls back to its pre-round snapshot (a failed round may have
  /// partially merged peers), the round retries with exponential backoff,
  /// and once a member of `base` is known dead — or retries are exhausted
  /// against one — the base group's survivors rebuild the tree over the
  /// reduced rank set and stay degraded from then on.
  void global_combination(simmpi::Communicator& comm, std::span<const int> base = {}) {
    WallTimer wall;
    ++stats_.global_combinations;
    if (base.empty() && !recovery_.fault_tolerant_combination()) {
      fold_combine_stats(map_combiner_.allreduce(comm, combination_map_, merge_fn()));
      stats_.global_seconds += wall.seconds();
      return;
    }

    const int base_size = base.empty() ? comm.size() : static_cast<int>(base.size());
    // The members of `base` that the shared death record still counts.
    auto alive_in_base = [&] {
      std::vector<int> alive = comm.alive_ranks();
      if (!base.empty()) {
        std::erase_if(alive,
                      [&](int r) { return !std::binary_search(base.begin(), base.end(), r); });
      }
      return alive;
    };
    // Pre-round snapshot: a PeerUnreachable can surface after some peers'
    // payloads were already absorbed, and replaying those merges would
    // double-count them.  The rollback also keeps resent payloads
    // byte-identical, which is what lets every attempt of this round
    // share one tag namespace (MapCombiner::begin_recovery_round).
    Buffer pre_round;
    serialize_map(combination_map_, pre_round);
    map_combiner_.begin_recovery_round();
    const int max_attempts = std::max(1, recovery_.combine_retries + 1);
    for (int attempt = 0;; ++attempt) {
      obs::TraceSpan attempt_span("combine.attempt", "sched", {{"attempt", attempt}});
      try {
        const std::span<const int> group = survivors_.empty() ? base : survivors_;
        fold_combine_stats(map_combiner_.allreduce(comm, combination_map_, merge_fn(),
                                                   recovery_.peer_timeout_seconds, group,
                                                   base_size));
        break;
      } catch (const simmpi::PeerUnreachable&) {
        if (obs::trace_enabled()) {
          obs::TraceCollector::instance().instant("combine.retry", "sched",
                                                  {{"attempt", attempt}});
        }
        combination_map_ = deserialize_map(pre_round);
        sync_tracked_objects();
        const std::vector<int> alive = alive_in_base();
        if (static_cast<int>(alive.size()) < base_size && alive != survivors_) {
          // Every survivor computes the same alive set from the shared
          // death record, so the degraded trees agree without a consensus
          // round.  A newly detected death re-arms the retry budget.
          survivors_ = alive;
          attempt = -1;
          continue;
        }
        if (attempt + 1 >= max_attempts) throw;
        ++stats_.combine_retries;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            kRetryBackoffSeconds * static_cast<double>(1 << attempt)));
      }
    }
    // Counted at the end, so a member that never saw the failure (its
    // payload reached a root that degraded) still counts the loss.
    stats_.ranks_lost = static_cast<std::size_t>(base_size) - alive_in_base().size();
    stats_.global_seconds += wall.seconds();
  }

  void fold_combine_stats(const MapCombineStats& cs) {
    if (obs::metrics_enabled()) {
      static obs::FixedHistogram& wire = obs::MetricsRegistry::global().histogram(
          "smart.wire_bytes_per_round", {1024, 16384, 65536, 262144, 1048576, 16777216});
      wire.observe(static_cast<double>(cs.wire_bytes));
    }
    stats_.bytes_serialized += cs.bytes_encoded;
    stats_.wire_bytes += cs.wire_bytes;
    stats_.map_serializes += cs.map_serializes;
    stats_.map_deserializes += cs.map_deserializes;
    stats_.map_merges += cs.map_merges;
    stats_.codec_seconds += cs.codec_seconds;
  }

  SchedArgs args_;
  RunOptions opts_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<CombinationMap> reduction_maps_;
  /// One accessor per worker map; the vector above never resizes, so the
  /// map addresses they hold stay valid.
  std::vector<WorkerSlots> worker_slots_;
  CombinationMap combination_map_;
  CombinationMap carry_map_;
  MapCombiner map_combiner_;
  RecoveryPolicy recovery_;
  std::vector<int> survivors_;  ///< degraded combination group; empty = the whole base group
  bool global_combination_ = true;
  /// Cleared by require_full_chunks: the ragged tail is then skipped.
  bool process_tail_ = true;
  /// Set by distribute_combination_map: the worker maps hold copies of the
  /// combination map this iteration, kept for reuse by local_combination.
  bool reuse_worker_objects_ = false;
  std::size_t total_len_ = 0;
  /// The output array of the run in progress, for early emission.
  Out* out_ = nullptr;
  std::size_t out_len_ = 0;
  std::size_t tracked_red_bytes_ = 0;
  std::unique_ptr<CircularBuffer<FeedCell>> feed_buffer_;
  RunStats stats_;
  std::size_t master_seed_ = 0;
};

}  // namespace smart
