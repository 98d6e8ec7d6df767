// Scheduler construction arguments (paper Table 1, function 1) and the
// run options that select between the variants the evaluation compares.
#pragma once

#include <cstddef>
#include <string>

namespace smart {

/// The paper's SchedArgs(num_threads, chunk_size, extra_data, num_iters).
struct SchedArgs {
  SchedArgs(int num_threads_in, std::size_t chunk_size_in,
            const void* extra_data_in = nullptr, int num_iters_in = 1)
      : num_threads(num_threads_in),
        chunk_size(chunk_size_in),
        extra_data(extra_data_in),
        num_iters(num_iters_in) {}

  int num_threads;         ///< analytics threads per process (= simulation threads in time sharing)
  std::size_t chunk_size;  ///< elements per unit chunk (feature-vector length)
  const void* extra_data;  ///< app-specific seed input (e.g. initial centroids)
  int num_iters;           ///< iterations per run() call (iterative analytics)
};

/// How the reduction phase splits a block's chunks across pool workers.
enum class SplitPolicy {
  /// One contiguous chunk range per worker (the paper's equal division of
  /// a block into splits).  Affinity-friendly: each worker streams one
  /// hardware-prefetchable region, and with pin_threads the range stays on
  /// the worker's core/NUMA node for the whole phase.  The default.
  kContiguous,
  /// Workers pull fixed-size chunk batches from a shared counter.  Helps
  /// when per-chunk cost is skewed (e.g. windows near a shock front).
  kDynamic,
  /// Like kDynamic, but the batch size shrinks as the counter drains
  /// (guided self-scheduling): big cache-friendly batches up front, small
  /// ones near the end so the ragged tail cannot strand one worker with a
  /// full grain while the rest idle.  Use when num_units barely exceeds
  /// the worker count — the case where kDynamic's fixed grain degrades.
  kGuided,
};

/// Knobs for the design-variant comparisons in the paper's evaluation.
/// Defaults are the paper's recommended configuration.
struct RunOptions {
  /// Copy the input block into an internal buffer before processing.
  /// Smart's time-sharing mode reads the simulation slab through a bare
  /// pointer instead (zero copy); enabling this reproduces the comparison
  /// implementation of Figure 9.
  bool copy_input = false;

  /// Honor RedObj::trigger() for early emission (Algorithm 2).  Disabling
  /// reproduces the no-trigger comparison of Figure 11.
  bool enable_trigger = true;

  /// Keep the combination map across run() calls: each run's result is
  /// merged into the accumulated map instead of replacing it.  Off by
  /// default — a run() processes one time-step independently, matching
  /// the paper's per-time-step launch (Listing 1).
  bool accumulate_across_runs = false;

  /// Process the trailing `in_len % chunk_size` elements as a short final
  /// chunk (its Chunk::length carries the real element count so structural
  /// apps clip) instead of silently dropping them.  On by default; record
  /// apps whose chunk is a fixed-width feature vector (k-means, logistic
  /// regression, mutual information) force it off — a partial record is
  /// malformed input — and the dropped elements are counted in
  /// RunStats::elements_skipped.
  bool process_tail = true;

  /// Pin pool workers to cores (paper Section 3.1).  Off by default in
  /// the test environment.
  bool pin_threads = false;

  /// Worker→chunk-range split policy for the reduction phase (see
  /// SplitPolicy).  Results are identical under every policy for
  /// integer-exact apps; floating-point accumulators can differ in the
  /// last bit across policies because worker→chunk assignment (and hence
  /// merge grouping) changes.
  SplitPolicy split_policy = SplitPolicy::kContiguous;

  /// Chunks per batch on the batched reduction path: the scheduler
  /// computes keys for up to this many consecutive full chunks at once
  /// (gen_keys_batch) and hands the whole batch to one accumulate_batch
  /// call, whose app override folds each run of equal keys in one step
  /// (WorkerSlots::for_each_run) — two virtual calls per batch instead of
  /// two per chunk, and kernels the numeric apps can vectorize.  0 or 1
  /// disables batching (the chunk-at-a-time path); the multi-key (run2)
  /// path always stays chunk-at-a-time.  Results are bit-identical either
  /// way: the default accumulate_batch replays the per-chunk path, and the
  /// app kernels preserve scalar accumulation order (see DESIGN.md §4.8).
  std::size_t batch_chunks = 64;

  /// Merge worker reduction maps pairwise on the thread pool (a log2(T)
  /// binomial tree) instead of the serial worker-after-worker fold, and
  /// clone the combination map into worker maps on the pool as well.  The
  /// result is identical for the commutative/associative merges the
  /// runtime already requires (global combination reorders merges too);
  /// only the wall-clock of the local-combination phase changes.  Tiny
  /// maps stay on the serial path regardless — pool dispatch would cost
  /// more than the merge.
  bool parallel_local_combine = true;

  /// Cells in the space-sharing circular buffer (paper Figure 4).
  std::size_t buffer_cells = 4;
};

/// Fault-tolerance knobs for long-lived in-situ runs (Scheduler::
/// set_recovery_policy).  With a positive peer timeout, every blocking
/// receive of the global-combination round is bounded: a dead or silent
/// peer surfaces as simmpi::PeerUnreachable, the round rolls back and
/// retries with exponential backoff, and once retries are exhausted the
/// survivors rebuild the combination tree over the reduced rank set
/// (RunStats::combine_retries / ranks_lost record both).  Orthogonally,
/// the scheduler writes an atomic checkpoint of its combination map every
/// N runs, so a restarted job resumes from the last completed step.
struct RecoveryPolicy {
  /// Write `checkpoint_path` after every N-th run() (0 = off).
  int checkpoint_every_runs = 0;
  std::string checkpoint_path;

  /// Bound on any single combination receive; 0 disables fault tolerance
  /// entirely (legacy block-forever combination, bit-exact behavior).
  double peer_timeout_seconds = 0.0;

  /// Full-round retries after a PeerUnreachable before degrading to the
  /// surviving rank set.  Retries recover transient message loss; they
  /// cannot resurrect a dead rank.
  int combine_retries = 2;

  bool fault_tolerant_combination() const { return peer_timeout_seconds > 0.0; }
};

}  // namespace smart
