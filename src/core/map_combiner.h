// MapCombiner: single-pass global combination of CombinationMaps over a
// simmpi communicator (paper Algorithm 1, lines 11-17).
//
// The naive implementation passes a Buffer×Buffer→Buffer lambda to
// Communicator::allreduce_shared, which pays deserialize_map + merge +
// serialize_map at *every* hop of the binomial reduction tree — O(log n)
// redundant codec passes per rank per round.  MapCombiner instead keeps the
// merged state as a live CombinationMap at interior tree nodes and only
// touches serialized Buffers at rank boundaries:
//
//   * reduce (shared by every full-map algorithm): a binomial reduction to
//     the group's first rank.  A rank absorbs each child's wire payload
//     directly into its live map (absorb_serialized_map — no intermediate
//     map, no re-serialize) and serializes its merged map exactly once, when
//     it hands the result up.  The merge schedule is bit-identical to the
//     Buffer-lambda path.  Two fan-outs then deliver the root's result,
//     serialized once, and every other rank deserializes it exactly once
//     (the root never does): per rank per round ≤1 serialize_map and ≤1
//     deserialize_map.
//   * tree (latency-optimal, the default): reduce, then bcast_shared of the
//     root's bytes down the binomial tree.
//   * ring (bandwidth-optimal): keys are partitioned into `size()` segments
//     by floor-modulo; a reduce-scatter leaves each rank with one globally
//     merged segment, then an allgather circulates the finished segments —
//     forwarding the received bytes verbatim, with no re-encode.  Each rank
//     ships ~2·S/n·(n-1) bytes regardless of depth (vs the tree's root
//     shipping S·log n); it is the runtime's only ring allreduce.  Codec
//     work is per segment, so the full-map codec counters stay at zero; the
//     cost is visible in codec_seconds / wire_bytes.
//   * direct: reduce, then the root hands one SharedBuffer straight to
//     every peer (zero per-peer copies, no interior forwarding).
//   * fault-tolerant ("ft_tree"): direct over a rank group (the whole
//     communicator, a subset such as intransit's staging ranks, or the
//     survivors of a failed round) on the recovery round's tags, with
//     every receive bounded by a deadline.
//   * auto: plan-driven.  Below the measured flat-model crossover
//     (kDefaultRingCrossoverBytes, from bench/micro_core_ops
//     BM_MapCombineAlgorithms) the tree always wins — that regime is
//     codec/latency-bound and topology-independent — so the crossover acts
//     as a floor.  Above it, simmpi::CollectivePlanner prices tree, ring,
//     and direct with the active NetworkModel's contention-free per-link
//     estimates and the cheapest runs (see simmpi/collective.h).  Because
//     every rank must pick the same algorithm, the byte estimate is the
//     previous round's *global* map footprint (identical on all ranks once
//     a round has completed) and, on the very first round, a scalar
//     allreduce_max consensus over the local footprints; the plan itself
//     is a pure function of shared state, so no further messages.
//
// One MapCombiner lives per scheduler so its wire buffer's capacity and the
// agreed size estimate persist across rounds (the Writer append-into-
// existing-Buffer reuse path; see common/serialize.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/serialize.h"
#include "core/red_obj.h"
#include "simmpi/collective.h"
#include "simmpi/communicator.h"

namespace smart {

/// Per-call accounting, folded into RunStats by the scheduler.
struct MapCombineStats {
  std::size_t map_serializes = 0;    ///< full-map serialize_map passes (tree: ≤1)
  std::size_t map_deserializes = 0;  ///< full-map deserialize_map passes (tree: ≤1)
  std::size_t map_merges = 0;        ///< peer entries absorbed into the live map
  std::size_t bytes_encoded = 0;     ///< serialized bytes this rank produced
  std::size_t wire_bytes = 0;        ///< payload bytes this rank shipped
  double codec_seconds = 0.0;        ///< time in serialize/deserialize/absorb
  /// Algorithm that ran: "tree" | "ring" | "direct" | "ft_tree" | "none"
  /// (static strings; "none" = trivial single-rank round).
  const char* algorithm = "none";
};

class MapCombiner {
 public:
  enum class Algorithm { kAuto, kTree, kRing, kDirect };

  /// Auto crossover floor: serialized maps estimated below this always use
  /// the tree; above it the planner decides.  From bench/micro_core_ops
  /// BM_MapCombineAlgorithms on the container (tree wins below ~64 KiB
  /// where latency dominates).
  static constexpr std::size_t kDefaultRingCrossoverBytes = 64 * 1024;

  explicit MapCombiner(Algorithm algorithm = Algorithm::kAuto) : algorithm_(algorithm) {}

  Algorithm algorithm() const { return algorithm_; }
  void set_algorithm(Algorithm algorithm) { algorithm_ = algorithm; }

  /// In-place allreduce of `map` across `comm` using the app's merge().
  /// Collective: every rank of the group must call it with the same
  /// algorithm configuration.  On return every rank holds the identical
  /// global map.
  ///
  /// With `peer_timeout_seconds > 0` or a non-empty `group` the round is
  /// fault-tolerant: it always runs the direct shape (the ring needs every
  /// rank alive, and auto's first-round consensus is an unbounded
  /// collective), tagged by the recovery round (see begin_recovery_round),
  /// so a payload from round r can never be consumed by round r+1.  Every
  /// receive is bounded by the timeout (0 = unbounded) and a silent peer
  /// raises simmpi::PeerUnreachable, possibly leaving this rank's map
  /// partially merged — callers roll back and retry; core/scheduler.h
  /// does.  `group` lists the participating ranks (ascending, containing
  /// this rank; empty = all of `comm`): a rank subset such as intransit's
  /// staging ranks, or the survivors of a failed round, from
  /// Communicator::alive_ranks(), with dead ranks simply absent from the
  /// rebuilt tree.  `base_size` is the size of the group the round would
  /// span with nobody lost (0 = comm.size()); a smaller group is a
  /// degraded round, and only its span carries "survivors".
  MapCombineStats allreduce(simmpi::Communicator& comm, CombinationMap& map, const MergeFn& merge,
                            double peer_timeout_seconds = 0.0, std::span<const int> group = {},
                            int base_size = 0);

  /// Starts a fresh fault-tolerant round (a new tag namespace).  Call it
  /// exactly once per *logical* combination round, before the first
  /// attempt — NOT per retry.  Ranks advance rounds in lockstep because
  /// every rank makes the same sequence of combination calls; attempts
  /// cannot be kept in lockstep (survivors abort at different times: a
  /// rank waiting on the dead peer fails instantly, one waiting on a live
  /// but stalled peer only after its full timeout), so retried and
  /// degraded attempts of one round deliberately share its tags.  That
  /// sharing is safe because callers roll back to their pre-round map
  /// before resending: any duplicate payload is byte-identical, and each
  /// tree position consumes at most one payload per source per attempt.
  void begin_recovery_round() { ++ft_round_; }

 private:
  /// Picks this round's algorithm (see the auto bullet in the file
  /// comment).  Collective when the consensus fallback fires; otherwise
  /// message-free.
  simmpi::CollectiveAlgo plan(simmpi::Communicator& comm, const CombinationMap& map);
  /// Binomial reduction of `map` to the group's first rank (`group` empty
  /// = all of `comm`), payloads on `tag`.  Every receive is bounded by
  /// `timeout_seconds` (0 = a plain recv).  Returns this rank's position in
  /// the group; position 0 (the root) ends holding the global map.
  int reduce(simmpi::Communicator& comm, std::span<const int> group, CombinationMap& map,
             const MergeFn& merge, int tag, double timeout_seconds, MapCombineStats& stats);
  void ring_allreduce(simmpi::Communicator& comm, CombinationMap& map, const MergeFn& merge,
                      MapCombineStats& stats);
  /// Serializes the whole map into wire_ (the one full-map encode site).
  void encode_map(const CombinationMap& map, MapCombineStats& stats);

  /// Readies wire_ for a fresh encode: clears it when its capacity is still
  /// here, re-acquires from the BufferPool (sized by the largest encode seen
  /// so far) after a send moved the storage away.
  void prepare_wire();

  Algorithm algorithm_;
  Buffer wire_;  ///< reused encode buffer (pool-backed once shipped)
  std::size_t wire_hint_ = 0;  ///< largest encode so far, sizes pool acquires
  MapSegmentIndex seg_index_;  ///< ring per-round key/segment index (allocations reused)
  std::size_t agreed_footprint_ = 0;  ///< global map footprint after the last round
  bool have_agreed_footprint_ = false;
  int ft_round_ = 0;  ///< fault-tolerant round counter (tag namespace; see begin_recovery_round)
  std::int64_t combine_round_ = 0;  ///< lifetime allreduce count, stamped on combine.* spans
};

}  // namespace smart
