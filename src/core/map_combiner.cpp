#include "core/map_combiner.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/timing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace smart {

namespace {
// Internal tag space, below the communicator's own collectives
// (-1000..-6000).
constexpr int kTreeTag = -9000;
constexpr int kRingReduceTag = -9200;
constexpr int kRingGatherTag = -9400;
constexpr int kDirectTag = -9500;  ///< direct: reduce payloads; fan-out on kDirectTag - 1
// Fault-tolerant rounds burn two tags per recovery round, descending from
// here, so round r+1 never matches round r's leftovers.  Attempts *within*
// a round share its tags on purpose — see begin_recovery_round().
constexpr int kFtBaseTag = -9600;

/// Per-decision planner counters (collective.plan.tree|ring|direct): how
/// often the auto mode resolved to each algorithm, riding the usual
/// metrics gate.  Forced algorithms don't count — the interesting signal
/// is what the topology made the planner do.
void count_plan(simmpi::CollectiveAlgo algo) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& tree = obs::MetricsRegistry::global().counter("collective.plan.tree");
  static obs::Counter& ring = obs::MetricsRegistry::global().counter("collective.plan.ring");
  static obs::Counter& direct = obs::MetricsRegistry::global().counter("collective.plan.direct");
  switch (algo) {
    case simmpi::CollectiveAlgo::kTree:
      tree.add(1);
      break;
    case simmpi::CollectiveAlgo::kRing:
      ring.add(1);
      break;
    case simmpi::CollectiveAlgo::kDirect:
      direct.add(1);
      break;
  }
}
/// Ranks taking part in a round (`group` empty = all of `comm`).
int group_size(const simmpi::Communicator& comm, std::span<const int> group) {
  return group.empty() ? comm.size() : static_cast<int>(group.size());
}

/// Rank in `comm` of group position `g`.
int group_rank(std::span<const int> group, int g) {
  return group.empty() ? g : group[static_cast<std::size_t>(g)];
}

/// The static {MapCombineStats::algorithm, combine.* span name} of a round.
std::pair<const char*, const char*> algorithm_names(simmpi::CollectiveAlgo algo,
                                                    bool fault_tolerant) {
  if (fault_tolerant) return {"ft_tree", "combine.ft_tree"};
  switch (algo) {
    case simmpi::CollectiveAlgo::kRing:
      return {"ring", "combine.ring"};
    case simmpi::CollectiveAlgo::kDirect:
      return {"direct", "combine.direct"};
    case simmpi::CollectiveAlgo::kTree:
      break;
  }
  return {"tree", "combine.tree"};
}

/// Replaces `map` with the global result the root fanned out (the one
/// full-map decode site).
void adopt_result(const SharedBuffer& global, CombinationMap& map, MapCombineStats& stats) {
  ThreadCpuTimer codec;
  {
    obs::TraceSpan cspan("codec.decode", "codec",
                         {{"bytes", static_cast<std::int64_t>(global.size())}});
    Reader r(global);
    map = deserialize_map(r);
  }
  stats.codec_seconds += codec.seconds();
  ++stats.map_deserializes;
}
}  // namespace

void MapCombiner::prepare_wire() {
  if (wire_.capacity() == 0) {
    wire_ = BufferPool::acquire(wire_hint_);
  } else {
    wire_.clear();
  }
}

MapCombineStats MapCombiner::allreduce(simmpi::Communicator& comm, CombinationMap& map,
                                       const MergeFn& merge, double peer_timeout_seconds,
                                       std::span<const int> group, int base_size) {
  MapCombineStats stats;
  const int m = group_size(comm, group);
  if (m <= 1) return stats;
  const std::size_t sent_before = comm.bytes_sent();
  // Combination-round stamp: the critical-path profiler rolls attributed
  // time up per round, so every combine.* span names the round it served.
  const std::int64_t round = combine_round_++;
  // A fault-tolerant round always runs the direct shape: the ring needs
  // every rank alive, auto's first-round consensus is an unbounded
  // collective, and interior bcast forwarding would let one rank's death
  // strand its whole subtree — direct sends keep every delivery
  // independent, which matters more than latency here.
  const bool fault_tolerant = peer_timeout_seconds > 0.0 || !group.empty();
  const simmpi::CollectiveAlgo algo =
      fault_tolerant ? simmpi::CollectiveAlgo::kDirect : plan(comm, map);
  const auto [algorithm, span_name] = algorithm_names(algo, fault_tolerant);
  stats.algorithm = algorithm;
  obs::TraceSpan span(span_name, "sched");
  // Only degraded rounds carry "survivors" (obs/critpath.cpp keys on it).
  if (m < (base_size > 0 ? base_size : comm.size())) span.arg("survivors", m);
  span.arg("round", round);

  if (algo == simmpi::CollectiveAlgo::kRing) {
    ring_allreduce(comm, map, merge, stats);
  } else {
    // Fault-tolerant rounds use two tags per recovery round, shared by
    // every attempt of the round (full-group, retried, and degraded
    // alike).  A stale payload from an aborted attempt is byte-identical
    // to its resend — the sender rolled back to its pre-round map first —
    // so consuming it is harmless, and a rank that finished the round
    // early can satisfy a still-retrying peer's receive from the result it
    // already sent.  Per-*attempt* tags would instead require attempt
    // lockstep, which partial failures break.
    const int payload_tag = fault_tolerant                          ? kFtBaseTag - 2 * ft_round_
                            : algo == simmpi::CollectiveAlgo::kTree ? kTreeTag
                                                                    : kDirectTag;
    const int me = reduce(comm, group, map, merge, payload_tag, peer_timeout_seconds, stats);
    if (algo == simmpi::CollectiveAlgo::kTree) {
      // The root's live map *is* the result — it serializes once for the
      // wire and never deserializes.  The whole binomial tree shares the
      // root's serialized bytes (bcast_shared), and every non-root
      // deserializes straight out of them: no per-child copies, and the
      // storage returns to the BufferPool when the last rank drops its
      // reference.
      SharedBuffer result;
      if (me == 0) {
        encode_map(map, stats);
        result = make_shared_buffer(std::move(wire_));
      }
      comm.bcast_shared(result, 0);
      if (me != 0) adopt_result(result, map, stats);
    } else if (me == 0) {
      // Direct fan-out: one serialize, one SharedBuffer handed to every
      // peer — no interior forwarding, no per-peer copies.
      encode_map(map, stats);
      const SharedBuffer result = make_shared_buffer(std::move(wire_));
      for (int g = 1; g < m; ++g) comm.send_shared(group_rank(group, g), payload_tag - 1, result);
    } else {
      const int root = group_rank(group, 0);
      adopt_result(peer_timeout_seconds > 0.0
                       ? comm.recv_shared_timeout(root, payload_tag - 1, peer_timeout_seconds)
                       : comm.recv_shared(root, payload_tag - 1),
                   map, stats);
    }
  }
  stats.wire_bytes = comm.bytes_sent() - sent_before;
  // Every rank now holds the identical global map, so this footprint is a
  // consensus value for free — next round's algorithm choice needs no
  // extra messages.
  agreed_footprint_ = map_footprint_bytes(map);
  have_agreed_footprint_ = true;
  return stats;
}

int MapCombiner::reduce(simmpi::Communicator& comm, std::span<const int> group,
                        CombinationMap& map, const MergeFn& merge, int tag,
                        double timeout_seconds, MapCombineStats& stats) {
  const int m = group_size(comm, group);
  int me = comm.rank();
  if (!group.empty()) {
    const auto it = std::find(group.begin(), group.end(), comm.rank());
    if (it == group.end()) {
      throw std::logic_error("MapCombiner: this rank is not in the combination group");
    }
    me = static_cast<int>(it - group.begin());
  }
  // Binomial reduction to position 0, mirroring Communicator::reduce's
  // schedule so the merge order (and therefore every floating-point
  // accumulation) is bit-identical to the Buffer-lambda path this
  // replaces.  The difference: a receiving rank absorbs the child's
  // payload straight into its live map, and only serializes once — when
  // handing its merged map up.
  for (int dist = 1; dist < m; dist <<= 1) {
    if (me % (2 * dist) == 0) {
      if (me + dist < m) {
        const int child = group_rank(group, me + dist);
        Buffer payload = timeout_seconds > 0.0 ? comm.recv_timeout(child, tag, timeout_seconds)
                                               : comm.recv(child, tag);
        ThreadCpuTimer codec;
        {
          obs::TraceSpan cspan("codec.decode", "codec",
                               {{"bytes", static_cast<std::int64_t>(payload.size())}});
          Reader r(payload);
          stats.map_merges += absorb_serialized_map(r, map, merge);
        }
        stats.codec_seconds += codec.seconds();
        BufferPool::release(std::move(payload));
      }
    } else {
      encode_map(map, stats);
      comm.send(group_rank(group, me - dist), tag, std::move(wire_));
      break;
    }
  }
  return me;
}

void MapCombiner::encode_map(const CombinationMap& map, MapCombineStats& stats) {
  ThreadCpuTimer codec;
  prepare_wire();
  {
    obs::TraceSpan cspan("codec.encode", "codec");
    serialize_map(map, wire_);
    cspan.arg("bytes", static_cast<std::int64_t>(wire_.size()));
  }
  stats.codec_seconds += codec.seconds();
  ++stats.map_serializes;
  stats.bytes_encoded += wire_.size();
  if (wire_.size() > wire_hint_) wire_hint_ = wire_.size();
}

simmpi::CollectiveAlgo MapCombiner::plan(simmpi::Communicator& comm, const CombinationMap& map) {
  switch (algorithm_) {
    case Algorithm::kTree:
      return simmpi::CollectiveAlgo::kTree;
    case Algorithm::kRing:
      return simmpi::CollectiveAlgo::kRing;
    case Algorithm::kDirect:
      return simmpi::CollectiveAlgo::kDirect;
    case Algorithm::kAuto:
      break;
  }
  // The tree ties or wins at two ranks (same bytes, fewer messages) and
  // keeps the legacy bit-exact merge schedule, so require a real group.
  if (comm.size() < 3) return simmpi::CollectiveAlgo::kTree;
  const auto estimate =
      have_agreed_footprint_
          ? agreed_footprint_
          : static_cast<std::size_t>(comm.allreduce_max<std::uint64_t>(map_footprint_bytes(map)));
  // Below the measured flat-model crossover the round is codec/latency
  // bound on any topology — the tree's fewer messages and single encode
  // win regardless of link costs, so the crossover acts as a floor and
  // the planner is only consulted above it.
  if (estimate < kDefaultRingCrossoverBytes) return simmpi::CollectiveAlgo::kTree;
  const simmpi::CollectivePlan p = simmpi::CollectivePlanner::plan_allreduce(comm, estimate);
  count_plan(p.algo);
  return p.algo;
}

void MapCombiner::ring_allreduce(simmpi::Communicator& comm, CombinationMap& map,
                                 const MergeFn& merge, MapCombineStats& stats) {
  const int n = comm.size();
  const int rank = comm.rank();
  const int right = (rank + 1) % n;
  const int left = (rank - 1 + n) % n;
  const auto mod = [n](int x) { return ((x % n) + n) % n; };

  // Segment index: one O(keys) pass buckets every key into its segment's
  // ordered list, so each of the n-1 encode steps below walks only the
  // keys it ships — the round's total encode scan is O(keys), not
  // O(keys × segments) as when serialize_map_segment rescans the whole
  // map per step.  absorb_segment keeps the index consistent as incoming
  // payloads insert keys this rank had never seen.
  seg_index_.build(map, n);

  // Reduce-scatter over key segments: at step s this rank ships its
  // partially merged segment (rank - s) and folds the incoming segment
  // (rank - s - 1) into its live map.  After n-1 steps segment (rank + 1)
  // is globally complete here.  Note there is no full-map codec pass: each
  // entry is serialized at most once per hop it travels, and the per-rank
  // traffic is ~2·S·(n-1)/n bytes total regardless of rank count.
  for (int step = 0; step < n - 1; ++step) {
    ThreadCpuTimer encode;
    prepare_wire();
    {
      obs::TraceSpan cspan("codec.encode", "codec");
      seg_index_.serialize_segment(map, mod(rank - step), wire_);
      cspan.arg("bytes", static_cast<std::int64_t>(wire_.size()));
    }
    stats.codec_seconds += encode.seconds();
    stats.bytes_encoded += wire_.size();
    if (wire_.size() > wire_hint_) wire_hint_ = wire_.size();
    comm.send(right, kRingReduceTag - step, std::move(wire_));
    Buffer incoming = comm.recv(left, kRingReduceTag - step);
    ThreadCpuTimer decode;
    {
      obs::TraceSpan cspan("codec.decode", "codec",
                           {{"bytes", static_cast<std::int64_t>(incoming.size())}});
      Reader r(incoming);
      stats.map_merges += seg_index_.absorb_segment(r, map, merge, mod(rank - step - 1));
    }
    stats.codec_seconds += decode.seconds();
    BufferPool::release(std::move(incoming));
  }

  // Allgather: circulate the finished segments.  Only the first payload is
  // encoded; every later step forwards the received bytes verbatim.
  // Incoming entries are the *final* global values for their keys, so they
  // replace (not merge into) this rank's partial ones.  Nothing is encoded
  // from the map after this point, so the plain absorb (which leaves the
  // segment index stale) is fine.
  ThreadCpuTimer encode;
  Buffer circulating = BufferPool::acquire(wire_hint_ / static_cast<std::size_t>(n));
  {
    obs::TraceSpan cspan("codec.encode", "codec");
    seg_index_.serialize_segment(map, mod(rank + 1), circulating);
    cspan.arg("bytes", static_cast<std::int64_t>(circulating.size()));
  }
  stats.codec_seconds += encode.seconds();
  stats.bytes_encoded += circulating.size();
  for (int step = 0; step < n - 1; ++step) {
    comm.send(right, kRingGatherTag - step, std::move(circulating));
    Buffer incoming = comm.recv(left, kRingGatherTag - step);
    ThreadCpuTimer decode;
    {
      obs::TraceSpan cspan("codec.decode", "codec",
                           {{"bytes", static_cast<std::int64_t>(incoming.size())}});
      Reader r(incoming);
      stats.map_merges += absorb_serialized_map(r, map, merge, /*replace_existing=*/true);
    }
    stats.codec_seconds += decode.seconds();
    circulating = std::move(incoming);
  }
  BufferPool::release(std::move(circulating));
}

}  // namespace smart
