#include "simmpi/collective.h"

#include <algorithm>
#include <utility>

#include "simmpi/communicator.h"

namespace smart::simmpi {

namespace {

/// Binomial-tree phase cost: rounds proceed in lockstep, so each round's
/// concurrent edges are priced together (estimate_round_seconds lets
/// edges sharing a physical link serialize) and a full reduce (or bcast —
/// same edge set, other direction) is the sum over rounds.  Edges mirror
/// the schedule in Communicator::reduce and MapCombiner::reduce:
/// at stride d, rank i+d hands its payload to rank i for every
/// i ≡ 0 (mod 2d).
double tree_phase_seconds(const NetworkModel& net, const std::vector<int>& ranks,
                          std::size_t bytes) {
  const int n = static_cast<int>(ranks.size());
  double total = 0.0;
  std::vector<std::pair<int, int>> edges;
  for (int dist = 1; dist < n; dist <<= 1) {
    edges.clear();
    for (int i = 0; i + dist < n; i += 2 * dist) {
      edges.emplace_back(ranks[static_cast<std::size_t>(i + dist)],
                         ranks[static_cast<std::size_t>(i)]);
    }
    total += net.estimate_round_seconds(edges, bytes);
  }
  return total;
}

}  // namespace

CollectivePlan CollectivePlanner::plan_allreduce(const NetworkModel& net,
                                                 const std::vector<int>& world_ranks,
                                                 std::size_t bytes) {
  CollectivePlan plan;
  const int n = static_cast<int>(world_ranks.size());
  if (n < 2) return plan;

  // Tree: binomial reduce + binomial bcast, full payload on every edge.
  const double tree_phase = tree_phase_seconds(net, world_ranks, bytes);
  plan.tree_seconds = 2.0 * tree_phase;

  // Ring: 2(n-1) lockstep steps of a payload/n segment to the right-hand
  // neighbor; every step fires the full neighbor-edge set at once, so a
  // step costs the contended round makespan — two ring neighbors crossing
  // the same tapered link serialize instead of hiding behind a max.
  // (Segments differ by ±1 byte when n doesn't divide bytes; the max
  // segment prices the step.)
  const std::size_t seg = (bytes + static_cast<std::size_t>(n) - 1) / static_cast<std::size_t>(n);
  std::vector<std::pair<int, int>> ring_edges;
  ring_edges.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ring_edges.emplace_back(world_ranks[static_cast<std::size_t>(i)],
                            world_ranks[static_cast<std::size_t>((i + 1) % n)]);
  }
  plan.ring_seconds = 2.0 * (n - 1) * net.estimate_round_seconds(ring_edges, seg);

  // Direct: binomial reduce, then the root ships the shared result to each
  // peer in turn — the sends serialize on the root's own links, so the
  // fan-out is a sum, not a max.
  double fanout = 0.0;
  for (int i = 1; i < n; ++i) {
    fanout += net.estimate_seconds(world_ranks[0], world_ranks[static_cast<std::size_t>(i)],
                                   bytes);
  }
  plan.direct_seconds = tree_phase + fanout;

  // Cheapest wins; ties prefer tree (legacy bit-exact merge schedule),
  // then ring.
  plan.algo = CollectiveAlgo::kTree;
  double best = plan.tree_seconds;
  if (plan.ring_seconds < best) {
    plan.algo = CollectiveAlgo::kRing;
    best = plan.ring_seconds;
  }
  if (plan.direct_seconds < best) plan.algo = CollectiveAlgo::kDirect;
  return plan;
}

CollectivePlan CollectivePlanner::plan_allreduce(const Communicator& comm, std::size_t bytes) {
  const int n = comm.size();
  std::vector<int> world_ranks(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    world_ranks[static_cast<std::size_t>(r)] = comm.peer_world_rank(r);
  }
  return plan_allreduce(comm.network_model(), world_ranks, bytes);
}

}  // namespace smart::simmpi
