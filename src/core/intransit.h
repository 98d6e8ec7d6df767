// In-transit and hybrid processing on top of Smart (paper Section 6: "Our
// system can be incorporated into these [in-transit/hybrid] platforms").
//
// The world's ranks are split into *simulation* ranks and dedicated
// *staging* ranks (the paper's PreDatA/GLEAN-style arrangement):
//
//   * in-transit: a simulation rank ships each time-step's raw partition to
//     its staging rank; staging ranks run the Smart scheduler on the
//     received blocks and combine among themselves.  The simulation never
//     stops for analytics, at the price of moving the raw data.
//   * hybrid: a simulation rank runs the cheap local reduction itself
//     (global combination off — in-situ half) and ships only its
//     *combination-map snapshot*, which is typically orders of magnitude
//     smaller than the raw step; staging ranks absorb the snapshots and
//     finish the combination (in-transit half).
//
// Cross-staging combination is the scheduler's own global-combination
// round (Scheduler::combine_group) over the staging ranks: MapCombiner's
// binomial reduce and direct fan-out, with RecoveryPolicy's timeouts,
// retries and degradation.  Hybrid snapshot payloads use the map wire
// format (v2 interned-type codec; see core/red_obj.h) and absorb()
// auto-detects the format, so mixed-version payloads decode transparently.
//
// These helpers suit per-step (non-iterative) analytics — histogram, grid
// aggregation, mutual information, window apps.  Iterative apps need the
// analytics loop co-located with the global state and should use the
// built-in time/space-sharing modes.
#pragma once

#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/scheduler.h"
#include "simmpi/world.h"

namespace smart::intransit {

/// Which ranks simulate and which stage.  The last `num_staging` ranks of
/// the world are staging nodes; simulation rank s ships to staging node
/// (s mod num_staging).
struct Topology {
  int world_size = 0;
  int num_staging = 0;

  void validate() const {
    if (num_staging <= 0 || num_staging >= world_size) {
      throw std::invalid_argument("intransit::Topology: need 0 < num_staging < world_size");
    }
  }

  /// validate() for `comm`'s own world: every entry point below checks it
  /// first (num_staging 0 would divide by zero in staging_of).
  void validate(const simmpi::Communicator& comm) const {
    validate();
    if (world_size != comm.size()) {
      throw std::invalid_argument("intransit::Topology: world_size must equal comm.size()");
    }
  }

  int num_sim() const { return world_size - num_staging; }
  bool is_staging(int rank) const { return rank >= num_sim(); }
  int first_staging() const { return num_sim(); }

  /// The staging rank that serves simulation rank `sim_rank`.
  int staging_of(int sim_rank) const { return num_sim() + sim_rank % num_staging; }

  /// The simulation ranks assigned to `staging_rank`.
  std::vector<int> producers_of(int staging_rank) const {
    std::vector<int> out;
    const int idx = staging_rank - num_sim();
    for (int s = idx; s < num_sim(); s += num_staging) out.push_back(s);
    return out;
  }
};

namespace detail {
// One tag carries the whole producer->staging stream (a kind byte leads
// each payload), so a staging rank draining its producers can never steal
// a peer's combination message; combination runs on MapCombiner's tags.
constexpr int kStreamTag = 400;

enum class Kind : std::uint8_t { kRaw = 1, kSnapshot = 2, kEnd = 3 };
}  // namespace detail

// --- simulation-rank side ----------------------------------------------------

/// In-transit: ship one raw time-step partition to this rank's staging node.
template <typename In>
void ship_raw_step(simmpi::Communicator& comm, const Topology& topo, const In* data,
                   std::size_t len) {
  topo.validate(comm);
  Buffer buf;
  Writer w(buf);
  w.write(detail::Kind::kRaw);
  w.write_span(data, len);
  comm.send(topo.staging_of(comm.rank()), detail::kStreamTag, std::move(buf));
}

/// Hybrid: run the local half in situ and ship only the combination-map
/// snapshot.  The scheduler must have global combination off (there is no
/// world-wide analytics collective in this mode).
template <typename In, typename Out>
void ship_local_result(simmpi::Communicator& comm, const Topology& topo,
                       Scheduler<In, Out>& sched, const In* data, std::size_t len) {
  topo.validate(comm);
  if (sched.global_combination()) {
    throw std::logic_error("intransit::ship_local_result: turn off global combination");
  }
  sched.run(data, len, nullptr, 0);
  Buffer buf;
  Writer(buf).write(detail::Kind::kSnapshot);
  // Serialize straight after the kind byte — no intermediate snapshot copy.
  sched.append_snapshot(buf);
  comm.send(topo.staging_of(comm.rank()), detail::kStreamTag, std::move(buf));
}

/// Signals this simulation rank's end of stream to its staging node.
inline void ship_end(simmpi::Communicator& comm, const Topology& topo) {
  topo.validate(comm);
  Buffer buf;
  Writer(buf).write(detail::Kind::kEnd);
  comm.send(topo.staging_of(comm.rank()), detail::kStreamTag, std::move(buf));
}

// --- staging-rank side ---------------------------------------------------------

/// Drains the assigned simulation ranks on a staging node, feeding each
/// received block (in-transit) or snapshot (hybrid) into the scheduler.
/// Returns the number of payloads processed.  The scheduler must have
/// global combination off and — when raw blocks arrive —
/// RunOptions::accumulate_across_runs on, so the per-block runs fold into
/// one result (enforced: each run() clears the map, so without it only the
/// last block would survive, silently).  Call combine_across_staging()
/// afterwards for the cross-staging result.
///
/// With a fault-tolerant RecoveryPolicy on the scheduler (peer timeout
/// > 0) the drain is fault-tolerant: when the stream goes silent past the
/// timeout, producers that have died are treated as having sent their
/// end-of-stream marker (their already-delivered payloads still count), so
/// one dead simulation rank cannot hang its staging node.  Silence without
/// a death still raises simmpi::PeerUnreachable.
template <typename In, typename Out>
std::size_t stage_all(simmpi::Communicator& comm, const Topology& topo, Scheduler<In, Out>& sched) {
  topo.validate(comm);
  if (sched.global_combination()) {
    throw std::logic_error("intransit::stage_all: turn off global combination");
  }
  const double peer_timeout_seconds = sched.recovery_policy().peer_timeout_seconds;
  std::size_t processed = 0;
  std::vector<int> open = topo.producers_of(comm.rank());
  while (!open.empty()) {
    int source = simmpi::kAnySource;
    Buffer payload;
    if (peer_timeout_seconds > 0.0) {
      try {
        payload = comm.recv_timeout(simmpi::kAnySource, detail::kStreamTag, peer_timeout_seconds,
                                    &source);
      } catch (const simmpi::PeerUnreachable&) {
        // Reassign dead producers' stream ends: a producer that died can
        // never send kEnd, so close its stream for it.
        const auto dead = std::erase_if(open, [&](int p) { return !comm.peer_alive(p); });
        if (dead == 0) throw;  // everyone is alive — a genuine stall
        if (obs::trace_enabled()) {
          obs::TraceCollector::instance().instant(
              "stage.dead_producer", "intransit",
              {{"closed", static_cast<std::int64_t>(dead)}});
        }
        continue;
      }
    } else {
      payload = comm.recv(simmpi::kAnySource, detail::kStreamTag, &source);
    }
    obs::TraceSpan payload_span("stage.payload", "intransit",
                                {{"source", source},
                                 {"bytes", static_cast<std::int64_t>(payload.size())}});
    Reader r(payload);
    switch (r.template read<detail::Kind>()) {
      case detail::Kind::kEnd:
        std::erase(open, source);
        break;
      case detail::Kind::kRaw: {
        if (!sched.options().accumulate_across_runs) {
          throw std::logic_error(
              "intransit::stage_all: raw blocks need RunOptions::accumulate_across_runs "
              "(each run() clears the map, so only the last block would survive)");
        }
        const std::vector<In> block = r.template read_vector<In>();
        sched.run(block.data(), block.size(), nullptr, 0);
        ++processed;
        break;
      }
      case detail::Kind::kSnapshot: {
        // The reader sits just past the kind byte: absorb entries straight
        // from the wire payload into the live map (single-pass, no copy).
        sched.absorb(r);
        ++processed;
        break;
      }
      default:
        throw std::runtime_error("intransit::stage_all: corrupt stream payload");
    }
  }
  return processed;
}

/// Merges the combination maps of all staging ranks in one round of the
/// scheduler's global combination over them (Scheduler::combine_group);
/// every staging rank ends holding the global map.  Must be called by
/// every staging rank (and only them).  Under a fault-tolerant
/// RecoveryPolicy dead staging ranks drop out of the rebuilt tree (a dead
/// first staging rank hands the root to the first survivor), and their
/// partial results are lost with them.
template <typename In, typename Out>
void combine_across_staging(simmpi::Communicator& comm, const Topology& topo,
                            Scheduler<In, Out>& sched) {
  topo.validate(comm);
  obs::TraceSpan span("stage.combine", "intransit");
  std::vector<int> staging(static_cast<std::size_t>(topo.num_staging));
  std::iota(staging.begin(), staging.end(), topo.first_staging());
  sched.combine_group(comm, staging);
}

}  // namespace smart::intransit
