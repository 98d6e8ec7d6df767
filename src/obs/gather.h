// Rank-0 gather of trace buffers and metrics registries.
//
// Header-only on purpose: these functions need simmpi::Communicator, but
// smart_simmpi itself links smart_obs (the send/recv instrumentation), so
// the Communicator-dependent pieces live here rather than in the library.
//
// Both gathers are collective over the communicator, thin callers of the
// bounded Communicator::gather_shared, and degrade instead of hanging: a
// rank that died mid-run (simmpi fault injection) or stayed silent past
// `timeout_seconds` comes back as a null slot, is reported in
// `missing_ranks`, and the merged timeline/snapshot still gets written from
// the survivors.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "simmpi/communicator.h"

namespace smart::obs {

/// Collective: every rank ships its slice of the process-global trace to
/// rank 0, which merges (timestamp order) and writes a Chrome-trace JSON
/// file.  Returns true on the root if the file was written; peers return
/// true unconditionally.  Dead/silent peers are recorded into `missing`
/// (root only) after `timeout_seconds` and do not block the export.
inline bool gather_trace_to_rank0(simmpi::Communicator& comm, const std::string& path,
                                  double timeout_seconds = 5.0,
                                  std::vector<int>* missing = nullptr) {
  TraceCollector& tc = TraceCollector::instance();
  // Root keeps its own slice plus events from threads outside any launch
  // (e.g. a main thread that traced setup work).
  std::vector<TraceEvent> events =
      tc.snapshot_events(comm.world_rank(), /*include_unattributed=*/comm.rank() == 0);
  Buffer buf;
  if (comm.rank() != 0) {
    Writer w(buf);
    serialize_events(w, events);
  }
  const auto slices = comm.gather_shared(make_shared_buffer(std::move(buf)), 0, timeout_seconds);
  if (comm.rank() != 0) return true;

  for (int peer = 1; peer < comm.size(); ++peer) {
    const SharedBuffer& slice = slices[static_cast<std::size_t>(peer)];
    if (!slice) {
      if (missing != nullptr) missing->push_back(peer);
      continue;
    }
    Reader r(slice);
    std::vector<TraceEvent> peer_events = deserialize_events(r);
    events.insert(events.end(), std::make_move_iterator(peer_events.begin()),
                  std::make_move_iterator(peer_events.end()));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
  // Ranks are threads of this process, so the process-global drop counter
  // covers every lane that fed the merge.
  return write_chrome_trace_file(path, events, tc.dropped_events());
}

/// Collective: merges per-rank registry snapshots onto rank 0 (counters and
/// histogram buckets sum, gauges max).  Peers return their local snapshot;
/// the root returns the merge, with unreachable peers listed in
/// missing_ranks and ranks_merged counting only reporters.
inline MetricsSnapshot gather_metrics_to_rank0(simmpi::Communicator& comm,
                                               const MetricsRegistry& local,
                                               double timeout_seconds = 5.0) {
  MetricsSnapshot snap = local.snapshot();
  Buffer buf;
  if (comm.rank() != 0) {
    Writer w(buf);
    snap.serialize(w);
  }
  const auto slices = comm.gather_shared(make_shared_buffer(std::move(buf)), 0, timeout_seconds);
  if (comm.rank() != 0) return snap;

  for (int peer = 1; peer < comm.size(); ++peer) {
    const SharedBuffer& slice = slices[static_cast<std::size_t>(peer)];
    if (!slice) {
      snap.missing_ranks.push_back(peer);
      continue;
    }
    Reader r(slice);
    snap.merge(MetricsSnapshot::deserialize(r));
  }
  return snap;
}

}  // namespace smart::obs
