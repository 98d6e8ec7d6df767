// Mode advisor: operationalizes the paper's Section 5.6 conclusion —
// "space sharing mode can be advantageous when a simulation program does
// not scale well with increasing number of cores, but it is not a good fit
// for the applications involving frequent synchronization."
//
// Given measured per-step costs (simulation compute, analytics compute,
// synchronization) and the node's scaling curves, the advisor evaluates
// time sharing against every candidate core split and recommends a mode.
// The Figure 10 harness prices its rows with the same two cost functions,
// and a deployment can call advise_mode after a few profiled steps.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace smart {

struct ModeCosts {
  double sim_seconds_per_step = 0.0;   ///< single-thread simulation compute
  double ana_seconds_per_step = 0.0;   ///< single-thread analytics compute
  double sync_seconds_per_step = 0.0;  ///< cross-rank combination cost
};

struct NodeModel {
  int cores = 0;
  /// Speedup of the simulation/analytics on t cores.
  std::function<double(int)> sim_speedup;
  std::function<double(int)> ana_speedup;
  /// Synchronization inflation when sim and analytics tasks must serialize
  /// their message passing (space sharing); the paper's single-threaded-MPI
  /// effect.  2.0 by default.
  double space_sync_factor = 2.0;
};

struct ModeRecommendation {
  enum class Mode { kTimeSharing, kSpaceSharing } mode = Mode::kTimeSharing;
  int sim_cores = 0;       ///< meaningful for space sharing
  int analytics_cores = 0; ///< meaningful for space sharing
  double time_sharing_seconds = 0.0;
  double best_space_seconds = 0.0;
  /// Positive when space sharing wins, as a fraction of time sharing.
  double advantage() const {
    return (time_sharing_seconds - best_space_seconds) / time_sharing_seconds;
  }
  std::string to_string() const;
};

/// Seconds per step under time sharing: the simulation and the analytics
/// each take all of the node's cores in turn, then synchronize.
double time_sharing_seconds(const ModeCosts& costs, const NodeModel& node);

/// Seconds per step under space sharing with `sim_cores` of the node's
/// cores on the simulation and the rest on the analytics: the slower of
/// the two concurrent lanes, the analytics lane paying the inflated sync.
double space_sharing_seconds(const ModeCosts& costs, const NodeModel& node, int sim_cores);

/// Evaluates time sharing vs every (sim_cores, ana_cores) split with both
/// counts >= min_cores_per_side and recommends the cheaper mode.
ModeRecommendation advise_mode(const ModeCosts& costs, const NodeModel& node,
                               int min_cores_per_side = 1);

}  // namespace smart
