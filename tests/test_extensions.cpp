// Tests for the time/space-sharing mode advisor.
#include <gtest/gtest.h>

#include "core/advisor.h"

namespace smart {
namespace {

NodeModel phi_model() {
  NodeModel node;
  node.cores = 60;
  node.sim_speedup = [](int t) { return t / (1.0 + 0.05 * (t - 1)); };
  node.ana_speedup = [](int t) { return t / (1.0 + 0.02 * (t - 1)); };
  return node;
}

TEST(Advisor, SyncHeavyWorkloadStaysTimeSharing) {
  // Histogram-like: tiny analytics but frequent synchronization — the
  // doubled (serialized-MPI) sync in space mode outweighs the overlap gain
  // (the paper's Section 5.6 finding).
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 0.02,
                  .sync_seconds_per_step = 0.1};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kTimeSharing);
  EXPECT_NE(rec.to_string().find("time sharing"), std::string::npos);
}

TEST(Advisor, ComputeHeavyAnalyticsPrefersSpaceSharing) {
  // Moving-median-like: analytics compute rivals the simulation, no sync.
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 2.0,
                  .sync_seconds_per_step = 0.0};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kSpaceSharing);
  EXPECT_GT(rec.advantage(), 0.1);
  EXPECT_GT(rec.sim_cores, 0);
  EXPECT_GT(rec.analytics_cores, 0);
  EXPECT_EQ(rec.sim_cores + rec.analytics_cores, 60);
}

TEST(Advisor, BalancedSplitForBalancedLoad) {
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 1.0,
                  .sync_seconds_per_step = 0.0};
  const auto rec = advise_mode(costs, phi_model());
  EXPECT_EQ(rec.mode, ModeRecommendation::Mode::kSpaceSharing);
  // The simulation scales worse (larger serial fraction), so the balance
  // point gives it the majority of the cores — but not all of them.
  EXPECT_GT(rec.sim_cores, 30);
  EXPECT_LT(rec.sim_cores, 55);
}

TEST(Advisor, SyncInflationCanFlipTheDecision) {
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 0.4,
                  .sync_seconds_per_step = 0.05};
  NodeModel cheap_sync = phi_model();
  cheap_sync.space_sync_factor = 1.0;
  NodeModel dear_sync = phi_model();
  dear_sync.space_sync_factor = 20.0;
  const auto cheap = advise_mode(costs, cheap_sync);
  const auto dear = advise_mode(costs, dear_sync);
  EXPECT_EQ(cheap.mode, ModeRecommendation::Mode::kSpaceSharing);
  EXPECT_EQ(dear.mode, ModeRecommendation::Mode::kTimeSharing);
}

TEST(Advisor, RecommendationIsPricedByTheCostFunctions) {
  // Figure 10 prices its rows with these two functions; the recommendation
  // must be the minimum over exactly those prices.
  ModeCosts costs{.sim_seconds_per_step = 1.0,
                  .ana_seconds_per_step = 0.4,
                  .sync_seconds_per_step = 0.01};
  const NodeModel node = phi_model();
  const auto rec = advise_mode(costs, node);
  EXPECT_EQ(rec.time_sharing_seconds, time_sharing_seconds(costs, node));
  EXPECT_EQ(rec.best_space_seconds, space_sharing_seconds(costs, node, rec.sim_cores));
  for (int sim_cores = 1; sim_cores < node.cores; ++sim_cores) {
    EXPECT_GE(space_sharing_seconds(costs, node, sim_cores), rec.best_space_seconds);
  }
}

TEST(Advisor, RejectsDegenerateInput) {
  ModeCosts costs{};
  NodeModel tiny = phi_model();
  tiny.cores = 1;
  EXPECT_THROW(advise_mode(costs, tiny), std::invalid_argument);
  NodeModel no_curves;
  no_curves.cores = 8;
  EXPECT_THROW(advise_mode(costs, no_curves), std::invalid_argument);
}

}  // namespace
}  // namespace smart
