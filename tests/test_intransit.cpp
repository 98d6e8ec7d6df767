// Tests for the in-transit / hybrid processing extension (core/intransit.h)
// and the simmpi collectives next to it (scatter_shared, alltoall_shared).
#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/histogram.h"
#include "analytics/mutual_information.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "core/intransit.h"
#include "obs/trace.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using namespace analytics;

TEST(Topology, SplitsAndAssignsRanks) {
  intransit::Topology topo{.world_size = 6, .num_staging = 2};
  topo.validate();
  EXPECT_EQ(topo.num_sim(), 4);
  EXPECT_FALSE(topo.is_staging(3));
  EXPECT_TRUE(topo.is_staging(4));
  EXPECT_TRUE(topo.is_staging(5));
  EXPECT_EQ(topo.staging_of(0), 4);
  EXPECT_EQ(topo.staging_of(1), 5);
  EXPECT_EQ(topo.staging_of(2), 4);
  EXPECT_EQ(topo.producers_of(4), (std::vector<int>{0, 2}));
  EXPECT_EQ(topo.producers_of(5), (std::vector<int>{1, 3}));
}

TEST(Topology, RejectsDegenerateSplits) {
  intransit::Topology none{.world_size = 4, .num_staging = 0};
  EXPECT_THROW(none.validate(), std::invalid_argument);
  intransit::Topology all{.world_size = 4, .num_staging = 4};
  EXPECT_THROW(all.validate(), std::invalid_argument);
}

TEST(Simmpi, ScatterDeliversPerRankChunks) {
  simmpi::launch(4, [](simmpi::Communicator& comm) {
    std::vector<SharedBuffer> chunks;
    if (comm.rank() == 1) {
      for (int r = 0; r < 4; ++r) {
        Buffer b;
        Writer(b).write(r * 100);
        chunks.push_back(make_shared_buffer(std::move(b)));
      }
    }
    const SharedBuffer mine = comm.scatter_shared(chunks, 1);
    EXPECT_EQ(Reader(mine).read<int>(), comm.rank() * 100);
  });
}

TEST(Simmpi, AlltoallExchangesEverything) {
  simmpi::launch(3, [](simmpi::Communicator& comm) {
    std::vector<SharedBuffer> sends;
    for (int r = 0; r < 3; ++r) {
      Buffer b;
      Writer(b).write(comm.rank() * 10 + r);
      sends.push_back(make_shared_buffer(std::move(b)));
    }
    const auto recvs = comm.alltoall_shared(sends);
    ASSERT_EQ(recvs.size(), 3u);
    for (int src = 0; src < 3; ++src) {
      EXPECT_EQ(Reader(recvs[static_cast<std::size_t>(src)]).read<int>(),
                src * 10 + comm.rank());
    }
  });
}

TEST(InTransit, RawShippingMatchesSerialHistogram) {
  // 3 sim ranks + 1 staging rank; the staged histogram over all shipped
  // steps equals the serial histogram over the concatenated data.
  constexpr int kWorld = 4;
  const intransit::Topology topo{.world_size = kWorld, .num_staging = 1};
  constexpr int kSteps = 3;
  constexpr std::size_t kLen = 2000;

  // Deterministic per-(rank, step) payloads.
  auto payload = [&](int rank, int step) {
    Rng rng(derive_seed(500, static_cast<std::uint64_t>(rank * 10 + step)));
    std::vector<double> v(kLen);
    for (auto& x : v) x = rng.uniform(0.0, 100.0);
    return v;
  };
  std::vector<double> all;
  for (int r = 0; r < topo.num_sim(); ++r) {
    for (int s = 0; s < kSteps; ++s) {
      const auto v = payload(r, s);
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  const auto expected = ref::histogram(all.data(), all.size(), 0.0, 100.0, 16);

  simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
    if (!topo.is_staging(comm.rank())) {
      for (int s = 0; s < kSteps; ++s) {
        const auto v = payload(comm.rank(), s);
        intransit::ship_raw_step(comm, topo, v.data(), v.size());
      }
      intransit::ship_end(comm, topo);
    } else {
      RunOptions acc;
      acc.accumulate_across_runs = true;
      Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16, acc);
      hist.set_global_combination(false);
      const std::size_t n = intransit::stage_all(comm, topo, hist);
      EXPECT_EQ(n, static_cast<std::size_t>(kSteps * topo.num_sim()));
      std::vector<std::size_t> out(16, 0);
      hist.run(nullptr, 0, out.data(), out.size());
      EXPECT_EQ(out, expected);
    }
  });
}

TEST(InTransit, HybridSnapshotsMatchSerialHistogram) {
  // Hybrid: sim ranks reduce locally and ship only snapshots.  Three
  // staging ranks over two producers leave one staging rank with nothing
  // to drain; it still takes part in the combination round.
  constexpr int kWorld = 5;
  constexpr std::size_t kLen = 3000;

  auto payload = [&](int rank) {
    Rng rng(derive_seed(600, static_cast<std::uint64_t>(rank)));
    std::vector<double> v(kLen);
    for (auto& x : v) x = rng.uniform(0.0, 100.0);
    return v;
  };
  for (const int num_staging : {1, 2, 3}) {
    const intransit::Topology topo{.world_size = kWorld, .num_staging = num_staging};
    std::vector<double> all;
    for (int r = 0; r < topo.num_sim(); ++r) {
      const auto v = payload(r);
      all.insert(all.end(), v.begin(), v.end());
    }
    const auto expected = ref::histogram(all.data(), all.size(), 0.0, 100.0, 10);

    simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
      if (!topo.is_staging(comm.rank())) {
        Histogram<double> local(SchedArgs(2, 1), 0.0, 100.0, 10);
        local.set_global_combination(false);
        const auto v = payload(comm.rank());
        intransit::ship_local_result(comm, topo, local, v.data(), v.size());
        intransit::ship_end(comm, topo);
      } else {
        Histogram<double> staged(SchedArgs(1, 1), 0.0, 100.0, 10);
        staged.set_global_combination(false);
        (void)intransit::stage_all(comm, topo, staged);
        intransit::combine_across_staging(comm, topo, staged);
        // Every staging rank ends with the global histogram.
        std::vector<std::size_t> out(10, 0);
        staged.convert_combination_map(out.data(), out.size());
        EXPECT_EQ(out, expected) << "staging rank " << comm.rank() << " of " << num_staging;
      }
    });
  }
}

TEST(InTransit, StagingRoundIsTheSchedulersCombinationRound) {
  // The cross-staging merge is one global-combination round of the
  // scheduler: RunStats counts it, and its combine.* span nests inside
  // the stage.combine span of the same rank.  Nobody died, so the span
  // carries no "survivors" (the profiler would bill it as recovery).
  struct TraceOn {
    TraceOn() {
      obs::TraceCollector::instance().clear();
      obs::TraceCollector::instance().set_enabled(true);
    }
    ~TraceOn() {
      obs::TraceCollector::instance().set_enabled(false);
      obs::TraceCollector::instance().clear();
    }
  } trace_on;
  const intransit::Topology topo{.world_size = 5, .num_staging = 3};
  std::vector<RunStats> stats(5);
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    if (!topo.is_staging(comm.rank())) {
      Histogram<double> local(SchedArgs(1, 1), 0.0, 1.0, 4);
      local.set_global_combination(false);
      const std::vector<double> v = {0.1, 0.4, 0.6, 0.9};
      intransit::ship_local_result(comm, topo, local, v.data(), v.size());
      intransit::ship_end(comm, topo);
      return;
    }
    Histogram<double> staged(SchedArgs(1, 1), 0.0, 1.0, 4);
    staged.set_global_combination(false);
    (void)intransit::stage_all(comm, topo, staged);
    intransit::combine_across_staging(comm, topo, staged);
    stats[static_cast<std::size_t>(comm.rank())] = staged.stats();
  });
  obs::TraceCollector::instance().set_enabled(false);

  for (int r = topo.first_staging(); r < topo.world_size; ++r) {
    const RunStats& s = stats[static_cast<std::size_t>(r)];
    EXPECT_EQ(s.global_combinations, 1u) << "rank " << r;
    EXPECT_GT(s.wire_bytes, 0u) << "rank " << r;
  }
  const auto events = obs::TraceCollector::instance().snapshot_events();
  std::vector<int> nested_ranks;
  for (const auto& outer : events) {
    if (outer.name != "stage.combine") continue;
    for (const auto& inner : events) {
      if (inner.rank == outer.rank && inner.name.rfind("combine.", 0) == 0 &&
          inner.ts_us >= outer.ts_us &&
          inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us) {
        for (std::uint8_t i = 0; i < inner.num_args; ++i) {
          EXPECT_NE(inner.arg_key[i], "survivors") << "rank " << inner.rank;
        }
        nested_ranks.push_back(outer.rank);
        break;
      }
    }
  }
  std::sort(nested_ranks.begin(), nested_ranks.end());
  EXPECT_EQ(nested_ranks, (std::vector<int>{2, 3, 4}));
}

TEST(InTransit, EntryPointsRejectDegenerateTopologies) {
  // num_staging 0 would divide by zero in staging_of and never end
  // producers_of; num_staging == world_size leaves nobody to simulate;
  // a world_size that is not the communicator's describes another world.
  simmpi::launch(2, [](simmpi::Communicator& comm) {
    const std::vector<double> v = {1.0, 2.0};
    Histogram<double> hist(SchedArgs(1, 1), 0.0, 4.0, 4);
    hist.set_global_combination(false);
    for (const intransit::Topology topo : {intransit::Topology{.world_size = 2, .num_staging = 0},
                                           intransit::Topology{.world_size = 2, .num_staging = 2},
                                           intransit::Topology{.world_size = 3, .num_staging = 1}}) {
      EXPECT_THROW(intransit::ship_raw_step(comm, topo, v.data(), v.size()), std::invalid_argument)
          << "num_staging " << topo.num_staging << ", world_size " << topo.world_size;
      EXPECT_THROW((void)intransit::stage_all(comm, topo, hist), std::invalid_argument)
          << "num_staging " << topo.num_staging << ", world_size " << topo.world_size;
    }
  });
}

TEST(InTransit, HybridShipsFarLessThanRaw) {
  // The point of hybrid mode: snapshot traffic << raw traffic.
  constexpr int kWorld = 3;
  const intransit::Topology topo{.world_size = kWorld, .num_staging = 1};
  constexpr std::size_t kLen = 50000;

  auto run = [&](bool hybrid) {
    return simmpi::launch(kWorld, [&](simmpi::Communicator& comm) {
      if (!topo.is_staging(comm.rank())) {
        Rng rng(derive_seed(700, static_cast<std::uint64_t>(comm.rank())));
        std::vector<double> v(kLen);
        for (auto& x : v) x = rng.uniform(0.0, 1.0);
        if (hybrid) {
          Histogram<double> local(SchedArgs(1, 1), 0.0, 1.0, 8);
          local.set_global_combination(false);
          intransit::ship_local_result(comm, topo, local, v.data(), v.size());
        } else {
          intransit::ship_raw_step(comm, topo, v.data(), v.size());
        }
        intransit::ship_end(comm, topo);
      } else {
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> staged(SchedArgs(1, 1), 0.0, 1.0, 8, acc);
        staged.set_global_combination(false);
        (void)intransit::stage_all(comm, topo, staged);
      }
    });
  };
  const auto raw = run(false);
  const auto hybrid = run(true);
  EXPECT_LT(hybrid.total_bytes_sent() * 100, raw.total_bytes_sent())
      << "snapshots should be >100x smaller than raw steps here";
}

TEST(InTransit, StageAllRejectsGlobalCombination) {
  const intransit::Topology topo{.world_size = 2, .num_staging = 1};
  simmpi::launch(2, [&](simmpi::Communicator& comm) {
    if (topo.is_staging(comm.rank())) {
      Histogram<double> hist(SchedArgs(1, 1), 0.0, 1.0, 4);
      EXPECT_THROW((void)intransit::stage_all(comm, topo, hist), std::logic_error);
    } else {
      intransit::ship_end(comm, topo);  // keep the staging mailbox clean
    }
  });
}

}  // namespace
}  // namespace smart
