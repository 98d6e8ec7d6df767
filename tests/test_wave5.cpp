// Tests for the single-pass combination wave: Writer buffer-reuse
// primitives (position/patch/reserve), MapCombiner segment helpers and
// algorithm consensus, the ring allreduce against the tree across shapes
// and at degenerate key counts, CircularBuffer close semantics, and RFC
// 4180 CSV output from the phase tracer.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "analytics/red_objs.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/map_combiner.h"
#include "core/red_obj.h"
#include "obs/trace.h"
#include "simmpi/world.h"
#include "threading/circular_buffer.h"

namespace smart {
namespace {

// --- Writer buffer reuse ----------------------------------------------------

TEST(Writer, AppendsIntoExistingBuffer) {
  Buffer buf;
  Writer(buf).write<std::uint32_t>(7);
  const std::size_t first = buf.size();
  // A second writer appends — it never truncates what is already there.
  Writer w(buf);
  w.write<std::uint32_t>(9);
  EXPECT_EQ(buf.size(), 2 * first);
  Reader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 7u);
  EXPECT_EQ(r.read<std::uint32_t>(), 9u);
}

TEST(Writer, PatchOverwritesPlaceholder) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint16_t>(0xAAAA);
  const std::size_t pos = w.position();
  w.write<std::uint64_t>(0);  // placeholder count
  w.write<std::uint16_t>(0xBBBB);
  w.patch<std::uint64_t>(pos, 42);

  Reader r(buf);
  EXPECT_EQ(r.read<std::uint16_t>(), 0xAAAA);
  EXPECT_EQ(r.read<std::uint64_t>(), 42u);
  EXPECT_EQ(r.read<std::uint16_t>(), 0xBBBB);
}

TEST(Writer, PatchPastEndThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint32_t>(1);
  EXPECT_THROW(w.patch<std::uint64_t>(1, 0), std::out_of_range);
}

TEST(Writer, ReserveKeepsContents) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint32_t>(5);
  w.reserve(1 << 16);
  w.write<std::uint32_t>(6);
  EXPECT_GE(buf.capacity(), (1u << 16));
  Reader r(buf);
  EXPECT_EQ(r.read<std::uint32_t>(), 5u);
  EXPECT_EQ(r.read<std::uint32_t>(), 6u);
}

// --- map segment helpers and absorb ----------------------------------------

CombinationMap bucket_map(const std::vector<std::pair<int, std::size_t>>& entries) {
  analytics::register_red_objs();
  CombinationMap map;
  for (const auto& [key, count] : entries) {
    auto obj = std::make_unique<analytics::Bucket>();
    obj->count = count;
    obj->set_key(key);
    map.emplace(key, std::move(obj));
  }
  return map;
}

MergeFn bucket_merge() {
  return [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<analytics::Bucket&>(*com).count +=
        static_cast<const analytics::Bucket&>(red).count;
  };
}

std::size_t count_of(const CombinationMap& map, int key) {
  return static_cast<const analytics::Bucket&>(*map.at(key)).count;
}

TEST(MapSegments, FloorModuloCoversNegativeKeys) {
  EXPECT_EQ(map_segment_of(0, 4), 0);
  EXPECT_EQ(map_segment_of(5, 4), 1);
  EXPECT_EQ(map_segment_of(-1, 4), 3);
  EXPECT_EQ(map_segment_of(-4, 4), 0);
}

TEST(MapSegments, SegmentsPartitionTheMap) {
  const auto map = bucket_map({{-2, 1}, {0, 2}, {1, 3}, {5, 4}, {9, 5}});
  const int nseg = 3;
  std::size_t restored_entries = 0;
  CombinationMap restored;
  for (int s = 0; s < nseg; ++s) {
    Buffer seg;
    serialize_map_segment(map, s, nseg, seg);
    Reader r(seg);
    restored_entries += absorb_serialized_map(r, restored, bucket_merge());
  }
  EXPECT_EQ(restored_entries, map.size());  // every entry lands in exactly one segment
  ASSERT_EQ(restored.size(), map.size());
  for (const auto& [key, obj] : map) EXPECT_EQ(count_of(restored, key), count_of(map, key));
}

TEST(AbsorbSerializedMap, MergesExistingAndReplacesWhenAsked) {
  const auto src = bucket_map({{1, 10}, {2, 20}});
  Buffer wire;
  serialize_map(src, wire);

  auto merged = bucket_map({{1, 1}, {3, 3}});
  Reader r1(wire);
  // Returns the number of wire entries absorbed (merged or inserted).
  EXPECT_EQ(absorb_serialized_map(r1, merged, bucket_merge()), 2u);
  EXPECT_EQ(count_of(merged, 1), 11u);
  EXPECT_EQ(count_of(merged, 2), 20u);
  EXPECT_EQ(count_of(merged, 3), 3u);

  auto replaced = bucket_map({{1, 1}, {3, 3}});
  Reader r2(wire);
  absorb_serialized_map(r2, replaced, bucket_merge(), /*replace_existing=*/true);
  EXPECT_EQ(count_of(replaced, 1), 10u);  // overwritten, not summed
  EXPECT_EQ(count_of(replaced, 3), 3u);
}

// --- MapCombiner ------------------------------------------------------------

TEST(MapCombiner, AutoConsensusSurvivesUnevenLocalMaps) {
  // Rank footprints straddle the crossover: without the scalar consensus,
  // ranks would pick different algorithms and deadlock or corrupt state.
  const int nranks = 4;
  const int keys_per_rank = 1000;
  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    std::vector<std::pair<int, std::size_t>> entries;
    // Rank r contributes keys 0..(1000*(r+1))-1 — very different map sizes.
    for (int key = 0; key < keys_per_rank * (comm.rank() + 1); ++key) {
      entries.emplace_back(key, static_cast<std::size_t>(comm.rank() + 1));
    }
    auto map = bucket_map(entries);
    if (comm.rank() == 0) {
      EXPECT_LT(map_footprint_bytes(map), MapCombiner::kDefaultRingCrossoverBytes);
    }
    if (comm.rank() == nranks - 1) {
      EXPECT_GT(map_footprint_bytes(map), MapCombiner::kDefaultRingCrossoverBytes);
    }
    MapCombiner combiner(MapCombiner::Algorithm::kAuto);
    combiner.allreduce(comm, map, bucket_merge());

    // Every rank ends with the identical global map.
    const int total_keys = keys_per_rank * nranks;
    ASSERT_EQ(map.size(), static_cast<std::size_t>(total_keys));
    for (int key = 0; key < total_keys; ++key) {
      std::size_t expected = 0;
      for (int r = 0; r < nranks; ++r) {
        if (key < keys_per_rank * (r + 1)) expected += static_cast<std::size_t>(r + 1);
      }
      ASSERT_EQ(count_of(map, key), expected) << "rank " << comm.rank() << " key " << key;
    }
  });
}

TEST(MapCombiner, TwoRankAutoStaysOnTree) {
  // A map above the crossover floor: only the group-size rule keeps it
  // off the planner.
  simmpi::launch(2, [&](simmpi::Communicator& comm) {
    std::vector<std::pair<int, std::size_t>> entries;
    for (int key = 0; key < 8000; ++key) entries.emplace_back(key, 1);
    auto map = bucket_map(entries);
    MapCombiner combiner(MapCombiner::Algorithm::kAuto);
    const auto stats = combiner.allreduce(comm, map, bucket_merge());
    EXPECT_STREQ(stats.algorithm, "tree");  // a 2-rank "ring" is just a worse tree
    ASSERT_EQ(map.size(), 8000u);
    EXPECT_EQ(count_of(map, 0), 2u);
  });
}

TEST(MapCombiner, RingHandlesFewerKeysThanRanks) {
  // 5 ranks, 2 distinct keys: most ring segments are empty every step.
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    auto map = bucket_map({{0, 1}, {1, static_cast<std::size_t>(comm.rank())}});
    MapCombiner combiner(MapCombiner::Algorithm::kRing);
    combiner.allreduce(comm, map, bucket_merge());
    ASSERT_EQ(map.size(), 2u);
    EXPECT_EQ(count_of(map, 0), 5u);
    EXPECT_EQ(count_of(map, 1), 0u + 1 + 2 + 3 + 4);
  });
}

TEST(MapCombiner, DirectMatchesTreeResult) {
  // Forced direct: binomial reduce to rank 0, then a shared-result
  // fan-out.  The merge schedule is bit-identical to the tree's, so the
  // global map must match what the other algorithms produce.
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    auto map = bucket_map({{comm.rank(), 1}, {99, 2}});
    MapCombiner combiner(MapCombiner::Algorithm::kDirect);
    const auto stats = combiner.allreduce(comm, map, bucket_merge());
    EXPECT_STREQ(stats.algorithm, "direct");
    ASSERT_EQ(map.size(), 6u);
    for (int r = 0; r < 5; ++r) EXPECT_EQ(count_of(map, r), 1u);
    EXPECT_EQ(count_of(map, 99), 10u);
  });
}

TEST(MapCombiner, GroupRoundSkipsAbsentRankAndTagsSurvivors) {
  // A degraded round over ranks {0,1,3,4} of 5: rank 2 never calls, so
  // the binomial reduce and the direct fan-out are rebuilt over the group.
  // Only that round's combine.ft_tree span carries "survivors" (the
  // critical-path profiler files exactly those spans under recovery); the
  // full-group fault-tolerant round before it must not.
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
  const std::vector<int> group = {0, 1, 3, 4};
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    const auto own = static_cast<std::size_t>(comm.rank() + 1);
    MapCombiner combiner;
    combiner.begin_recovery_round();
    auto full = bucket_map({{comm.rank(), 1}, {99, own}});
    combiner.allreduce(comm, full, bucket_merge(), /*peer_timeout_seconds=*/30.0);
    EXPECT_EQ(full.size(), 6u);
    EXPECT_EQ(count_of(full, 99), 1u + 2 + 3 + 4 + 5);
    if (comm.rank() == 2) return;

    combiner.begin_recovery_round();
    auto map = bucket_map({{comm.rank(), 1}, {99, own}});
    const auto stats =
        combiner.allreduce(comm, map, bucket_merge(), /*peer_timeout_seconds=*/30.0, group);
    EXPECT_STREQ(stats.algorithm, "ft_tree");
    ASSERT_EQ(map.size(), 5u);
    for (const int r : group) EXPECT_EQ(count_of(map, r), 1u);
    EXPECT_EQ(map.find(2), map.end());
    EXPECT_EQ(count_of(map, 99), 1u + 2 + 4 + 5);
  });
  obs::TraceCollector::instance().set_enabled(false);

  int full_spans = 0;
  int group_spans = 0;
  for (const auto& e : obs::TraceCollector::instance().snapshot_events()) {
    if (e.name != "combine.ft_tree") continue;
    const std::int64_t* survivors = nullptr;
    for (std::uint8_t i = 0; i < e.num_args; ++i) {
      if (e.arg_key[i] == "survivors") survivors = &e.arg_val[i];
    }
    if (survivors == nullptr) {
      ++full_spans;
    } else {
      EXPECT_EQ(*survivors, 4);
      ++group_spans;
    }
  }
  EXPECT_EQ(full_spans, 5);
  EXPECT_EQ(group_spans, 4);
}

TEST(MapCombiner, AutoPlansRingOnTorusForLargeMaps) {
  // Above the codec crossover floor, auto defers to CollectivePlanner.
  // On a 1D torus every ring edge is a one-hop neighbor link shipping
  // bytes/n, while tree strides pay multi-hop paths at the full payload —
  // the planner must pick the ring, and every rank must agree on it.
  simmpi::NetworkConfig cfg;
  cfg.model = "torus";
  cfg.ranks_per_node = 1;
  cfg.torus_x = 4;
  cfg.torus_y = 1;
  cfg.torus_z = 1;
  const int nranks = 4;
  simmpi::launch(
      nranks,
      [&](simmpi::Communicator& comm) {
        std::vector<std::pair<int, std::size_t>> entries;
        for (int key = 0; key < 8000; ++key) {
          entries.emplace_back(key, static_cast<std::size_t>(comm.rank() + 1));
        }
        auto map = bucket_map(entries);
        MapCombiner combiner(MapCombiner::Algorithm::kAuto);
        const auto stats = combiner.allreduce(comm, map, bucket_merge());
        EXPECT_STREQ(stats.algorithm, "ring");
        ASSERT_EQ(map.size(), 8000u);
        ASSERT_EQ(count_of(map, 0), 1u + 2 + 3 + 4);
      },
      cfg);
}

TEST(MapCombiner, EmptyMapsCombineToEmpty) {
  simmpi::launch(3, [&](simmpi::Communicator& comm) {
    CombinationMap map;
    MapCombiner combiner(MapCombiner::Algorithm::kRing);
    combiner.allreduce(comm, map, bucket_merge());
    EXPECT_TRUE(map.empty());
    CombinationMap map2;
    MapCombiner tree(MapCombiner::Algorithm::kTree);
    tree.allreduce(comm, map2, bucket_merge());
    EXPECT_TRUE(map2.empty());
  });
}

// --- the runtime's ring allreduce (MapCombiner kRing) ------------------------

/// Key k holds count weights[k]; runs the combination with `algo` and
/// returns the global per-key counts in key order.
std::vector<std::size_t> combine_counts(simmpi::Communicator& comm,
                                        const std::vector<std::size_t>& weights,
                                        MapCombiner::Algorithm algo) {
  std::vector<std::pair<int, std::size_t>> entries;
  for (std::size_t k = 0; k < weights.size(); ++k) {
    entries.emplace_back(static_cast<int>(k), weights[k]);
  }
  auto map = bucket_map(entries);
  MapCombiner combiner(algo);
  combiner.allreduce(comm, map, bucket_merge());
  std::vector<std::size_t> counts;
  for (std::size_t k = 0; k < map.size(); ++k) counts.push_back(count_of(map, static_cast<int>(k)));
  return counts;
}

class RingRanks : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(RingRanks, MatchesTreeAllreduce) {
  const auto [nranks, len] = GetParam();
  auto weights_of = [len = len](int rank) {
    Rng rng(derive_seed(700, static_cast<std::uint64_t>(rank)));
    std::vector<std::size_t> w(len);
    for (auto& x : w) x = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    return w;
  };
  std::vector<std::size_t> expected(len, 0);
  for (int r = 0; r < nranks; ++r) {
    const auto w = weights_of(r);
    for (std::size_t k = 0; k < len; ++k) expected[k] += w[k];
  }
  simmpi::launch(nranks, [&](simmpi::Communicator& comm) {
    const auto local = weights_of(comm.rank());
    const auto ring = combine_counts(comm, local, MapCombiner::Algorithm::kRing);
    const auto tree = combine_counts(comm, local, MapCombiner::Algorithm::kTree);
    EXPECT_EQ(ring, expected);
    EXPECT_EQ(ring, tree);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RingRanks,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       // Key counts that do and do not divide by the rank count.
                       ::testing::Values(std::size_t{1}, std::size_t{7}, std::size_t{256},
                                         std::size_t{1000})));

TEST(RingAllreduce, BalancesPerRankTrafficBetterThanTree) {
  // Total bytes are comparable; the ring's advantage is that no rank is a
  // hot spot (the tree's root ships the full map to log2(n) children).
  const std::vector<std::size_t> weights(1u << 13, 1);
  auto max_rank_bytes = [&](MapCombiner::Algorithm algo) {
    const auto stats = simmpi::launch(8, [&](simmpi::Communicator& comm) {
      (void)combine_counts(comm, weights, algo);
    });
    std::size_t peak = 0;
    for (std::size_t b : stats.rank_bytes_sent) peak = std::max(peak, b);
    return peak;
  };
  EXPECT_LT(max_rank_bytes(MapCombiner::Algorithm::kRing),
            max_rank_bytes(MapCombiner::Algorithm::kTree));
}

TEST(RingAllreduce, VectorShorterThanRankCount) {
  // 6 ranks over 2 keys: most segments are empty; the sums must still be
  // exact on every rank.
  simmpi::launch(6, [&](simmpi::Communicator& comm) {
    const auto sum = combine_counts(comm, {1, static_cast<std::size_t>(comm.rank())},
                                    MapCombiner::Algorithm::kRing);
    EXPECT_EQ(sum, (std::vector<std::size_t>{6, 0 + 1 + 2 + 3 + 4 + 5}));
  });
}

TEST(RingAllreduce, EmptyVector) {
  simmpi::launch(4, [&](simmpi::Communicator& comm) {
    EXPECT_TRUE(combine_counts(comm, {}, MapCombiner::Algorithm::kRing).empty());
  });
}

TEST(RingAllreduce, SingleElementManyRanks) {
  simmpi::launch(5, [&](simmpi::Communicator& comm) {
    const auto sum = combine_counts(comm, {1}, MapCombiner::Algorithm::kRing);
    EXPECT_EQ(sum, std::vector<std::size_t>{5});
  });
}

// --- circular buffer close semantics ----------------------------------------

TEST(CircularBuffer, PushAfterCloseThrows) {
  CircularBuffer<int> buf(2);
  buf.push(1);
  buf.close();
  EXPECT_THROW(buf.push(2), std::runtime_error);
  EXPECT_FALSE(buf.try_push(3));
  // Pending cells stay poppable after close; then the stream ends.
  auto v = buf.pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1);
  EXPECT_FALSE(buf.pop().has_value());
}

TEST(CircularBuffer, CloseWakesBlockedPusher) {
  CircularBuffer<int> buf(1);
  buf.push(1);  // buffer now full
  std::thread pusher([&] { EXPECT_THROW(buf.push(2), std::runtime_error); });
  buf.close();  // must wake the pusher blocked on not_full_
  pusher.join();
}

// --- RFC 4180 CSV quoting ----------------------------------------------------

TEST(PhaseTracer, CsvQuotesSpecialCharacters) {
  PhaseTracer tracer;
  tracer.record("plain", 0.0, 1.0);
  tracer.record("step 3, flush", 1.0, 2.0);
  tracer.record("say \"go\"", 2.0, 3.0);
  tracer.record("two\nlines", 3.0, 4.0);
  std::ostringstream os;
  tracer.dump_csv(os);
  const std::string csv = os.str();

  EXPECT_NE(csv.find("\nplain,"), std::string::npos);  // simple names stay bare
  EXPECT_NE(csv.find("\"step 3, flush\","), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"go\"\"\","), std::string::npos);
  EXPECT_NE(csv.find("\"two\nlines\","), std::string::npos);
}

}  // namespace
}  // namespace smart
