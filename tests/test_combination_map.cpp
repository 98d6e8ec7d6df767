// Tests for the flat CombinationMap class and the v2 interned-type wire
// codec: std::map-equivalent semantics and iteration order, dense-slot
// caching, v1 backward compatibility (including checkpoints written with
// the old encoder), segment-index byte equality, and parallel-vs-serial
// local combination equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <vector>

#include "analytics/histogram.h"
#include "analytics/red_objs.h"
#include "analytics/reference.h"
#include "bench/legacy_map_codec.h"
#include "core/checkpoint.h"
#include "core/red_obj.h"

namespace smart {
namespace {

using analytics::Bucket;
using analytics::ClusterObj;
using analytics::GridObj;

CombinationMap bucket_map(const std::vector<std::pair<int, std::size_t>>& entries) {
  analytics::register_red_objs();
  CombinationMap map;
  for (const auto& [key, count] : entries) {
    auto obj = std::make_unique<Bucket>();
    obj->count = count;
    obj->set_key(key);
    map.emplace(key, std::move(obj));
  }
  return map;
}

MergeFn bucket_merge() {
  return [](const RedObj& red, std::unique_ptr<RedObj>& com) {
    static_cast<Bucket&>(*com).count += static_cast<const Bucket&>(red).count;
  };
}

std::size_t count_of(const CombinationMap& map, int key) {
  return static_cast<const Bucket&>(*map.at(key)).count;
}

std::vector<int> keys_of(const CombinationMap& map) {
  std::vector<int> keys;
  for (const auto& [key, obj] : map) {
    (void)obj;
    keys.push_back(key);
  }
  return keys;
}

// --- flat map semantics -----------------------------------------------------

TEST(CombinationMapFlat, IterationOrderMatchesStdMap) {
  // Random inserts (duplicates and negatives included) against a std::map
  // shadow: the flat map must iterate in exactly std::map's key order.
  analytics::register_red_objs();
  std::mt19937 rng(20250807);
  std::uniform_int_distribution<int> key_dist(-500, 500);
  CombinationMap map;
  std::map<int, std::size_t> shadow;
  for (int i = 0; i < 2000; ++i) {
    const int key = key_dist(rng);
    auto obj = std::make_unique<Bucket>();
    obj->count = static_cast<std::size_t>(i);
    const bool inserted = map.emplace(key, std::move(obj)).second;
    EXPECT_EQ(inserted, shadow.emplace(key, static_cast<std::size_t>(i)).second);
  }
  ASSERT_EQ(map.size(), shadow.size());
  auto expect = shadow.begin();
  for (const auto& [key, obj] : map) {
    ASSERT_EQ(key, expect->first);
    EXPECT_EQ(static_cast<const Bucket&>(*obj).count, expect->second);
    ++expect;
  }
}

TEST(CombinationMapFlat, LookupSemanticsMatchStdMap) {
  auto map = bucket_map({{-7, 1}, {0, 2}, {3, 3}});
  EXPECT_EQ(map.size(), 3u);
  EXPECT_FALSE(map.empty());
  EXPECT_EQ(map.count(-7), 1u);
  EXPECT_EQ(map.count(42), 0u);
  EXPECT_TRUE(map.contains(0));
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.find(3)->second->key(), 3);
  EXPECT_EQ(map.find(99), map.end());
  EXPECT_EQ(count_of(map, 0), 2u);
  EXPECT_THROW(map.at(99), std::out_of_range);

  // operator[] inserts a null slot for an absent key, like std::map.
  EXPECT_EQ(map[10], nullptr);
  EXPECT_EQ(map.size(), 4u);
  map[10] = std::make_unique<Bucket>();
  EXPECT_NE(map.at(10), nullptr);

  // emplace never overwrites.
  auto dup = std::make_unique<Bucket>();
  dup->count = 999;
  EXPECT_FALSE(map.emplace(0, std::move(dup)).second);
  EXPECT_EQ(count_of(map, 0), 2u);
}

TEST(CombinationMapFlat, EraseAndProbeChainStress) {
  // Dense key range through the hash: inserts then interleaved erases
  // exercise backshift deletion and the swap-remove bucket fixup.  Every
  // surviving key must stay findable after every erase.
  analytics::register_red_objs();
  CombinationMap map;
  std::map<int, std::size_t> shadow;
  for (int key = -128; key < 128; ++key) {
    auto obj = std::make_unique<Bucket>();
    obj->count = static_cast<std::size_t>(key + 1000);
    map.emplace(key, std::move(obj));
    shadow.emplace(key, static_cast<std::size_t>(key + 1000));
  }
  std::mt19937 rng(7);
  std::vector<int> keys;
  for (const auto& [k, v] : shadow) {
    (void)v;
    keys.push_back(k);
  }
  std::shuffle(keys.begin(), keys.end(), rng);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(map.erase(keys[i]), 1u);
      EXPECT_EQ(map.erase(keys[i]), 0u);  // second erase: already gone
      shadow.erase(keys[i]);
    }
    for (const auto& [k, count] : shadow) EXPECT_EQ(count_of(map, k), count) << "key " << k;
    EXPECT_EQ(map.size(), shadow.size());
  }
  // Iteration order is restored (lazily) after all that churn.
  std::vector<int> expect;
  for (const auto& [k, v] : shadow) {
    (void)v;
    expect.push_back(k);
  }
  EXPECT_EQ(keys_of(map), expect);
}

TEST(CombinationMapFlat, SlotIndicesAreStableAcrossAppends) {
  analytics::register_red_objs();
  CombinationMap map;
  const std::size_t slot = map.slot_index(42);
  map.slot_at(slot) = std::make_unique<Bucket>();
  static_cast<Bucket&>(*map.slot_at(slot)).count = 7;
  // Hundreds of appends force several entry-vector reallocations and
  // bucket rehashes; the dense index must keep naming key 42.
  for (int key = 1000; key < 1600; ++key) map.slot_index(key);
  EXPECT_EQ(map.key_at(slot), 42);
  EXPECT_EQ(static_cast<const Bucket&>(*map.slot_at(slot)).count, 7u);
  EXPECT_EQ(map.slot_index(42), slot);
}

TEST(CombinationMapFlat, ClearAndMoveResetState) {
  auto map = bucket_map({{5, 1}, {2, 2}});
  CombinationMap moved = std::move(map);
  EXPECT_EQ(map.size(), 0u);  // NOLINT(bugprone-use-after-move): reset contract
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(count_of(moved, 5), 1u);
  moved.clear();
  EXPECT_TRUE(moved.empty());
  EXPECT_FALSE(moved.contains(5));
  // Reusable after clear.
  moved.emplace(1, std::make_unique<Bucket>());
  EXPECT_EQ(moved.size(), 1u);
}

// --- wire format v2 ---------------------------------------------------------

TEST(WireV2, RoundTripEmptyMap) {
  Buffer buf;
  serialize_map(CombinationMap{}, buf);
  EXPECT_TRUE(deserialize_map(buf).empty());
}

TEST(WireV2, RoundTripNegativeKeysAndHeterogeneousTypes) {
  analytics::register_red_objs();
  CombinationMap map;
  auto grid = std::make_unique<GridObj>();
  grid->sum = 2.5;
  grid->count = 2;
  map.emplace(-3, std::move(grid));
  auto bucket = std::make_unique<Bucket>();
  bucket->count = 9;
  map.emplace(-1, std::move(bucket));
  auto cluster = std::make_unique<ClusterObj>();
  cluster->centroid = {1.0, 2.0};
  cluster->sum = {0.5, 0.5};
  cluster->size = 4;
  map.emplace(7, std::move(cluster));
  auto bucket2 = std::make_unique<Bucket>();
  bucket2->count = 11;
  map.emplace(0, std::move(bucket2));

  Buffer buf;
  serialize_map(map, buf);
  const CombinationMap restored = deserialize_map(buf);
  ASSERT_EQ(restored.size(), 4u);
  EXPECT_EQ(keys_of(restored), (std::vector<int>{-3, -1, 0, 7}));
  EXPECT_DOUBLE_EQ(static_cast<const GridObj&>(*restored.at(-3)).sum, 2.5);
  EXPECT_EQ(static_cast<const Bucket&>(*restored.at(-1)).count, 9u);
  EXPECT_EQ(static_cast<const Bucket&>(*restored.at(0)).count, 11u);
  const auto& c = static_cast<const ClusterObj&>(*restored.at(7));
  EXPECT_EQ(c.size, 4u);
  EXPECT_EQ(restored.at(7)->key(), 7);
}

TEST(WireV2, PayloadStartsWithMagicAndIsSmallerThanV1) {
  // 100 same-typed entries: v1 repeats the 6-byte-plus-length type name
  // per entry, v2 sends it once plus a 1-byte index per entry.
  std::vector<std::pair<int, std::size_t>> entries;
  for (int k = 0; k < 100; ++k) entries.emplace_back(k, static_cast<std::size_t>(k));
  const auto map = bucket_map(entries);
  Buffer v2;
  serialize_map(map, v2);
  Buffer v1;
  serialize_map_v1(map, v1);
  Reader r(v2);
  EXPECT_EQ(r.read<std::uint64_t>(), wire::kMapWireMagicV2);
  EXPECT_LT(v2.size(), v1.size());
  // The saving is the per-entry type string minus the varint index.
  EXPECT_LT(v2.size(), v1.size() - 100 * sizeof(std::uint64_t));
}

TEST(WireV2, TruncatedPayloadThrowsAtEveryCut) {
  analytics::register_red_objs();
  CombinationMap map;
  auto cluster = std::make_unique<ClusterObj>();
  cluster->centroid = {1.0};
  cluster->sum = {2.0};
  cluster->size = 1;
  map.emplace(0, std::move(cluster));
  auto bucket = std::make_unique<Bucket>();
  bucket->count = 3;
  map.emplace(5, std::move(bucket));
  Buffer buf;
  serialize_map(map, buf);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    Reader r(buf.data(), cut);
    EXPECT_THROW(deserialize_map(r), std::out_of_range) << "cut at " << cut;
  }
}

TEST(WireV2, UnknownTypeInTableThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(wire::kMapWireFormatV2);
  w.write_varint(1);
  w.write_string("BogusType");
  w.write<std::uint64_t>(0);
  EXPECT_THROW(deserialize_map(buf), std::runtime_error);
}

TEST(WireV2, CorruptTypeIndexThrows) {
  analytics::register_red_objs();
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(wire::kMapWireFormatV2);
  w.write_varint(1);
  w.write_string("Bucket");
  w.write<std::uint64_t>(1);
  w.write<std::int32_t>(0);
  w.write_varint(5);  // only index 0 exists
  EXPECT_THROW(deserialize_map(buf), std::out_of_range);
}

TEST(WireV2, UnknownFormatByteThrows) {
  Buffer buf;
  Writer w(buf);
  w.write<std::uint64_t>(wire::kMapWireMagicV2);
  w.write<std::uint8_t>(99);
  EXPECT_THROW(deserialize_map(buf), std::runtime_error);
}

// --- v1 backward compatibility ----------------------------------------------

TEST(WireV1Compat, LegacyEncoderDecodesThroughTheSameReaders) {
  const auto map = bucket_map({{-2, 4}, {0, 1}, {9, 7}});
  Buffer v1;
  serialize_map_v1(map, v1);
  const CombinationMap restored = deserialize_map(v1);
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(count_of(restored, -2), 4u);
  EXPECT_EQ(count_of(restored, 0), 1u);
  EXPECT_EQ(count_of(restored, 9), 7u);

  // absorb auto-detects v1 too, merging into live entries.
  auto dst = bucket_map({{0, 10}});
  Reader r(v1);
  EXPECT_EQ(absorb_serialized_map(r, dst, bucket_merge()), 3u);
  EXPECT_EQ(count_of(dst, 0), 11u);
  EXPECT_EQ(count_of(dst, 9), 7u);
}

TEST(WireV1Compat, OldCheckpointFileLoadsIntoScheduler) {
  // A checkpoint written by the pre-v2 runtime: v1 map bytes inside the
  // (unchanged) checkpoint container.  load_checkpoint must restore it.
  const auto map = bucket_map({{0, 5}, {1, 6}, {2, 7}});
  Buffer v1;
  serialize_map_v1(map, v1);
  const std::string path = "test_combination_map_v1.ckpt";
  write_checkpoint_file(v1, path);

  analytics::Histogram<double> hist(SchedArgs(2, 1), 0.0, 1.0, 8);
  load_checkpoint(hist, path);
  const CombinationMap& restored = hist.get_combination_map();
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(count_of(restored, 0), 5u);
  EXPECT_EQ(count_of(restored, 1), 6u);
  EXPECT_EQ(count_of(restored, 2), 7u);
  std::remove(path.c_str());
}

// --- segment index ----------------------------------------------------------

TEST(SegmentIndex, ByteIdenticalToStandaloneSegmentSerializer) {
  const auto map = bucket_map({{-5, 1}, {-2, 2}, {0, 3}, {3, 4}, {4, 5}, {11, 6}});
  const int nseg = 4;
  MapSegmentIndex index;
  index.build(map, nseg);
  for (int s = 0; s < nseg; ++s) {
    Buffer standalone;
    const std::size_t n_standalone = serialize_map_segment(map, s, nseg, standalone);
    Buffer indexed;
    const std::size_t n_indexed = index.serialize_segment(map, s, indexed);
    EXPECT_EQ(n_indexed, n_standalone) << "segment " << s;
    EXPECT_EQ(indexed, standalone) << "segment " << s;
  }
}

TEST(SegmentIndex, AbsorbExtendsIndexWithNewKeys) {
  auto map = bucket_map({{0, 1}, {4, 2}});
  const int nseg = 2;
  MapSegmentIndex index;
  index.build(map, nseg);

  // A peer's segment-0 payload carrying one existing and two new keys.
  const auto peer = bucket_map({{-2, 10}, {4, 20}, {6, 30}});
  Buffer wire;
  serialize_map_segment(peer, /*segment=*/0, nseg, wire);
  Reader r(wire);
  EXPECT_EQ(index.absorb_segment(r, map, bucket_merge(), /*segment=*/0), 3u);
  EXPECT_EQ(count_of(map, -2), 10u);
  EXPECT_EQ(count_of(map, 4), 22u);
  EXPECT_EQ(count_of(map, 6), 30u);

  // Post-absorb, the indexed segment serializer sees the inserted keys
  // and still matches the standalone walk byte for byte.
  Buffer standalone;
  serialize_map_segment(map, 0, nseg, standalone);
  Buffer indexed;
  index.serialize_segment(map, 0, indexed);
  EXPECT_EQ(indexed, standalone);
}

TEST(SegmentIndex, AbsorbedNewTypeIsInterned) {
  auto map = bucket_map({{0, 1}});
  const int nseg = 1;
  MapSegmentIndex index;
  index.build(map, nseg);

  // Peer payload introduces a type the local map had never held.
  analytics::register_red_objs();
  CombinationMap peer;
  auto grid = std::make_unique<GridObj>();
  grid->sum = 1.5;
  grid->count = 1;
  peer.emplace(2, std::move(grid));
  Buffer wire;
  serialize_map(peer, wire);
  Reader r(wire);
  index.absorb_segment(r, map, bucket_merge(), /*segment=*/0);

  // Serializing the segment must intern GridObj instead of crashing or
  // emitting a dangling index; the payload round-trips.
  Buffer out;
  index.serialize_segment(map, 0, out);
  const CombinationMap restored = deserialize_map(out);
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(static_cast<const GridObj&>(*restored.at(2)).sum, 1.5);
}

// --- parallel local combination ---------------------------------------------

TEST(ParallelLocalCombine, MatchesSerialResultExactly) {
  // Integer bucket counts make the comparison exact: the binomial-tree
  // merge order must produce the serial reference histogram, bucket for
  // bucket.  4 workers and 256 buckets clear the parallel-path thresholds.
  std::vector<double> data(20000);
  std::mt19937 rng(99);
  std::uniform_real_distribution<double> dist(-5.0, 5.0);
  for (auto& x : data) x = dist(rng);

  analytics::Histogram<double> parallel(SchedArgs(4, 1), -5.0, 5.0, 256);
  std::vector<std::size_t> parallel_out(256, 0);
  parallel.run(data.data(), data.size(), parallel_out.data(), parallel_out.size());

  EXPECT_EQ(parallel_out, analytics::ref::histogram(data.data(), data.size(), -5.0, 5.0, 256));
  EXPECT_EQ(parallel.get_combination_map().size(), 256u);
}

TEST(ParallelLocalCombine, IterativeSeededRunStaysCorrect) {
  // Seeded iterative context (accumulate_across_runs) with the parallel
  // clone-distribute: totals must accumulate exactly across runs.
  std::vector<double> data(8192);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& x : data) x = dist(rng);

  RunOptions opts;
  opts.accumulate_across_runs = true;
  analytics::Histogram<double> hist(SchedArgs(4, 1), -1.0, 1.0, 128, opts);
  for (int run = 0; run < 3; ++run) hist.run(data.data(), data.size(), nullptr, 0);

  std::size_t total = 0;
  for (const auto& [key, obj] : hist.get_combination_map()) {
    (void)key;
    total += static_cast<const Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, 3 * data.size());
}

}  // namespace
}  // namespace smart
