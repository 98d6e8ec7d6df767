// Fault-tolerance layer: simmpi fault injection and timed receives, the
// scheduler's recovery policy (retry, degrade to survivors, periodic
// auto-checkpoint), checkpoint file hardening (atomic writes, length
// validation, checksums), and the in-transit fallbacks for dead producers
// and dead staging roots.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "analytics/histogram.h"
#include "analytics/reference.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/intransit.h"
#include "core/scheduler.h"
#include "simmpi/fault.h"
#include "simmpi/world.h"

namespace smart {
namespace {

using analytics::Bucket;
using analytics::Histogram;

std::vector<double> uniform_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(0.0, 100.0);
  return v;
}

std::vector<std::byte> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::byte> bytes(static_cast<std::size_t>(len));
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void spit(const std::string& path, const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

/// A histogram with some accumulated state and a valid checkpoint at `path`.
void write_valid_checkpoint(const std::string& path) {
  const auto data = uniform_data(2000, 701);
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16);
  hist.run(data.data(), data.size(), nullptr, 0);
  save_checkpoint(hist, path);
}

// --- checkpoint hardening ---------------------------------------------------------

TEST(CheckpointIo, RoundTripAndAtomicRename) {
  const std::string path = "/tmp/smart_ft_roundtrip.bin";
  // A stale .tmp from a crashed writer must be overwritten, not obeyed.
  spit(path + ".tmp", {std::byte{0xde}, std::byte{0xad}});

  const auto data = uniform_data(2000, 702);
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16);
  hist.run(data.data(), data.size(), nullptr, 0);
  save_checkpoint(hist, path);
  EXPECT_FALSE(file_exists(path + ".tmp")) << "rename must consume the tmp file";

  Histogram<double> restored(SchedArgs(2, 1), 0.0, 100.0, 16);
  load_checkpoint(restored, path);
  std::vector<std::size_t> out(16, 0);
  restored.convert_combination_map(out.data(), out.size());
  EXPECT_EQ(out, analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 16));
  std::remove(path.c_str());
}

TEST(CheckpointIo, RejectsTruncatedFile) {
  const std::string path = "/tmp/smart_ft_truncated.bin";
  write_valid_checkpoint(path);
  auto bytes = slurp(path);
  bytes.resize(bytes.size() - 7);
  spit(path, bytes);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 16);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointIo, RejectsTrailingBytes) {
  const std::string path = "/tmp/smart_ft_trailing.bin";
  write_valid_checkpoint(path);
  auto bytes = slurp(path);
  bytes.push_back(std::byte{0x00});
  spit(path, bytes);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 16);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointIo, RejectsCorruptMagic) {
  const std::string path = "/tmp/smart_ft_magic.bin";
  write_valid_checkpoint(path);
  auto bytes = slurp(path);
  bytes[0] ^= std::byte{0xff};
  spit(path, bytes);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 16);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointIo, HugeDeclaredSizeIsDiagnosableNotBadAlloc) {
  const std::string path = "/tmp/smart_ft_hugesize.bin";
  write_valid_checkpoint(path);
  auto bytes = slurp(path);
  // The u64 size field sits after magic (8) + version (4); claim ~1 EiB.
  const std::size_t size_off = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  const std::uint64_t huge = 1ULL << 60;
  for (std::size_t i = 0; i < sizeof(huge); ++i) {
    bytes[size_off + i] = std::byte{static_cast<unsigned char>(huge >> (8 * i))};
  }
  spit(path, bytes);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 16);
  // The declared length is validated against the file's actual length
  // *before* allocating, so this is a runtime_error, never a bad_alloc.
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(CheckpointIo, RejectsChecksumMismatch) {
  const std::string path = "/tmp/smart_ft_checksum.bin";
  write_valid_checkpoint(path);
  auto bytes = slurp(path);
  bytes.back() ^= std::byte{0x01};  // flip a snapshot byte, length unchanged
  spit(path, bytes);
  Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 16);
  EXPECT_THROW(load_checkpoint(hist, path), std::runtime_error);
  std::remove(path.c_str());
}

// --- timed receives ---------------------------------------------------------------

TEST(TimedReceive, MailboxReceiveForTimesOutAndDelivers) {
  simmpi::Mailbox box;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(box.receive_for(simmpi::kAnySource, 7, std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(20));

  simmpi::Envelope e;
  e.source = 2;
  e.tag = 7;
  e.payload = make_shared_buffer(Buffer{std::byte{42}});
  box.post(std::move(e));
  const auto got = box.receive_for(2, 7, std::chrono::milliseconds(20));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 1u);
}

TEST(TimedReceive, LateMessageStillDelivered) {
  simmpi::launch(2, [](simmpi::Communicator& comm) {
    if (comm.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      comm.send(1, 5, Buffer{std::byte{1}});
    } else {
      const Buffer b = comm.recv_timeout(0, 5, /*timeout_seconds=*/2.0);
      EXPECT_EQ(b.size(), 1u);
    }
  });
}

TEST(TimedReceive, SilenceRaisesPeerUnreachable) {
  simmpi::launch(2, [](simmpi::Communicator& comm) {
    if (comm.rank() != 1) return;  // rank 0 stays silent
    try {
      comm.recv_timeout(0, 5, /*timeout_seconds=*/0.05);
      FAIL() << "expected PeerUnreachable";
    } catch (const simmpi::PeerUnreachable& e) {
      EXPECT_EQ(e.source(), 0);
      EXPECT_EQ(e.tag(), 5);
      EXPECT_GE(e.waited_seconds(), 0.05);
    }
  });
}

// --- fault injection --------------------------------------------------------------

TEST(FaultInjector, DroppedMessageYieldsPeerUnreachableNotAHang) {
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 0,
                    .peer = 1,
                    .action = simmpi::FaultAction::kDrop,
                    .max_fires = 1});
  simmpi::launch(
      2,
      [](simmpi::Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 9, Buffer{std::byte{1}});  // dropped
          comm.send(1, 9, Buffer{std::byte{2}});  // delivered
        } else {
          // The drop consumed the first payload; the second arrives, and a
          // further receive times out as typed PeerUnreachable — no hang.
          EXPECT_EQ(comm.recv_timeout(0, 9, 1.0), Buffer{std::byte{2}});
          EXPECT_THROW(comm.recv_timeout(0, 9, 0.05), simmpi::PeerUnreachable);
        }
      },
      nullptr, faults);
}

TEST(FaultInjector, DuplicateDeliversTwice) {
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 0,
                    .action = simmpi::FaultAction::kDuplicate,
                    .max_fires = 1});
  simmpi::launch(
      2,
      [](simmpi::Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 9, Buffer{std::byte{7}});
        } else {
          EXPECT_EQ(comm.recv_timeout(0, 9, 1.0), Buffer{std::byte{7}});
          EXPECT_EQ(comm.recv_timeout(0, 9, 1.0), Buffer{std::byte{7}});
        }
      },
      nullptr, faults);
}

TEST(FaultInjector, DelayAdvancesVirtualTime) {
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 0,
                    .action = simmpi::FaultAction::kDelay,
                    .delay_seconds = 0.02,
                    .max_fires = 1});
  const auto stats = simmpi::launch(
      2,
      [](simmpi::Communicator& comm) {
        if (comm.rank() == 0) {
          comm.send(1, 9, Buffer{std::byte{7}});
        } else {
          comm.recv(0, 9);
        }
      },
      nullptr, faults);
  // The sender stalled and its message's virtual timestamp advanced, so
  // both clocks carry the delay.
  EXPECT_GE(stats.rank_vtime[0], 0.02);
  EXPECT_GE(stats.rank_vtime[1], 0.02);
}

TEST(FaultInjector, KillRankRecordsDeathAndWakesPeers) {
  auto faults = std::make_shared<simmpi::FaultInjector>();
  faults->add_rule(
      {.op = simmpi::FaultOp::kSend, .rank = 1, .action = simmpi::FaultAction::kKillRank});
  const auto stats = simmpi::launch(
      2,
      [](simmpi::Communicator& comm) {
        if (comm.rank() == 1) {
          comm.send(0, 9, Buffer{std::byte{1}});  // dies here, nothing posted
          FAIL() << "rank 1 should have been killed";
        } else {
          // A generous deadline, but the death record cuts the wait short.
          EXPECT_THROW(comm.recv_timeout(1, 9, 10.0), simmpi::PeerUnreachable);
          EXPECT_FALSE(comm.peer_alive(1));
          EXPECT_EQ(comm.alive_ranks(), (std::vector<int>{0}));
        }
      },
      nullptr, faults);
  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{1}));
}

// --- scheduler recovery -----------------------------------------------------------

TEST(Recovery, RetryRecoversFromTransientDrop) {
  const auto data = uniform_data(4000, 801);
  const auto expected = analytics::ref::histogram(data.data(), data.size(), 0.0, 100.0, 16);

  auto faults = std::make_shared<simmpi::FaultInjector>();
  // Drop rank 1's first combination payload; the resend goes through.
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 1,
                    .peer = 0,
                    .action = simmpi::FaultAction::kDrop,
                    .max_fires = 1});
  simmpi::launch(
      2,
      [&](simmpi::Communicator& comm) {
        const std::size_t half = data.size() / 2;
        const std::size_t offset = comm.rank() == 0 ? 0 : half;
        Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16);
        RecoveryPolicy policy;
        policy.peer_timeout_seconds = 0.25;
        policy.combine_retries = 2;
        hist.set_recovery_policy(policy);

        std::vector<std::size_t> out(16, 0);
        hist.run(data.data() + offset, half, out.data(), out.size());
        EXPECT_EQ(out, expected) << "rank " << comm.rank();
        EXPECT_EQ(hist.stats().combine_retries, 1u) << "rank " << comm.rank();
        EXPECT_EQ(hist.stats().ranks_lost, 0u);
        EXPECT_TRUE(hist.surviving_ranks().empty()) << "no degradation on a transient drop";
      },
      nullptr, faults);
}

TEST(Recovery, AutoCheckpointCadence) {
  const std::string path = "/tmp/smart_ft_cadence.bin";
  const auto data = uniform_data(500, 802);
  RunOptions acc;
  acc.accumulate_across_runs = true;
  Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8, acc);
  RecoveryPolicy policy;
  policy.checkpoint_every_runs = 2;
  policy.checkpoint_path = path;
  hist.set_recovery_policy(policy);

  for (int run = 0; run < 5; ++run) hist.run(data.data(), data.size(), nullptr, 0);
  EXPECT_EQ(hist.stats().auto_checkpoints, 2u);

  // The file holds the state as of run 4 (the last cadence boundary).
  Histogram<double> restored(SchedArgs(2, 1), 0.0, 100.0, 8, acc);
  load_checkpoint(restored, path);
  std::size_t total = 0;
  for (const auto& [key, obj] : restored.get_combination_map()) {
    total += static_cast<const Bucket&>(*obj).count;
  }
  EXPECT_EQ(total, 4 * data.size());
  std::remove(path.c_str());
}

// The acceptance scenario: one rank is killed mid-run by the injector, the
// survivors finish the combination over the reduced rank set, and a
// scheduler restored from the auto-checkpoint reproduces the pre-failure
// map bit-exactly.
TEST(Recovery, KilledRankDegradesCombinationAndCheckpointRestores) {
  constexpr int kRanks = 4;
  constexpr int kRuns = 3;
  constexpr std::size_t kPerRun = 800;
  const auto rank_run_data = [](int rank, int run) {
    return uniform_data(kPerRun, derive_seed(900 + static_cast<std::uint64_t>(run),
                                             static_cast<std::uint64_t>(rank)));
  };
  const auto ckpt_path = [](int rank) {
    return "/tmp/smart_ft_kill_rank" + std::to_string(rank) + ".bin";
  };

  // Expected survivor result: every rank's run-1 step (combined before the
  // death) plus the survivors' runs 2 and 3.  Rank 3's later steps die
  // with it.
  std::vector<double> expected_data;
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto step = rank_run_data(rank, 0);
    expected_data.insert(expected_data.end(), step.begin(), step.end());
  }
  for (int run = 1; run < kRuns; ++run) {
    for (int rank = 0; rank < kRanks - 1; ++rank) {
      const auto step = rank_run_data(rank, run);
      expected_data.insert(expected_data.end(), step.begin(), step.end());
    }
  }
  const auto expected =
      analytics::ref::histogram(expected_data.data(), expected_data.size(), 0.0, 100.0, 16);
  std::vector<double> run1_data;
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto step = rank_run_data(rank, 0);
    run1_data.insert(run1_data.end(), step.begin(), step.end());
  }
  const auto expected_run1 =
      analytics::ref::histogram(run1_data.data(), run1_data.size(), 0.0, 100.0, 16);

  auto faults = std::make_shared<simmpi::FaultInjector>();
  // Rank 3's only sends are its combination payloads (one per run): let
  // run 1's through, kill it at run 2's.
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 3,
                    .action = simmpi::FaultAction::kKillRank,
                    .skip = 1});

  Buffer post_run1_snapshot;                     // written by rank 0 only
  std::vector<std::size_t> ranks_lost(kRanks, 0);  // each rank writes its slot
  const auto stats = simmpi::launch(
      kRanks,
      [&](simmpi::Communicator& comm) {
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 16, acc);
        RecoveryPolicy policy;
        policy.checkpoint_every_runs = 1;
        policy.checkpoint_path = ckpt_path(comm.rank());
        policy.peer_timeout_seconds = 0.25;
        policy.combine_retries = 1;
        hist.set_recovery_policy(policy);

        std::vector<std::size_t> out(16, 0);
        for (int run = 0; run < kRuns; ++run) {
          const auto step = rank_run_data(comm.rank(), run);
          hist.run(step.data(), step.size(), out.data(), out.size());
          if (run == 0 && comm.rank() == 0) post_run1_snapshot = hist.snapshot();
        }
        // Only survivors reach this point; rank 3 unwound inside run 2.
        EXPECT_EQ(out, expected) << "rank " << comm.rank();
        ranks_lost[static_cast<std::size_t>(comm.rank())] = hist.stats().ranks_lost;
        EXPECT_EQ(hist.stats().auto_checkpoints, static_cast<std::size_t>(kRuns));
      },
      nullptr, faults);

  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{3}));
  // The survivor that waited on the dead rank in the combination tree
  // detected the death and rebuilt over the reduced rank set.
  EXPECT_EQ(*std::max_element(ranks_lost.begin(), ranks_lost.end()), 1u);

  // Rank 3's auto-checkpoint froze at run 1 — the pre-failure state.  A
  // scheduler restored from it must match rank 0's post-run-1 snapshot
  // bit-exactly (all ranks held the identical global map after run 1).
  RunOptions acc;
  acc.accumulate_across_runs = true;
  Histogram<double> restored(SchedArgs(2, 1), 0.0, 100.0, 16, acc);
  load_checkpoint(restored, ckpt_path(3));
  EXPECT_EQ(restored.snapshot(), post_run1_snapshot);
  std::vector<std::size_t> restored_out(16, 0);
  restored.convert_combination_map(restored_out.data(), restored_out.size());
  EXPECT_EQ(restored_out, expected_run1);

  for (int rank = 0; rank < kRanks; ++rank) std::remove(ckpt_path(rank).c_str());
}

// --- in-transit fault paths -------------------------------------------------------

/// Staging ranks' fault tolerance: a 0.2 s bound on every stream and
/// combination receive.
RecoveryPolicy staging_policy() {
  RecoveryPolicy policy;
  policy.peer_timeout_seconds = 0.2;
  return policy;
}

TEST(InTransitFaults, RawBlockWithoutAccumulateThrows) {
  const auto block = uniform_data(64, 803);
  EXPECT_THROW(
      simmpi::launch(2,
                     [&](simmpi::Communicator& comm) {
                       const intransit::Topology topo{.world_size = 2, .num_staging = 1};
                       if (comm.rank() == 0) {
                         intransit::ship_raw_step(comm, topo, block.data(), block.size());
                         intransit::ship_end(comm, topo);
                       } else {
                         // accumulate_across_runs left off: each raw block's
                         // run() would silently erase the previous one.
                         Histogram<double> hist(SchedArgs(1, 1), 0.0, 100.0, 8);
                         hist.set_global_combination(false);
                         intransit::stage_all(comm, topo, hist);
                       }
                     }),
      std::logic_error);
}

TEST(InTransitFaults, DeadProducerStreamEndIsReassigned) {
  const auto block = uniform_data(128, 804);
  auto faults = std::make_shared<simmpi::FaultInjector>();
  // Producer 0 dies at its second send: one block arrives, no end marker.
  faults->add_rule({.op = simmpi::FaultOp::kSend,
                    .rank = 0,
                    .action = simmpi::FaultAction::kKillRank,
                    .skip = 1});
  const auto stats = simmpi::launch(
      3,
      [&](simmpi::Communicator& comm) {
        const intransit::Topology topo{.world_size = 3, .num_staging = 1};
        if (comm.rank() < 2) {
          intransit::ship_raw_step(comm, topo, block.data(), block.size());
          intransit::ship_raw_step(comm, topo, block.data(), block.size());
          intransit::ship_end(comm, topo);
          return;
        }
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8, acc);
        hist.set_global_combination(false);
        hist.set_recovery_policy(staging_policy());
        // Producer 0 contributed one block before dying; producer 1 all
        // three payloads.  The timeout closes the dead stream for it.
        EXPECT_EQ(intransit::stage_all(comm, topo, hist), 3u);
        std::size_t total = 0;
        for (const auto& [key, obj] : hist.get_combination_map()) {
          total += static_cast<const Bucket&>(*obj).count;
        }
        EXPECT_EQ(total, 3 * block.size());
      },
      nullptr, faults);
  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{0}));
}

TEST(InTransitFaults, CombinationFallsBackToSurvivingRoot) {
  const auto block = uniform_data(128, 805);
  auto faults = std::make_shared<simmpi::FaultInjector>();
  // The first staging rank (3) — the default combination root — dies on
  // its first receive, before processing anything.
  faults->add_rule(
      {.op = simmpi::FaultOp::kRecv, .rank = 3, .action = simmpi::FaultAction::kKillRank});
  const auto stats = simmpi::launch(
      6,
      [&](simmpi::Communicator& comm) {
        const intransit::Topology topo{.world_size = 6, .num_staging = 3};
        if (comm.rank() < 3) {
          intransit::ship_raw_step(comm, topo, block.data(), block.size());
          intransit::ship_end(comm, topo);
          return;
        }
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8, acc);
        hist.set_global_combination(false);
        hist.set_recovery_policy(staging_policy());
        if (comm.rank() == 3) {
          intransit::stage_all(comm, topo, hist);  // killed on first recv
          FAIL() << "rank 3 should have been killed";
        }
        EXPECT_EQ(intransit::stage_all(comm, topo, hist), 1u);
        // Wait for the root's death record before combining, so both
        // survivors compute the same alive set (in production the peer
        // timeout plays this role; the test makes it deterministic).
        while (comm.peer_alive(3)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        intransit::combine_across_staging(comm, topo, hist);
        // Rank 0's block went to the dead root and is lost with it; the
        // survivors agree on rank 4 as the new root and combine the rest.
        std::size_t total = 0;
        for (const auto& [key, obj] : hist.get_combination_map()) {
          total += static_cast<const Bucket&>(*obj).count;
        }
        EXPECT_EQ(total, 2 * block.size()) << "rank " << comm.rank();
      },
      nullptr, faults);
  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{3}));
}

TEST(InTransitFaults, DeadStagingPeerDegradesTheCombinationRound) {
  const auto block = uniform_data(128, 806);
  auto faults = std::make_shared<simmpi::FaultInjector>();
  // Staging rank 4 (not the combination root, rank 3) only receives while
  // it drains its producer, so its first send is its combination payload:
  // it dies there, after staging, and its producer's block dies with it.
  faults->add_rule(
      {.op = simmpi::FaultOp::kSend, .rank = 4, .action = simmpi::FaultAction::kKillRank});
  std::vector<std::vector<std::size_t>> counts(6);  // each survivor writes its slot
  std::vector<std::size_t> ranks_lost(6, 0);
  const auto stats = simmpi::launch(
      6,
      [&](simmpi::Communicator& comm) {
        const intransit::Topology topo{.world_size = 6, .num_staging = 3};
        if (comm.rank() < 3) {
          intransit::ship_raw_step(comm, topo, block.data(), block.size());
          intransit::ship_end(comm, topo);
          return;
        }
        RunOptions acc;
        acc.accumulate_across_runs = true;
        Histogram<double> hist(SchedArgs(2, 1), 0.0, 100.0, 8, acc);
        hist.set_global_combination(false);
        hist.set_recovery_policy(staging_policy());
        EXPECT_EQ(intransit::stage_all(comm, topo, hist), 1u);
        intransit::combine_across_staging(comm, topo, hist);
        const auto r = static_cast<std::size_t>(comm.rank());
        counts[r].assign(8, 0);
        hist.convert_combination_map(counts[r].data(), counts[r].size());
        ranks_lost[r] = hist.stats().ranks_lost;
      },
      nullptr, faults);
  EXPECT_EQ(stats.ranks_killed, (std::vector<int>{4}));
  // The survivors hold identical maps: the blocks of their own producers
  // (0 -> rank 3, 2 -> rank 5); producer 1's block was lost with rank 4.
  std::vector<double> survivors_data = block;
  survivors_data.insert(survivors_data.end(), block.begin(), block.end());
  const auto expected =
      analytics::ref::histogram(survivors_data.data(), survivors_data.size(), 0.0, 100.0, 8);
  for (const std::size_t r : {3u, 5u}) {
    EXPECT_EQ(counts[r], expected) << "rank " << r;
    EXPECT_EQ(ranks_lost[r], 1u) << "rank " << r;
  }
}

}  // namespace
}  // namespace smart
