// Stress/property tests for the concurrency invariants documented in
// DESIGN.md §8: concurrent writers+readers under aggressive Drange
// reorganization, memtable merging, and parallel compaction must never
// produce stale reads, lost writes, or scan gaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nova {
namespace {

coord::ClusterOptions ChurnOptions(int stocs) {
  coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = stocs;
  opt.device.time_scale = 0;
  opt.range.memtable_size = 8 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 16 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.drange.sample_rate = 1;
  opt.range.drange.epsilon = 0.04;  // reorg aggressively
  opt.range.unique_key_threshold = 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.l0_stop_bytes = 256 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.num_replicas = std::min(3, stocs);
  opt.range.log.region_size = 64 << 10;
  opt.range.manifest_replicas = std::min(3, stocs);
  return opt;
}

class ChurnTest : public testing::TestWithParam<int> {};

TEST_P(ChurnTest, NoStaleReadsUnderReorgChurn) {
  int seed = GetParam();
  coord::Cluster cluster(ChurnOptions(3));
  cluster.Start();
  Random rng(seed);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 5000; i++) {
    std::string key = bench::MakeKey(rng.Uniform(700));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString() << " "
                        << engine->DebugLookupState(key);
    EXPECT_EQ(got, value) << key << " " << engine->DebugLookupState(key)
                          << " newest " << engine->DebugFindNewest(key);
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest, testing::Range(100, 106));

TEST(ChurnConcurrentTest, WritersAndReadersRace) {
  coord::Cluster cluster(ChurnOptions(3));
  cluster.Start();
  const int kKeys = 300;
  // Per-key monotonically increasing values; readers must never observe a
  // value older than one they have already seen for that key.
  std::vector<std::atomic<int>> committed(kKeys);
  for (auto& c : committed) {
    c.store(-1);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  // Watchdog: this race once hung to the ctest timeout via a lost stall
  // wakeup (every writer parked on the L0 stall gate after the last
  // scheduled compaction's notify slipped through the predicate/block
  // window). Abort with per-writer progress instead of silently eating
  // the timeout budget, so a regression is diagnosable from the log.
  std::vector<std::atomic<int>> writer_progress(3);
  for (auto& p : writer_progress) {
    p.store(0);
  }
  std::atomic<bool> test_done{false};
  std::thread watchdog([&] {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(100);
    while (!test_done.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        fprintf(stderr, "WritersAndReadersRace watchdog fired; writer puts:");
        for (auto& p : writer_progress) {
          fprintf(stderr, " %d", p.load());
        }
        fprintf(stderr, "/3000 each\n");
        fflush(stderr);
        abort();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < 3; w++) {
    writers.emplace_back([&, w] {
      Random rng(w * 31 + 1);
      for (int i = 0; i < 3000 && !stop.load(); i++) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        int version = w * 100000 + i;
        if (cluster.Put(bench::MakeKey(k), std::to_string(version)).ok()) {
          // Remember some committed version (not necessarily the newest).
          committed[k].store(version, std::memory_order_relaxed);
        }
        writer_progress[w].store(i + 1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      Random rng(r * 77 + 5);
      while (!stop.load()) {
        int k = static_cast<int>(rng.Uniform(kKeys));
        int known = committed[k].load(std::memory_order_relaxed);
        std::string got;
        Status s = cluster.Get(bench::MakeKey(k), &got);
        if (s.ok() && known >= 0) {
          // A read must see *some* committed write for the key (any
          // writer); complete absence after a committed write is a loss.
          if (got.empty()) {
            violations.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(violations.load(), 0);

  // Final state: the last writer-recorded version per key must be
  // readable or superseded by a newer committed one (same writer ids).
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->WaitForQuiescence(true);
  int missing = 0;
  for (int k = 0; k < kKeys; k++) {
    if (committed[k].load() < 0) {
      continue;
    }
    std::string got;
    if (!cluster.Get(bench::MakeKey(k), &got).ok()) {
      missing++;
    }
  }
  EXPECT_EQ(missing, 0);
  test_done.store(true);
  watchdog.join();
  cluster.Stop();
}

// ISSUE 9 chaos suite: kill/restart StoCs while failpoints inject RPC
// errors, under a live write load. Invariant: no acked write is ever
// lost — every Put the cluster acknowledged must read back correctly
// once the dust settles. Each seed drives both the failpoint RNG and
// the workload, so a failing seed replays deterministically.
class ChaosTest : public testing::TestWithParam<int> {
 protected:
  void TearDown() override { util::FailPoint::DisableAll(); }
  /// Each round kills StoC 3, or, with kill_manifest_stoc, the StoC that
  /// holds the range's first MANIFEST replica right then.
  void RunChaos(bool kill_manifest_stoc);
};

TEST_P(ChaosTest, NoAckedWriteLostUnderFaultsAndStocChurn) {
  RunChaos(/*kill_manifest_stoc=*/false);
}

// The same churn where every victim holds a MANIFEST replica: the range
// moves the replica off it while it is down.
TEST_P(ChaosTest, NoAckedWriteLostUnderManifestStocChurn) {
  RunChaos(/*kill_manifest_stoc=*/true);
}

void ChaosTest::RunChaos(bool kill_manifest_stoc) {
  int seed = GetParam();
  coord::ClusterOptions opt = ChurnOptions(4);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  opt.membership.failure_threshold = 2;
  opt.membership.dead_after_ms = 100;
  opt.membership.rejoin_probes = 1;
  opt.membership.probe_interval_ms = 5;
  opt.ltc.repair.scan_interval_ms = 10;
  coord::Cluster cluster(opt);
  cluster.Start();
  auto* engine = cluster.ltc(0)->ranges()[0];

  util::FailPoint::Seed(seed);
  // logc.append fires before any replica write, so an injected failure
  // there surfaces as an unacked Put — never a torn ack.
  util::FailPoint::EnableError("rpc.send",
                               Status::Unavailable("chaos: rpc.send"),
                               util::FailPoint::Trigger::Probability(0.01));
  util::FailPoint::EnableError("logc.append",
                               Status::Unavailable("chaos: logc.append"),
                               util::FailPoint::Trigger::Probability(0.02));

  std::atomic<bool> stop{false};
  std::mutex oracle_mu;
  std::map<std::string, std::string> oracle;
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; w++) {
    writers.emplace_back([&, w] {
      Random rng(seed * 131 + w);
      int i = 0;
      while (!stop.load()) {
        // Disjoint per-writer keyspaces: with a shared key, oracle-update
        // order could invert LSM write order and fake a stale read.
        std::string key = bench::MakeKey(w * 250 + rng.Uniform(250));
        std::string value = std::to_string(w) + ":" + std::to_string(i++);
        // Only acked writes enter the oracle; Put's internal retry loop
        // absorbs injected Unavailable errors.
        if (cluster.Put(key, value).ok()) {
          std::lock_guard<std::mutex> l(oracle_mu);
          oracle[key] = value;
        }
      }
    });
  }

  // StoC churn: kill a StoC, let the death verdict land and repair run,
  // bring it back, repeat.
  for (int round = 0; round < 2; round++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    int victim = 3;
    if (kill_manifest_stoc) {
      std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
      EXPECT_FALSE(manifest.empty()) << "seed " << seed << " round " << round;
      if (!manifest.empty()) {
        victim = manifest[0] - coord::Cluster::StocNode(0);
      }
    }
    cluster.KillStoc(victim);
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    if (kill_manifest_stoc) {
      std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
      EXPECT_EQ(std::count(manifest.begin(), manifest.end(),
                           coord::Cluster::StocNode(victim)),
                0)
          << "seed " << seed << " round " << round
          << ": the replica stayed on the dead StoC";
    }
    cluster.RestartStoc(victim);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  for (auto& t : writers) {
    t.join();
  }

  // Settle: stop injecting, let compaction/repair drain, then verify
  // every acked write against the oracle (the victim StoC is back up).
  util::FailPoint::DisableAll();
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  std::lock_guard<std::mutex> l(oracle_mu);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.Get(key, &got);
    ASSERT_TRUE(s.ok()) << "seed " << seed << " lost acked write " << key
                        << ": " << s.ToString() << " "
                        << engine->DebugLookupState(key);
    EXPECT_EQ(got, value) << "seed " << seed << " stale read " << key;
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, testing::Range(1, 11));

TEST(ChurnConcurrentTest, MigrationUnderLoad) {
  coord::ClusterOptions opt = ChurnOptions(3);
  opt.num_ltcs = 2;
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  coord::Cluster cluster(opt);
  cluster.Start();
  std::atomic<bool> stop{false};
  std::mutex oracle_mu;
  std::map<std::string, std::string> oracle;
  std::thread writer([&] {
    Random rng(3);
    int i = 0;
    while (!stop.load()) {
      std::string key = bench::MakeKey(rng.Uniform(400));
      std::string value = "v" + std::to_string(i++);
      if (cluster.Put(key, value).ok()) {
        std::lock_guard<std::mutex> l(oracle_mu);
        oracle[key] = value;
      }
    }
  });
  // Bounce range 0 between the two LTCs while the writer runs.
  for (int m = 0; m < 4; m++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(cluster.MigrateRange(0, (m % 2 == 0) ? 1 : 0, 2).ok());
  }
  stop.store(true);
  writer.join();
  std::lock_guard<std::mutex> l(oracle_mu);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key;
  }
  cluster.Stop();
}

/// Gets racing flushes and compactions, with the lookup index on and off:
/// two writers on disjoint keys, three readers. No Get may return a
/// version older than one acknowledged before it began, NotFound for a
/// written key, or an error (compactions delete no table a reader holds).
class GetsDuringCompactionsTest : public testing::TestWithParam<bool> {};

TEST_P(GetsDuringCompactionsTest, NeverOlderThanAckedNorFailed) {
  coord::ClusterOptions opt = ChurnOptions(3);
  opt.range.enable_lookup_index = GetParam();
  coord::Cluster cluster(opt);
  cluster.Start();
  ltc::LtcServer* ltc = cluster.ltc(0);
  const int kKeysPerWriter = 200;
  // Per key, the newest version its one writer had acknowledged.
  std::vector<std::atomic<int>> acked(2 * kKeysPerWriter);
  for (auto& a : acked) {
    a.store(-1);
  }
  std::atomic<bool> stop{false};
  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> l(failures_mu);
    failures.push_back(what);
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&, w] {
      Random rng(w * 17 + 3);
      for (int i = 0; !stop.load(); i++) {
        int k = w * kKeysPerWriter +
                static_cast<int>(rng.Uniform(kKeysPerWriter));
        std::string value = std::to_string(i) + std::string(40, 'x');
        if (ltc->Put(bench::MakeKey(k), value).ok()) {
          acked[k].store(i, std::memory_order_release);
        }
      }
    });
  }
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      Random rng(r * 29 + 11);
      while (!stop.load()) {
        int k = static_cast<int>(rng.Uniform(2 * kKeysPerWriter));
        int known = acked[k].load(std::memory_order_acquire);
        if (known < 0) {
          continue;
        }
        std::string got;
        Status s = ltc->Get(bench::MakeKey(k), &got);
        if (!s.ok()) {
          fail(bench::MakeKey(k) + ": " + s.ToString());
        } else if (std::stoi(got) < known) {
          ltc::RangeEngine* engine = ltc->ranges()[0];
          fail(bench::MakeKey(k) + ": read " + std::to_string(std::stoi(got)) +
               " after " + std::to_string(known) + " was acknowledged; " +
               engine->DebugLookupState(bench::MakeKey(k)) + "; newest " +
               engine->DebugFindNewest(bench::MakeKey(k)));
        }
      }
    });
  }
  // 1.5 s, or as long as 10 compactions take (sanitizer builds are slow).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  while (cluster.TotalStats().compactions < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  stop.store(true);
  for (auto& t : threads) {
    t.join();
  }
  ltc::RangeStats stats = cluster.TotalStats();
  EXPECT_GE(stats.compactions, 10u);
  EXPECT_TRUE(failures.empty())
      << failures.size() << " bad Gets over " << stats.compactions
      << " compactions, first: " << failures.front();
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(LookupIndex, GetsDuringCompactionsTest,
                         testing::Bool());

}  // namespace
}  // namespace nova
