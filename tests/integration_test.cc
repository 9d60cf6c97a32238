// End-to-end tests of the full in-process cluster: LTCs + StoCs over the
// RDMA fabric emulation, exercised against a std::map oracle, plus fault
// injection (StoC loss with replication/parity, LTC crash + recovery),
// range migration and elasticity.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "baseline/baseline.h"
#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "lsm/table_io.h"
#include "lsm/version.h"
#include "sstable/block.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace nova {
namespace {

using coord::Cluster;
using coord::ClusterOptions;

std::string Key(uint64_t i) { return bench::MakeKey(i); }

/// Small, fast cluster: no device timing, unlimited CPU, tiny memtables so
/// flush/compaction trigger quickly.
ClusterOptions FastOptions(int ltcs, int stocs) {
  ClusterOptions opt;
  opt.num_ltcs = ltcs;
  opt.num_stocs = stocs;
  opt.device.time_scale = 0;
  opt.range.memtable_size = 8 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 16 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.drange.sample_rate = 1;
  opt.range.unique_key_threshold = 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.l0_stop_bytes = 256 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.num_replicas = std::min(3, stocs);
  opt.range.log.region_size = 64 << 10;
  opt.range.manifest_replicas = std::min(3, stocs);
  opt.placement.rho = 1;
  opt.stoc.slab_bytes = 64 << 20;
  opt.stoc.slab_page_bytes = 256 << 10;
  return opt;
}

class IntegrationTest : public testing::Test {
 protected:
  void StartCluster(const ClusterOptions& opt) {
    cluster_ = std::make_unique<Cluster>(opt);
    cluster_->Start();
  }

  void TearDown() override {
    util::FailPoint::DisableAll();
    if (cluster_) {
      cluster_->Stop();
    }
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(IntegrationTest, PutGetRoundTrip) {
  StartCluster(FastOptions(1, 2));
  ASSERT_TRUE(cluster_->Put("hello", "world").ok());
  std::string value;
  ASSERT_TRUE(cluster_->Get("hello", &value).ok());
  EXPECT_EQ(value, "world");
  EXPECT_TRUE(cluster_->Get("missing", &value).IsNotFound());
}

/// Get-path tests run once with the lookup index on (Nova-LSM) and once
/// with it off (Challenge 2's ablation, which every LevelDB*/RocksDB*
/// baseline uses).
class LookupIndexSettingTest : public IntegrationTest,
                               public testing::WithParamInterface<bool> {
 protected:
  ClusterOptions Options(int ltcs, int stocs) {
    ClusterOptions opt = FastOptions(ltcs, stocs);
    opt.range.enable_lookup_index = GetParam();
    return opt;
  }
};

TEST_P(LookupIndexSettingTest, OverwriteAndDelete) {
  StartCluster(Options(1, 2));
  ASSERT_TRUE(cluster_->Put("k", "v1").ok());
  ASSERT_TRUE(cluster_->Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(cluster_->Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  ASSERT_TRUE(cluster_->Delete("k").ok());
  EXPECT_TRUE(cluster_->Get("k", &value).IsNotFound());
}

TEST_P(LookupIndexSettingTest, OracleConsistencyThroughFlushesAndCompactions) {
  StartCluster(Options(1, 3));
  std::map<std::string, std::string> oracle;
  Random rng(11);
  // Enough writes to force many flushes and L0->L1 compactions.
  for (int i = 0; i < 6000; i++) {
    std::string key = Key(rng.Uniform(800));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  EXPECT_GT(engine->stats().flushes, 0u);
  EXPECT_GT(engine->stats().compactions, 0u);

  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key << " newest=" << engine->DebugFindNewest(key);
  }
}

INSTANTIATE_TEST_SUITE_P(IntegrationTest, LookupIndexSettingTest,
                         testing::Bool());

// The index points a deleted key at the memtable that took the delete.
// Once that memtable's L0 table is compacted into L1, the index entry no
// longer resolves, and a Get sweeps the memtables. An older version
// parked in a merged small memtable must then lose to the L1 tombstone,
// which the index claimed as newer.
TEST_F(IntegrationTest, TombstoneInL1HidesOlderParkedMemtableVersion) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 1;
  opt.range.lsm.l0_compaction_trigger_bytes = 1;
  StartCluster(opt);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  // A one-key memtable is merged, not flushed, and stays in memory.
  ASSERT_TRUE(cluster_->Put("k", "v1").ok());
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  ASSERT_EQ(engine->stats().memtable_merges, 1u);
  // The delete shares a memtable with enough keys to flush it to L0, and
  // the one-byte trigger compacts that table into L1.
  ASSERT_TRUE(cluster_->Delete("k").ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v").ok());
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  ASSERT_GT(engine->stats().compactions, 0u);
  std::string newest = engine->DebugFindNewest("k");
  ASSERT_EQ(newest.rfind("L1 ", 0), 0u) << newest;

  std::string value;
  Status s = cluster_->Get("k", &value);
  EXPECT_TRUE(s.IsNotFound()) << s.ToString() << " value=" << value
                              << " newest=" << newest;
}

TEST_F(IntegrationTest, ScanMatchesOracle) {
  StartCluster(FastOptions(1, 2));
  std::map<std::string, std::string> oracle;
  Random rng(12);
  for (int i = 0; i < 3000; i++) {
    std::string key = Key(rng.Uniform(500));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  // Scans from random positions must equal the oracle's next-10.
  for (int trial = 0; trial < 50; trial++) {
    std::string start = Key(rng.Uniform(500));
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(cluster_->Scan(start, 10, &got).ok());
    auto it = oracle.lower_bound(start);
    for (const auto& [k, v] : got) {
      ASSERT_NE(it, oracle.end());
      EXPECT_EQ(k, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    size_t expected =
        std::min<size_t>(10, std::distance(oracle.lower_bound(start),
                                           oracle.end()));
    EXPECT_EQ(got.size(), expected);
  }
}

// Scans under Drange reorganization churn. Two writers put each key once,
// a block of 100 keys at a time in a jumping block order, so the hot block
// keeps moving and the Dranges keep reorganizing; three scanners start
// every scan inside the block being written. A scan misses no key
// acknowledged before it began: a memtable takes only keys inside the
// bounds it is registered under in the range index.
TEST_F(IntegrationTest, ScansMissNoAckedKeyUnderReorgChurn) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.log.mode = logc::LogMode::kNone;
  StartCluster(opt);
  constexpr int kBlocks = 40;
  constexpr int kBlockKeys = 100;
  constexpr int kKeys = kBlocks * kBlockKeys;
  constexpr size_t kRows = 20;
  // The i-th put writes this key: blocks in the order 0, 17, 34, 11, ...
  auto key_at = [](int i) {
    return (i / kBlockKeys * 17) % kBlocks * kBlockKeys + i % kBlockKeys;
  };
  auto index_of = [](const std::string& key) {
    return std::stoi(key.substr(4));
  };
  std::atomic<int> next{0};
  // Per key, its ticket from acks once its put was acknowledged (0 before).
  std::atomic<uint64_t> acks{0};
  std::vector<std::atomic<uint64_t>> acked_at(kKeys);
  for (auto& a : acked_at) {
    a.store(0);
  }
  std::atomic<int> failed_ops{0};
  std::atomic<int> scans{0};
  std::mutex misses_mu;
  std::vector<std::string> misses;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kKeys; i = next.fetch_add(1)) {
        int k = key_at(i);
        if (!cluster_->Put(Key(k), std::string(100, 'v')).ok()) {
          failed_ops.fetch_add(1);
          continue;
        }
        acked_at[k].store(acks.fetch_add(1) + 1);
      }
    });
  }
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      Random rng(r * 7 + 1);
      while (next.load() < kKeys) {
        int block = key_at(std::min(next.load(), kKeys - 1)) / kBlockKeys;
        int start =
            block * kBlockKeys + static_cast<int>(rng.Uniform(kBlockKeys));
        uint64_t began = acks.load();
        std::vector<std::pair<std::string, std::string>> rows;
        if (!cluster_->Scan(Key(start), kRows, &rows).ok()) {
          failed_ops.fetch_add(1);
          continue;
        }
        scans.fetch_add(1);
        // The span the scan answers for: up to its last row, or to the end
        // of the keyspace when it returned fewer rows than asked.
        int end = rows.size() < kRows ? kKeys : index_of(rows.back().first) + 1;
        std::set<int> got;
        for (const auto& row : rows) {
          got.insert(index_of(row.first));
        }
        for (int k = start; k < end; k++) {
          uint64_t t = acked_at[k].load();
          if (t != 0 && t <= began && got.count(k) == 0) {
            std::lock_guard<std::mutex> l(misses_mu);
            misses.push_back(Key(k) + " in a scan from " + Key(start));
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failed_ops.load(), 0);
  EXPECT_GT(scans.load(), 0);
  EXPECT_GT(cluster_->ltc(0)->ranges()[0]->dranges()->num_minor_reorgs(), 0u);
  EXPECT_TRUE(misses.empty()) << misses.size() << " acknowledged keys missed, "
                              << "first: " << misses.front();
}

// Scans over keys that are overwritten while the scan runs. Every key
// exists before the first scan and none is deleted, so each scan returns
// exactly the keys that follow its start. Two writers overwrite a
// 100-key window that jumps every 1000 puts, and three scanners start
// every scan inside the window: flushes, memtable merges and compactions
// keep only each key's newest version, which a scan must be able to see.
TEST_F(IntegrationTest, ScansMissNoOverwrittenKey) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.log.mode = logc::LogMode::kNone;
  StartCluster(opt);
  constexpr int kWindows = 40;
  constexpr int kWindowKeys = 100;
  constexpr int kKeys = kWindows * kWindowKeys;
  constexpr int kPuts = 40000;
  constexpr int kRows = 100;
  for (int k = 0; k < kKeys; k++) {
    ASSERT_TRUE(cluster_->Put(Key(k), std::string(100, 'v')).ok());
  }
  // The window the i-th put lands in: windows 0, 17, 34, 11, ...
  auto window_at = [](int i) { return (i / 1000 * 17) % kWindows; };
  auto index_of = [](const std::string& key) {
    return std::stoi(key.substr(4));
  };
  std::atomic<int> next{0};
  std::atomic<int> failed_ops{0};
  std::atomic<int> scans{0};
  std::mutex short_mu;
  int short_scans = 0;
  std::string first_short;
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; w++) {
    threads.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kPuts; i = next.fetch_add(1)) {
        int k = window_at(i) * kWindowKeys + i % kWindowKeys;
        if (!cluster_->Put(Key(k), std::string(100, 'v')).ok()) {
          failed_ops.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      Random rng(r * 7 + 1);
      while (next.load() < kPuts) {
        int start = window_at(std::min(next.load(), kPuts - 1)) * kWindowKeys +
                    static_cast<int>(rng.Uniform(kWindowKeys));
        std::vector<std::pair<std::string, std::string>> rows;
        if (!cluster_->Scan(Key(start), kRows, &rows).ok()) {
          failed_ops.fetch_add(1);
          continue;
        }
        scans.fetch_add(1);
        int end = std::min(start + kRows, kKeys);
        std::set<int> got;
        for (const auto& row : rows) {
          got.insert(index_of(row.first));
        }
        int missed = 0;
        for (int k = start; k < end; k++) {
          missed += got.count(k) == 0;
        }
        if (missed > 0 || rows.size() != static_cast<size_t>(end - start)) {
          std::lock_guard<std::mutex> l(short_mu);
          if (short_scans++ == 0) {
            first_short = "a scan from " + Key(start) + " missed " +
                          std::to_string(missed) + " of " +
                          std::to_string(end - start) + " keys";
          }
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failed_ops.load(), 0);
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(short_scans, 0) << "of " << scans.load() << " scans; first: "
                            << first_short;
}

TEST_F(IntegrationTest, ScanSeesDeletes) {
  StartCluster(FastOptions(1, 2));
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v").ok());
  }
  ASSERT_TRUE(cluster_->Delete(Key(3)).ok());
  ASSERT_TRUE(cluster_->Delete(Key(4)).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(2), 4, &got).ok());
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].first, Key(2));
  EXPECT_EQ(got[1].first, Key(5));
  EXPECT_EQ(got[2].first, Key(6));
  EXPECT_EQ(got[3].first, Key(7));
}

// A StoC block read that fails mid-scan makes the table iterator skip that
// block. The scan must notice and re-read the stretch instead of returning
// OK with the block's keys missing.
TEST_F(IntegrationTest, ScanRetriesStretchAfterFailedBlockRead) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 400; i++) {
    std::string value = std::string(100, 'v') + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(Key(i), value).ok());
    oracle[Key(i)] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  // Warm scan: table readers are open, so the next scan's StoC reads are
  // data blocks only.
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(0), 400, &got).ok());
  ASSERT_EQ(got.size(), 400u);

  got.clear();
  util::FailPoint::EnableError(
      "stoc.read", Status::IOError("injected block read fault"),
      util::FailPoint::Trigger::Once().AfterSkipping(3));
  Status s = cluster_->Scan(Key(0), 400, &got);
  EXPECT_EQ(util::FailPoint::FireCount("stoc.read"), 1u);
  util::FailPoint::DisableAll();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [key, value] : got) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value, it->second);
    ++it;
  }
}

// The stretch retry above is counted once per re-collected stretch.
TEST_F(IntegrationTest, ScanStretchRetryIsCounted) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), std::string(100, 'v')).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(0), 400, &got).ok());
  ASSERT_EQ(got.size(), 400u);

  uint64_t before = engine->scan_stretch_retries();
  got.clear();
  util::FailPoint::EnableError(
      "stoc.read", Status::IOError("injected block read fault"),
      util::FailPoint::Trigger::Once().AfterSkipping(3));
  Status s = cluster_->Scan(Key(0), 400, &got);
  EXPECT_EQ(util::FailPoint::FireCount("stoc.read"), 1u);
  util::FailPoint::DisableAll();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got.size(), 400u);
  EXPECT_EQ(engine->scan_stretch_retries(), before + 1);
}

// A scan whose last row is the last entry of a data block reads no block
// past it: stepping the merge past its last row would fetch the next
// block only to throw it away.
TEST_F(IntegrationTest, ScanStopsAtItsLastRow) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.enable_dranges = false;  // one memtable, flushed as one table
  opt.range.num_active_memtables = 1;
  opt.range.memtable_size = 1 << 20;
  opt.range.max_sstable_size = 1 << 20;
  opt.range.lsm.l0_compaction_trigger_bytes = 64 << 20;  // stays in L0
  StartCluster(opt);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), std::string(200, 'v')).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  lsm::VersionRef version = engine->versions()->current();
  ASSERT_EQ(version->files(0).size(), 1u);
  lsm::TableCache::Handle table;
  ASSERT_TRUE(
      engine->table_cache()->GetReader(version->files(0)[0], &table).ok());
  // Key index of each data block's last entry, from the index block.
  InternalKeyComparator icmp;
  Block index(table.reader->meta().index_contents);
  std::unique_ptr<Iterator> index_iter(index.NewIterator(&icmp));
  std::vector<int> block_ends;
  for (index_iter->SeekToFirst(); index_iter->Valid(); index_iter->Next()) {
    Slice last = ExtractUserKey(index_iter->key());
    for (int i = 0; i < 200; i++) {
      if (last == Slice(Key(i))) {
        block_ends.push_back(i);
      }
    }
  }
  ASSERT_GT(block_ends.size(), 3u);

  stoc::StocClient* client = cluster_->ltc(0)->stoc_client();
  for (size_t b = 0; b + 1 < block_ends.size(); b++) {
    for (int rows : {1, 3}) {
      SCOPED_TRACE("block " + std::to_string(b) + ", " +
                   std::to_string(rows) + " rows");
      std::vector<std::pair<std::string, std::string>> got;
      uint64_t reads = client->read_block_calls();
      ASSERT_TRUE(
          cluster_->Scan(Key(block_ends[b] - rows + 1), rows, &got).ok());
      EXPECT_EQ(client->read_block_calls() - reads, 1u);
      ASSERT_EQ(got.size(), static_cast<size_t>(rows));
      EXPECT_EQ(got.back().first, Key(block_ends[b]));
    }
  }
}

// A writer parked on the L0 stall is counted while it waits, released by
// a decommission, and charged the time it waited.
TEST_F(IntegrationTest, L0StallIsCountedAndReleasedByDecommission) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.lsm.l0_stop_bytes = 1;
  opt.range.lsm.l0_compaction_trigger_bytes = 64 << 20;  // never drains
  opt.range.enable_memtable_merge = false;  // small memtables still flush
  StartCluster(opt);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v").ok());
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  ASSERT_GE(engine->l0_bytes(), opt.range.lsm.l0_stop_bytes);

  Status put_status;
  std::thread writer([&] { put_status = engine->Put(Key(50), "parked"); });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool parked = false;
  while (!parked && std::chrono::steady_clock::now() < deadline) {
    parked = cluster_->TotalStats().stall_events >= 1;
    if (!parked) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  engine->BeginDecommission();
  writer.join();
  EXPECT_TRUE(parked) << "the put never reached the L0 stall";
  EXPECT_TRUE(put_status.IsUnavailable()) << put_status.ToString();
  EXPECT_GT(cluster_->TotalStats().stall_us, 0u);
}

// Regression: in the LevelDB*/RocksDB* ablation (no range index) Scan
// merges the whole table set in one pass, but used to step `pos = upper`
// and re-collect the same set forever whenever a non-final range held
// fewer than num_records keys past the start — bench_table07's SW50
// baseline row hung on exactly this.
TEST_F(IntegrationTest, BaselineScanTerminatesAtRangeBoundary) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.enable_range_index = false;
  opt.range.enable_dranges = false;
  opt.range.enable_lookup_index = false;
  opt.split_points = bench::EvenSplitPoints(100, 4);  // 4 ranges, 25 keys each
  StartCluster(opt);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  // Start two keys before the first range boundary and ask for ten: the
  // first range supplies two, the rest stream from the ranges after it.
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(23), 10, &got).ok());
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(got[i].first, Key(23 + i));
  }
}

TEST_F(IntegrationTest, MultiLtcRouting) {
  ClusterOptions opt = FastOptions(2, 2);
  opt.split_points = bench::EvenSplitPoints(1000, 4);  // 4 ranges, 2 LTCs
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1000; i += 7) {
    std::string key = Key(i);
    ASSERT_TRUE(cluster_->Put(key, "v" + std::to_string(i)).ok());
    oracle[key] = "v" + std::to_string(i);
  }
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
  // A scan crossing a range boundary (read committed across ranges).
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(cluster_->Scan(Key(245), 5, &got).ok());
  EXPECT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].first, Key(245));
  EXPECT_EQ(got[1].first, Key(252));
}

// A scan goes on to the next LTC whenever it still wants rows, also when
// the LTC it started on, or one it passed, had no rows for it.
TEST_F(IntegrationTest, ScanContinuesPastLtcsWithNoRows) {
  ClusterOptions opt = FastOptions(3, 2);
  opt.split_points = {Key(100), Key(200)};  // one range per LTC
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i : {90, 91, 92, 93, 94}) {
    oracle[Key(i)] = "v" + std::to_string(i);
  }
  for (int i = 200; i < 220; i++) {
    oracle[Key(i)] = "v" + std::to_string(i);
  }
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(cluster_->Put(key, value).ok());
  }
  // LTC 1, which owns [Key(100), Key(200)), holds nothing.
  for (int start : {5, 92, 95, 99, 150}) {
    SCOPED_TRACE(start);
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(cluster_->Scan(Key(start), 10, &got).ok());
    std::vector<std::pair<std::string, std::string>> expected;
    for (auto it = oracle.lower_bound(Key(start));
         it != oracle.end() && expected.size() < 10; ++it) {
      expected.push_back(*it);
    }
    ASSERT_EQ(expected.size(), 10u);
    EXPECT_EQ(got, expected);
  }
}

// Every range a scan crosses waits out an LTC recovery, not only the
// first: a scan that reaches the range of a crashed LTC waits for the
// range to recover instead of returning OK with the rows it has so far.
TEST_F(IntegrationTest, ScanWaitsForTheNextRangesLtc) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = {Key(100)};  // one range per LTC
  StartCluster(opt);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  for (int l = 0; l < 2; l++) {
    for (auto* engine : cluster_->ltc(l)->ranges()) {
      engine->FlushAllMemtables();
      engine->WaitForQuiescence(/*flush_all=*/true);
    }
  }
  cluster_->KillLtc(1);
  Status recovered;
  std::thread recovery([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    recovered = cluster_->RecoverLtcRanges(1, 0, 2);
  });
  std::vector<std::pair<std::string, std::string>> got;
  Status s = cluster_->Scan(Key(90), 20, &got);
  recovery.join();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(got[i].first, Key(90 + i));
    EXPECT_EQ(got[i].second, "v" + std::to_string(90 + i));
  }
}

TEST_F(IntegrationTest, MemtableMergeAvoidsFlushes) {
  ClusterOptions opt = FastOptions(1, 2);
  opt.range.unique_key_threshold = 50;
  StartCluster(opt);
  // Hammer a handful of keys: memtables fill with versions of few unique
  // keys and must merge instead of flushing (Section 4.2).
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i % 5), "value-" + std::to_string(i)).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->WaitForQuiescence();
  auto stats = engine->stats();
  EXPECT_GT(stats.memtable_merges, 0u);
  // The latest values are still correct.
  std::string value;
  ASSERT_TRUE(cluster_->Get(Key(0), &value).ok());
  EXPECT_TRUE(value.rfind("value-", 0) == 0);
}

TEST_F(IntegrationTest, LtcCrashRecoveryFromLogsAndManifest) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  Random rng(13);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  // Some data flushed, some still in memtables backed only by log records.
  cluster_->KillLtc(0);
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  auto* recovered = cluster_->ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key
                          << " newest=" << recovered->DebugFindNewest(key)
                          << " index=" << recovered->DebugLookupState(key);
  }
}

// A put whose log append fails is not acknowledged from the memtable
// alone: it retries in a memtable whose record reaches the log, so an LTC
// crash right after loses none of the acknowledged puts.
TEST_F(IntegrationTest, PutIsAckedOnlyOnceItsRecordIsLogged) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  for (int i = 0; i < 50; i++) {
    util::FailPoint::EnableError("logc.append",
                                 Status::Unavailable("injected"),
                                 util::FailPoint::Trigger::Once());
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  util::FailPoint::DisableAll();
  cluster_->KillLtc(0);
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  int lost = 0;
  for (int i = 0; i < 50; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    if (!s.ok() || got != "v" + std::to_string(i)) {
      lost++;
    }
  }
  EXPECT_EQ(lost, 0) << "of 50 acknowledged puts";
}

/// Seeded repro loop for the recovery stale-read flake: the lookup-index
/// rebuild used to re-index only L0, so a key whose newest version had
/// already been compacted into L1+ before the crash got a consistent-but-
/// stale index entry (live operation leaves a dangling slot carrying the
/// newest seq instead). 20 seeds run the whole crash/recover/verify path;
/// each is its own ctest entry, so the loop parallelizes under ctest -j.
class RecoveryRepro : public testing::TestWithParam<int> {};

TEST_P(RecoveryRepro, CrashRecoveryMatchesOracle) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  Random rng(GetParam());
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  cluster.KillLtc(0);
  ASSERT_TRUE(cluster.RecoverLtcRanges(0, 1, 4).ok());
  auto* recovered = cluster.ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key
                          << " newest=" << recovered->DebugFindNewest(key)
                          << " index=" << recovered->DebugLookupState(key);
  }
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryRepro, testing::Range(200, 220));

TEST_F(IntegrationTest, RangeMigrationPreservesData) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  Random rng(14);
  for (int i = 0; i < 2000; i++) {
    std::string key = Key(rng.Uniform(400));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  ASSERT_TRUE(cluster_->MigrateRange(0, 1, 4).ok());
  auto* migrated = cluster_->ltc(1)->GetRange(0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value) << key
                          << " newest=" << migrated->DebugFindNewest(key)
                          << " index=" << migrated->DebugLookupState(key);
  }
  // The migrated range keeps serving writes on the new LTC.
  ASSERT_TRUE(cluster_->Put(Key(1), "after-migration").ok());
  std::string got;
  ASSERT_TRUE(cluster_->Get(Key(1), &got).ok());
  EXPECT_EQ(got, "after-migration");
}

TEST_F(IntegrationTest, StocFailureWithReplicationKeepsReads) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string key = Key(i % 300);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  cluster_->KillStoc(1);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, StocFailureWithParityReconstructs) {
  ClusterOptions opt = FastOptions(1, 4);
  opt.placement.rho = 3;
  opt.placement.use_parity = true;
  opt.placement.num_meta_replicas = 3;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string key = Key(i % 300);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  // Evict cached readers so reads re-resolve through (possibly degraded)
  // fragment fetches.
  cluster_->KillStoc(2);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, OffloadedCompactionProducesSameData) {
  // Run the identical workload against a local-compaction cluster and an
  // offloaded one, then assert both expose the exact same logical
  // key/value set (which also matches the oracle). Scans read through
  // every level, so differing compaction outputs would diverge here.
  auto run_workload =
      [](Cluster* cluster) -> std::map<std::string, std::string> {
    std::map<std::string, std::string> oracle;
    Random rng(15);
    for (int i = 0; i < 5000; i++) {
      std::string key = Key(rng.Uniform(600));
      std::string value = "v" + std::to_string(i);
      EXPECT_TRUE(cluster->Put(key, value).ok());
      oracle[key] = value;
    }
    auto* engine = cluster->ltc(0)->ranges()[0];
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(true);
    return oracle;
  };
  auto scan_all = [](Cluster* cluster) {
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE(cluster->Scan("", 100000, &out).ok());
    return out;
  };

  ClusterOptions local_opt = FastOptions(1, 3);
  local_opt.range.offload_compaction = false;
  StartCluster(local_opt);
  std::map<std::string, std::string> oracle = run_workload(cluster_.get());
  auto local_contents = scan_all(cluster_.get());
  EXPECT_GT(cluster_->ltc(0)->ranges()[0]->stats().compactions, 0u);
  cluster_->Stop();

  ClusterOptions off_opt = FastOptions(1, 3);
  off_opt.range.offload_compaction = true;
  StartCluster(off_opt);
  std::map<std::string, std::string> oracle2 = run_workload(cluster_.get());
  ASSERT_EQ(oracle, oracle2);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  auto stats = engine->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.compaction_offloads, 0u);

  // Byte-identical logical contents: offloaded scan == local scan ==
  // oracle.
  auto offloaded_contents = scan_all(cluster_.get());
  ASSERT_EQ(offloaded_contents.size(), local_contents.size());
  ASSERT_EQ(offloaded_contents.size(), oracle.size());
  for (size_t i = 0; i < offloaded_contents.size(); i++) {
    EXPECT_EQ(offloaded_contents[i], local_contents[i]) << i;
  }
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, DegradedCompactionReconstructsFromParity) {
  // Compaction inputs scattered with parity keep merging correctly after
  // a StoC dies: an input's run fetch from the dead StoC fails over to
  // parity reconstruction, which rebuilds the missing fragment from the
  // surviving fragments + parity.
  ClusterOptions opt = FastOptions(1, 4);
  opt.placement.rho = 3;
  opt.placement.use_parity = true;
  opt.placement.num_meta_replicas = 3;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(i % 400);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  uint64_t compactions_before = engine->stats().compactions;

  // Kill a StoC holding fragments of the files written above, then keep
  // writing so the picker compacts those degraded files.
  cluster_->KillStoc(2);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(i % 400);
    std::string value = "w" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  EXPECT_GT(engine->stats().compactions, compactions_before);

  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, FailedOffloadRetriesLocally) {
  // Break every StoC's compaction handler: offloads come back empty (the
  // seed dropped such jobs on the floor); the range must fall back to
  // local execution so compactions still complete and data stays intact.
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.offload_compaction = true;
  StartCluster(opt);
  for (int i = 0; i < 3; i++) {
    cluster_->stoc(i)->set_compaction_handler(
        [](rdma::NodeId, const Slice&) -> std::string { return ""; });
  }
  std::map<std::string, std::string> oracle;
  Random rng(16);
  for (int i = 0; i < 4000; i++) {
    std::string key = Key(rng.Uniform(500));
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  auto stats = engine->stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.compaction_offloads, 0u);
  EXPECT_GT(stats.compaction_offload_failures, 0u);
  EXPECT_EQ(stats.compaction_local_fallbacks,
            stats.compaction_offload_failures);
  for (const auto& [key, value] : oracle) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, AddStocAndGracefulRemove) {
  ClusterOptions opt = FastOptions(1, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1200; i++) {
    std::string key = Key(i % 250);
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  int added = cluster_->AddStoc();
  EXPECT_EQ(added, 2);
  // New writes may now land on the new StoC.
  for (int i = 0; i < 1200; i++) {
    std::string key = Key(300 + i % 250);
    ASSERT_TRUE(cluster_->Put(key, "n" + std::to_string(i)).ok());
    oracle[key] = "n" + std::to_string(i);
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  // A StoC that holds a MANIFEST replica leaves like any other: the
  // removal moves the replica (manifest_replicas = 2 on 3 StoCs).
  Status removed_first = cluster_->RemoveStocGraceful(0);
  ASSERT_TRUE(removed_first.ok()) << removed_first.ToString();
  EXPECT_EQ(cluster_->AliveStocNodes().size(), 2u);
  std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
  EXPECT_EQ(manifest.size(), 2u);
  EXPECT_EQ(std::count(manifest.begin(), manifest.end(), Cluster::StocNode(0)),
            0);

  // Gracefully remove the added StoC: its blocks must be copied elsewhere
  // first.
  auto pieces_on_added = [&] {
    int n = 0;
    lsm::VersionRef v = engine->versions()->current();
    for (int level = 0; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        lsm::ForEachPiece(
            *f, [&](lsm::PieceKind, int, const lsm::BlockLocation& loc) {
              n += loc.stoc_id == Cluster::StocNode(added);
            });
      }
    }
    return n;
  };
  ASSERT_GT(pieces_on_added(), 0);
  Status removed = cluster_->RemoveStocGraceful(added);
  ASSERT_TRUE(removed.ok()) << removed.ToString();
  EXPECT_EQ(pieces_on_added(), 0);
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value);
  }
}

TEST_F(IntegrationTest, FlushCommitDoesNotBlockGetsOrRouting) {
  // One LTC, two ranges. A delay at the MANIFEST append holds range 0's
  // next flush commit while a Get and RouteKey run.
  ClusterOptions opt = FastOptions(1, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.range.enable_memtable_merge = false;
  StartCluster(opt);
  ltc::LtcServer* ltc = cluster_->ltc(0);
  ltc::RangeEngine* flushing = ltc->GetRange(0);
  ltc::RangeEngine* other = ltc->GetRange(1);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  flushing->FlushAllMemtables();
  flushing->WaitForQuiescence();
  size_t l0_before = flushing->versions()->current()->files(0).size();
  ASSERT_GT(l0_before, 0u);

  constexpr int kManifestLatencyMs = 1500;
  util::FailPoint::EnableDelay("ltc.manifest_append",
                               kManifestLatencyMs * 1000,
                               util::FailPoint::Trigger::Once());
  for (int i = 100; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  flushing->FlushAllMemtables();
  // The flush writes its SSTable, then commits its edit with a MANIFEST
  // append that the failpoint holds for kManifestLatencyMs.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (util::FailPoint::FireCount("ltc.manifest_append") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(util::FailPoint::FireCount("ltc.manifest_append"), 1u)
      << "the flush never reached its MANIFEST append";

  auto timed = [](auto call) {
    return std::async(std::launch::async, [call] {
      auto start = std::chrono::steady_clock::now();
      call();
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - start)
          .count();
    });
  };
  std::string value;
  Status get_status;
  ltc::RangeEngine* routed = nullptr;
  auto get = timed([&] { get_status = flushing->Get(Key(7), &value); });
  auto route = timed([&] { routed = ltc->RouteKey(Key(900)); });
  double get_ms = get.get();
  double route_ms = route.get();
  size_t l0_after = flushing->versions()->current()->files(0).size();

  EXPECT_EQ(l0_after, l0_before)
      << "the flush committed before the Get and RouteKey returned";
  EXPECT_LT(get_ms, kManifestLatencyMs / 2);
  EXPECT_LT(route_ms, kManifestLatencyMs / 2);
  ASSERT_TRUE(get_status.ok()) << get_status.ToString();
  EXPECT_EQ(value, "v7");
  EXPECT_EQ(routed, other);
  flushing->WaitForQuiescence();
  EXPECT_GT(flushing->versions()->current()->files(0).size(), l0_before);
}

TEST_F(IntegrationTest, SharedNothingPlacementRestrictsStocs) {
  ClusterOptions opt = FastOptions(2, 2);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  baseline::MakeSharedNothing(cluster_.get());
  for (int i = 0; i < 1500; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i % 400), std::string(200, 'x')).ok());
  }
  auto* engine = cluster_->ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  // Every SSTable block of range 0 lives on StoC 0.
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      for (const auto& replicas : f->fragments) {
        for (const auto& loc : replicas) {
          EXPECT_EQ(loc.stoc_id, coord::Cluster::StocNode(0));
        }
      }
    }
  }
  // So does each range's MANIFEST: range r's only replica is on StoC r.
  for (int r = 0; r < 2; r++) {
    ltc::RangeEngine* range = cluster_->ltc(r)->GetRange(r);
    range->WaitForQuiescence();
    EXPECT_EQ(range->manifest_stocs(),
              std::vector<rdma::NodeId>{coord::Cluster::StocNode(r)})
        << "range " << r;
  }
}


/// Polls cond until it holds or timeout_ms pass; returns whether it held.
template <typename Cond>
bool WaitUntil(Cond cond, int timeout_ms = 10000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A minor reorganization retires the active memtables of the two Dranges
// it moved a Trange between; every other Drange keeps its active
// memtable, which goes on taking that Drange's writes.
TEST_F(IntegrationTest, MinorReorgRotatesOnlyTheDrangesItMoved) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.memtable_size = 4 << 20;  // no memtable fills up
  opt.range.drange.warmup_writes = 400;
  opt.range.drange.epsilon = 0.15;  // minor above a 0.40 share
  StartCluster(opt);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  ltc::DrangeManager* dranges = engine->dranges();
  constexpr int kKeys = 4000;
  // Uniform writes until the first major reorganization builds θ = 4
  // Dranges; it restarts the write counts.
  Random rng(21);
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(cluster_->Put(Key(rng.Uniform(kKeys)), "w").ok());
  }
  ASSERT_TRUE(WaitUntil([&] { return dranges->num_major_reorgs() == 1; }));
  const int n = dranges->num_dranges();
  ASSERT_EQ(n, 4);
  std::vector<std::pair<std::string, std::string>> bounds(n);
  std::vector<std::vector<int>> keys(n);
  for (int d = 0; d < n; d++) {
    bounds[d] = dranges->DrangeBounds(d);
    for (int k = 0; k < kKeys; k++) {
      std::string key = Key(k);
      if (key >= bounds[d].first &&
          (bounds[d].second.empty() || key < bounds[d].second)) {
        keys[d].push_back(k);
      }
    }
    ASSERT_FALSE(keys[d].empty()) << "Drange " << d;
  }
  // One put per Drange creates its active memtable; the lookup index names
  // the memtable that took it.
  auto mid_of = [&](int k) {
    std::string state = engine->DebugLookupState(Key(k));
    return state.substr(0, state.find(' '));
  };
  std::vector<std::string> mids(n);
  for (int d = 0; d < n; d++) {
    int k = keys[d][keys[d].size() / 2];
    ASSERT_TRUE(cluster_->Put(Key(k), "probe").ok());
    mids[d] = mid_of(k);
  }
  // Drange 0 takes 9 of every 20 writes: a share above 1/θ + ε but below
  // the major reorganization's 2/θ. Moving its last Trange to Drange 1
  // balances the load.
  for (int i = 0; i < 396; i++) {
    int d = i % 20 < 9 ? 0 : 1 + i % 3;
    ASSERT_TRUE(
        cluster_->Put(Key(keys[d][rng.Uniform(keys[d].size())]), "w").ok());
  }
  ASSERT_TRUE(WaitUntil([&] {
    return dranges->num_minor_reorgs() > 0 && !dranges->NeedsReorg();
  }));
  ASSERT_EQ(dranges->num_major_reorgs(), 1u);
  int kept = 0;
  for (int d = 0; d < n; d++) {
    if (dranges->DrangeBounds(d) != bounds[d]) {
      continue;
    }
    kept++;
    int k = keys[d][keys[d].size() / 2];
    ASSERT_TRUE(cluster_->Put(Key(k), "after").ok());
    EXPECT_EQ(mid_of(k), mids[d]) << "Drange " << d << " kept its bounds";
  }
  EXPECT_GE(kept, 1);
  EXPECT_LT(kept, n);
}

/// SSTable pieces (data, metadata, parity) of the engine's range on the
/// cluster's StoCs whose number satisfies pred.
template <typename Pred>
int RangePieces(Cluster* cluster, ltc::RangeEngine* engine, Pred pred) {
  stoc::StocClient* client = cluster->ltc(0)->stoc_client();
  int n = 0;
  for (int i = 0; i < cluster->num_stocs(); i++) {
    std::vector<uint64_t> files;
    EXPECT_TRUE(client->ListFiles(Cluster::StocNode(i), &files).ok());
    for (uint64_t file_id : files) {
      stoc::FileKind kind = stoc::FileIdKind(file_id);
      if (stoc::FileIdRange(file_id) == engine->options().range_id &&
          kind != stoc::FileKind::kLog && kind != stoc::FileKind::kManifest &&
          pred(stoc::FileIdNumber(file_id))) {
        n++;
      }
    }
  }
  return n;
}

/// Pieces under a number the engine does not count as live.
int UnreferencedPieces(Cluster* cluster, ltc::RangeEngine* engine) {
  return RangePieces(cluster, engine, [engine](uint64_t number) {
    return !engine->IsFileNumberLive(number);
  });
}

TEST_F(IntegrationTest, FlushPipelineKeepsTwoWritesPerStoc) {
  // Flush threads arm SSTables and return, so more SSTables are in flight
  // than there are flush threads (4), at most kMaxFlushWritesPerStoc on
  // each StoC, before the first one commits. Memtables are large and
  // Dranges off (no reorganization), so only FlushAllMemtables rotates the
  // 8 actives.
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 8;
  opt.range.enable_memtable_merge = false;
  opt.range.memtable_size = 1 << 20;
  opt.range.max_memtables = 32;
  StartCluster(opt);
  ltc::RangeEngine* engine = cluster_->ltc(0)->ranges()[0];
  stoc::StocClient* client = cluster_->ltc(0)->stoc_client();
  std::string value(100, 'v');
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), value + std::to_string(i)).ok());
  }
  ASSERT_EQ(engine->num_memtables(), 8);
  uint64_t flushes_before = engine->stats().flushes;
  // Slow disks hold every write in flight while the test looks.
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    cluster_->device(i)->InjectLatency(300 * 1000);
  }
  engine->FlushAllMemtables();
  auto in_flight = [&] {
    int total = 0;
    for (int i = 0; i < cluster_->num_stocs(); i++) {
      total += client->writes_in_flight(Cluster::StocNode(i));
    }
    return total;
  };
  const int kFull = ltc::kMaxFlushWritesPerStoc * cluster_->num_stocs();
  ASSERT_TRUE(WaitUntil([&] { return in_flight() == kFull; }))
      << "in flight: " << in_flight() << " " << engine->DebugMaintenanceState();
  EXPECT_EQ(engine->stats().flushes, flushes_before)
      << "an SSTable committed before " << kFull << " were in flight";

  for (int i = 0; i < cluster_->num_stocs(); i++) {
    cluster_->device(i)->InjectLatency(0);
  }
  engine->WaitForQuiescence();
  EXPECT_EQ(client->peak_writes_in_flight(), ltc::kMaxFlushWritesPerStoc);
  EXPECT_EQ(in_flight(), 0);
  EXPECT_GE(engine->stats().flushes - flushes_before, 8u);
  for (int i = 0; i < 800; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
    EXPECT_EQ(got, value + std::to_string(i));
  }
}

TEST_F(IntegrationTest, FailedFlushLeavesNoPiecesBehind) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_memtable_merge = false;
  StartCluster(opt);
  ltc::RangeEngine* engine = cluster_->ltc(0)->ranges()[0];
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  engine->WaitForQuiescence();
  // Every second append fails: an SSTable's data piece or its metadata
  // piece lands and the other does not. An application error, so the
  // StoCs stay routable.
  util::FailPoint::EnableError("stoc.append", Status::IOError("injected"),
                               util::FailPoint::Trigger::EveryNth(2));
  for (int i = 300; i < 600; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  engine->FlushAllMemtables();
  ASSERT_TRUE(WaitUntil(
      [] { return util::FailPoint::FireCount("stoc.append") >= 6; }));
  util::FailPoint::Disable("stoc.append");
  engine->WaitForQuiescence(/*flush_all=*/true);

  EXPECT_EQ(UnreferencedPieces(cluster_.get(), engine), 0);
  for (int i = 0; i < 600; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
}

TEST_F(IntegrationTest, RecoveryDropsUncommittedTables) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "old" + std::to_string(i)).ok());
  }
  ltc::RangeEngine* dying = cluster_->ltc(0)->GetRange(0);
  dying->FlushAllMemtables();
  dying->WaitForQuiescence(/*flush_all=*/true);
  // SSTables the LTC wrote but never committed: pieces on every StoC
  // under the numbers it would have handed out next.
  uint64_t next = dying->versions()->NewFileNumber();
  stoc::StocClient* client = cluster_->ltc(1)->stoc_client();
  std::string orphan(4096, 'x');
  for (uint64_t number = next; number < next + 8; number++) {
    for (int i = 0; i < cluster_->num_stocs(); i++) {
      for (stoc::FileKind kind : {stoc::FileKind::kData, stoc::FileKind::kMeta}) {
        stoc::StocBlockHandle handle;
        ASSERT_TRUE(client
                        ->AppendBlock(Cluster::StocNode(i),
                                      stoc::MakeFileId(
                                          0, static_cast<uint32_t>(number),
                                          kind, 0),
                                      orphan, &handle)
                        .ok());
      }
    }
  }
  cluster_->KillLtc(0);
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 2).ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "new" + std::to_string(i)).ok());
  }
  ltc::RangeEngine* recovered = cluster_->ltc(1)->GetRange(0);
  recovered->FlushAllMemtables();
  recovered->WaitForQuiescence(/*flush_all=*/true);
  for (int i = 0; i < 200; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
    EXPECT_EQ(got, "new" + std::to_string(i))
        << Key(i) << " newest=" << recovered->DebugFindNewest(Key(i));
  }
}

TEST_F(IntegrationTest, GcKeepsTablesAwaitingCommit) {
  // As in FlushCommitDoesNotBlockGetsOrRouting: a delay at the MANIFEST
  // append holds a written SSTable's commit.
  ClusterOptions opt = FastOptions(1, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.range.enable_memtable_merge = false;
  StartCluster(opt);
  ltc::RangeEngine* flushing = cluster_->ltc(0)->GetRange(0);
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  flushing->FlushAllMemtables();
  flushing->WaitForQuiescence();

  util::FailPoint::EnableDelay("ltc.manifest_append", 1500 * 1000,
                               util::FailPoint::Trigger::Once());
  for (int i = 100; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  flushing->FlushAllMemtables();
  ASSERT_TRUE(WaitUntil([&] {
    return util::FailPoint::FireCount("ltc.manifest_append") > 0;
  })) << "the flush never reached its MANIFEST append";
  // The pieces are written and no version lists them yet.
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    ASSERT_TRUE(cluster_->GcStocFiles(i).ok());
  }
  flushing->WaitForQuiescence();
  for (int i = 0; i < 200; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
}

/// Tables that cannot be read in full straight from the StoCs, through a
/// reader cache of their own (no cached reader or block hides a lost
/// piece).
int UnreadableTables(Cluster* cluster,
                     const std::vector<lsm::FileMetaRef>& tables) {
  lsm::TableCache fresh(cluster->ltc(0)->stoc_client());
  int unreadable = 0;
  for (const auto& f : tables) {
    lsm::TableCache::Handle handle;
    Status s = fresh.GetReader(f, &handle);
    int rows = 0;
    if (s.ok()) {
      std::unique_ptr<Iterator> it(handle.reader->NewIterator());
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        rows++;
      }
      s = it->status();
    }
    if (!s.ok() || rows == 0) {
      unreadable++;
    }
  }
  return unreadable;
}

// Files outlive their readers: a version held across a compaction keeps
// every table it names readable, and the tables' pieces go once it is
// dropped.
TEST_F(IntegrationTest, HeldVersionKeepsCompactedTablesReadable) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 1;
  opt.range.enable_memtable_merge = false;
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  ltc::RangeEngine* engine = cluster_->ltc(0)->ranges()[0];
  std::string value(100, 'v');
  // A few L0 tables, under the 32 KB compaction trigger.
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), value + "first").ok());
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  lsm::VersionRef held = engine->versions()->current();
  std::vector<lsm::FileMetaRef> tables = held->files(0);
  ASSERT_GE(tables.size(), 2u);
  for (int level = 1; level < held->num_levels(); level++) {
    ASSERT_TRUE(held->files(level).empty());
  }
  // Overwrites past the trigger: L0 compacts, and every table spans the
  // keyspace, so each one the held version names is retired.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 150; i++) {
      ASSERT_TRUE(
          cluster_->Put(Key(i), value + std::to_string(round)).ok());
    }
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  std::set<uint64_t> numbers;
  for (const auto& f : tables) {
    ASSERT_EQ(engine->versions()->current()->Find(f->number), nullptr)
        << "table " << f->number << " was not compacted";
    numbers.insert(f->number);
  }
  EXPECT_EQ(UnreadableTables(cluster_.get(), tables), 0)
      << "of " << tables.size() << " tables the held version names";

  held.reset();
  tables.clear();
  engine->WaitForQuiescence();
  for (uint64_t number : numbers) {
    EXPECT_FALSE(engine->IsFileNumberLive(number)) << number;
  }
  EXPECT_EQ(RangePieces(cluster_.get(), engine,
                        [&](uint64_t n) { return numbers.count(n) > 0; }),
            0);
  for (int i = 0; i < 150; i++) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(Key(i), &got).ok()) << Key(i);
    EXPECT_EQ(got, value + "2");
  }
}

// A compaction whose MANIFEST append fails leaves its inputs in the
// version; its retries retire them once, so when one applies, the inputs'
// pieces go after all, and no failed attempt leaves its outputs behind.
TEST_F(IntegrationTest, CompactionRetriedAfterFailedApplyDeletesItsInputs) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 1;
  opt.range.enable_memtable_merge = false;
  opt.range.memtable_size = 1 << 20;  // one SSTable per flush
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  ltc::RangeEngine* engine = cluster_->ltc(0)->ranges()[0];
  std::string value(100, 'v');
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), value + "first").ok());
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  ASSERT_EQ(engine->versions()->current()->files(0).size(), 1u);
  // The second flush passes the 32 KB trigger. Slow disks keep the
  // compaction from its MANIFEST append until every append fails.
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    cluster_->device(i)->InjectLatency(300 * 1000);
  }
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), value + "second").ok());
  }
  engine->FlushAllMemtables();
  ASSERT_TRUE(WaitUntil(
      [&] { return engine->versions()->current()->files(0).size() == 2; }));
  util::FailPoint::EnableError("ltc.manifest_append",
                               Status::IOError("injected manifest failure"));
  std::set<uint64_t> numbers;
  for (const auto& f : engine->versions()->current()->files(0)) {
    numbers.insert(f->number);
  }
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    cluster_->device(i)->InjectLatency(0);
  }
  // Output bytes count for every attempt, applied or not: wait for two.
  uint64_t first = 0;
  ASSERT_TRUE(WaitUntil([&] {
    first = cluster_->TotalStats().compaction_bytes_written;
    return first > 0;
  }));
  ASSERT_TRUE(WaitUntil([&] {
    return cluster_->TotalStats().compaction_bytes_written >= 2 * first;
  }));
  ASSERT_EQ(cluster_->TotalStats().compactions, 0u);

  util::FailPoint::Disable("ltc.manifest_append");
  engine->WaitForQuiescence(/*flush_all=*/true);
  for (uint64_t number : numbers) {
    ASSERT_EQ(engine->versions()->current()->Find(number), nullptr)
        << "table " << number << " was not compacted";
    EXPECT_FALSE(engine->IsFileNumberLive(number)) << number;
  }
  EXPECT_EQ(RangePieces(cluster_.get(), engine,
                        [&](uint64_t n) { return numbers.count(n) > 0; }),
            0);
  EXPECT_EQ(UnreferencedPieces(cluster_.get(), engine), 0);
  for (int i = 0; i < 150; i++) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(Key(i), &got).ok()) << Key(i);
    EXPECT_EQ(got, value + "second");
  }
}

// A range's source LTC deletes the retired tables its readers held after
// the range migrated away, once they let go.
TEST_F(IntegrationTest, MigratedRangeDeletesHeldTablesAfterRelease) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 1;
  opt.range.enable_memtable_merge = false;
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  ltc::RangeEngine* source = cluster_->ltc(0)->GetRange(0);
  std::string value(100, 'v');
  for (int i = 0; i < 150; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), value + "first").ok());
  }
  source->FlushAllMemtables();
  source->WaitForQuiescence();
  lsm::VersionRef held = source->versions()->current();
  std::set<uint64_t> numbers;
  for (const auto& f : held->files(0)) {
    numbers.insert(f->number);
  }
  ASSERT_GE(numbers.size(), 2u);
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 150; i++) {
      ASSERT_TRUE(
          cluster_->Put(Key(i), value + std::to_string(round)).ok());
    }
  }
  source->FlushAllMemtables();
  source->WaitForQuiescence(/*flush_all=*/true);
  for (uint64_t number : numbers) {
    ASSERT_EQ(source->versions()->current()->Find(number), nullptr)
        << "table " << number << " was not compacted";
  }
  ASSERT_TRUE(cluster_->MigrateRange(0, 1, 2).ok());
  ltc::RangeEngine* destination = cluster_->ltc(1)->GetRange(0);
  ASSERT_NE(destination, nullptr);
  EXPECT_GT(RangePieces(cluster_.get(), destination,
                        [&](uint64_t n) { return numbers.count(n) > 0; }),
            0);

  held.reset();
  EXPECT_TRUE(WaitUntil([&] {
    return RangePieces(cluster_.get(), destination, [&](uint64_t n) {
             return numbers.count(n) > 0;
           }) == 0;
  }));
  for (int i = 0; i < 150; i++) {
    std::string got;
    ASSERT_TRUE(cluster_->Get(Key(i), &got).ok()) << Key(i);
    EXPECT_EQ(got, value + "2");
  }
}

// GC asks a range only through an alive LTC that hosts it: a crashed
// range keeps every piece until recovery installs its version.
TEST_F(IntegrationTest, GcBetweenLtcCrashAndRecoveryLosesNoKey) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  Random rng(15);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0 only
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(key, value).ok());
    oracle[key] = value;
  }
  ltc::RangeEngine* dying = cluster_->ltc(0)->GetRange(0);
  dying->FlushAllMemtables();
  dying->WaitForQuiescence(/*flush_all=*/true);
  cluster_->KillLtc(0);
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    ASSERT_TRUE(cluster_->GcStocFiles(i).ok());
  }
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  int lost = 0;
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster_->ltc(1)->Get(key, &got);
    if (!s.ok() || got != value) {
      lost++;
    }
  }
  EXPECT_EQ(lost, 0) << "of " << oracle.size() << " keys";
}

// A removed StoC fails the RPCs waiting on it at once: an armed flush
// whose acknowledgment sits on the dead StoC's slow disk fails, its
// memtables go back to the queue and flush to the StoCs left, well before
// the 30 s acknowledgment deadline.
TEST_F(IntegrationTest, KilledStocFailsArmedFlushAtOnce) {
  ClusterOptions opt = FastOptions(1, 3);
  opt.range.enable_dranges = false;
  opt.range.num_active_memtables = 1;
  opt.range.enable_memtable_merge = false;
  opt.range.memtable_size = 1 << 20;  // one memtable, one SSTable
  opt.range.manifest_replicas = 1;
  StartCluster(opt);
  ltc::RangeEngine* engine = cluster_->ltc(0)->ranges()[0];
  // Two placement StoCs: every SSTable puts a piece on each of them.
  engine->placer()->UpdateStocs({Cluster::StocNode(1), Cluster::StocNode(2)});
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_->device(2)->InjectLatency(3000 * 1000);
  engine->FlushAllMemtables();
  ASSERT_TRUE(WaitUntil([&] { return cluster_->device(2)->QueueDepth() > 0; }))
      << "the flush never reached StoC 2";
  auto start = std::chrono::steady_clock::now();
  // The dead StoC's server finishes its slow disk work in the background.
  std::thread killer([&] { cluster_->KillStoc(2); });
  engine->WaitForQuiescence();
  auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  killer.join();
  EXPECT_LT(elapsed_ms, 2000) << engine->DebugMaintenanceState();
  EXPECT_EQ(engine->num_memtables(), 0);
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      lsm::ForEachPiece(*f, [&](lsm::PieceKind, int,
                                const lsm::BlockLocation& loc) {
        EXPECT_NE(loc.stoc_id, Cluster::StocNode(2)) << "file " << f->number;
      });
    }
  }
  for (int i = 0; i < 400; i++) {
    std::string got;
    Status s = cluster_->Get(Key(i), &got);
    ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
}

/// A cluster whose SSTables keep a readable copy of every piece through
/// one StoC death (two data replicas, three metadata replicas), so a test
/// of the MANIFEST loses no key to the SSTables themselves.
ClusterOptions ManifestOptions(int ltcs, int manifest_replicas) {
  ClusterOptions opt = FastOptions(ltcs, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.range.manifest_replicas = manifest_replicas;
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 3;
  return opt;
}

/// StoC index of a StoC node.
int StocIndex(rdma::NodeId node) { return node - Cluster::StocNode(0); }

bool Lists(const std::vector<rdma::NodeId>& stocs, rdma::NodeId stoc) {
  return std::find(stocs.begin(), stocs.end(), stoc) != stocs.end();
}

/// Keys of the oracle that do not read back their value through `ltc`.
int LostKeys(ltc::LtcServer* ltc,
             const std::map<std::string, std::string>& oracle) {
  int lost = 0;
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = ltc->Get(key, &got);
    lost += !s.ok() || got != value;
  }
  return lost;
}

/// MANIFEST files of range 0 on a StoC.
int ManifestFiles(Cluster* cluster, int stoc) {
  std::vector<uint64_t> files;
  EXPECT_TRUE(cluster->ltc(1)
                  ->stoc_client()
                  ->ListFiles(Cluster::StocNode(stoc), &files)
                  .ok());
  return static_cast<int>(
      std::count_if(files.begin(), files.end(), [](uint64_t file_id) {
        return stoc::FileIdRange(file_id) == 0 &&
               stoc::FileIdKind(file_id) == stoc::FileKind::kManifest;
      }));
}

/// The StoC of one MANIFEST replica dies; once the range moved the replica
/// off it, the LTC crashes. Recovery finds the replicas where the range
/// put them, and every key reads its newest value. Param: manifest
/// replicas, and the position of the replica whose StoC dies.
class ManifestStocDeathTest
    : public testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ManifestStocDeathTest, LtcCrashAfterStocDeathLosesNoKey) {
  auto [replicas, position] = GetParam();
  Cluster cluster(ManifestOptions(2, replicas));
  cluster.Start();
  std::map<std::string, std::string> oracle;
  Random rng(17);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0, on LTC 0
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  ltc::RangeEngine* engine = cluster.ltc(0)->GetRange(0);
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
  ASSERT_EQ(manifest.size(), static_cast<size_t>(replicas));
  rdma::NodeId victim = manifest[position];
  cluster.KillStoc(StocIndex(victim));
  EXPECT_TRUE(
      WaitUntil([&] { return !Lists(engine->manifest_stocs(), victim); }))
      << "the range still lists the replica on the dead StoC";
  cluster.KillLtc(0);
  Status s = cluster.RecoverLtcRanges(0, 1, 4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(LostKeys(cluster.ltc(1), oracle), 0)
      << "of " << oracle.size() << " keys";
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Replicas, ManifestStocDeathTest,
                         testing::Values(std::make_pair(1, 0),
                                         std::make_pair(3, 0),
                                         std::make_pair(3, 1),
                                         std::make_pair(3, 2)));

// With one MANIFEST replica, its StoC's death moves the replica: flushes
// keep committing, so writers keep being acknowledged.
TEST_F(IntegrationTest, FlushesCommitAfterTheManifestStocDies) {
  StartCluster(ManifestOptions(1, 1));
  ltc::RangeEngine* engine = cluster_->ltc(0)->GetRange(0);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1000; i++) {
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(Key(i % 400), value).ok());
    oracle[Key(i % 400)] = value;
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
  ASSERT_EQ(manifest.size(), 1u);
  cluster_->KillStoc(StocIndex(manifest[0]));
  uint64_t flushes = engine->stats().flushes;
  // A writer stalled for good on a full δ budget never returns: after
  // 20 s the decommission releases it.
  auto writer = std::async(std::launch::async, [&] {
    int acked = 0;
    for (int i = 0; i < 3000; i++) {
      std::string value = "after" + std::to_string(i);
      if (!cluster_->Put(Key(i % 400), value).ok()) {
        break;
      }
      oracle[Key(i % 400)] = value;
      acked++;
    }
    return acked;
  });
  if (writer.wait_for(std::chrono::seconds(20)) !=
      std::future_status::ready) {
    engine->BeginDecommission();
  }
  ASSERT_EQ(writer.get(), 3000);
  EXPECT_GT(engine->stats().flushes, flushes);
  engine->FlushAllMemtables();
  engine->WaitForQuiescence();
  EXPECT_FALSE(Lists(engine->manifest_stocs(), manifest[0]));
  EXPECT_EQ(LostKeys(cluster_->ltc(0), oracle), 0)
      << "of " << oracle.size() << " keys";
}

// A range writes its MANIFEST when it is created, so a recovery that finds
// no replica fails: the range's state is unreadable, not empty. Once the
// replica's StoC returns, the range recovers.
TEST_F(IntegrationTest, RecoveryFailsWhenNoManifestReplicaAnswers) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.range.manifest_replicas = 1;
  StartCluster(opt);
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 300; i++) {
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(Key(i), value).ok());
    oracle[Key(i)] = value;
  }
  ltc::RangeEngine* dying = cluster_->ltc(0)->GetRange(0);
  dying->FlushAllMemtables();
  dying->WaitForQuiescence(/*flush_all=*/true);
  std::vector<rdma::NodeId> manifest = dying->manifest_stocs();
  ASSERT_EQ(manifest.size(), 1u);
  cluster_->KillLtc(0);
  cluster_->KillStoc(StocIndex(manifest[0]));
  Status s = cluster_->RecoverLtcRanges(0, 1, 4);
  EXPECT_FALSE(s.ok()) << "recovered range 0 without its MANIFEST";
  EXPECT_EQ(cluster_->ltc(1)->GetRange(0), nullptr);

  cluster_->RestartStoc(StocIndex(manifest[0]));
  s = cluster_->RecoverLtcRanges(0, 1, 4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(LostKeys(cluster_->ltc(1), oracle), 0)
      << "of " << oracle.size() << " keys";
}

// A StoC that returns with the MANIFEST replica its range moved off it
// holds a stale replica: it never wins a recovery, and the recovery's
// sweep deletes it, as GcStocFiles does while the LTC lives.
TEST_F(IntegrationTest, StaleManifestReplicaNeverWinsRecovery) {
  StartCluster(ManifestOptions(2, 1));
  std::map<std::string, std::string> oracle;
  auto write_round = [&](ltc::RangeEngine* engine, const std::string& tag) {
    for (int i = 0; i < 300; i++) {
      std::string value = tag + std::to_string(i);
      ASSERT_TRUE(cluster_->Put(Key(i), value).ok());
      oracle[Key(i)] = value;
    }
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(/*flush_all=*/true);
  };
  // Kills the StoC of the engine's replica and waits until it moved.
  auto kill_manifest_stoc = [&](ltc::RangeEngine* engine) {
    rdma::NodeId victim = engine->manifest_stocs()[0];
    cluster_->KillStoc(StocIndex(victim));
    EXPECT_TRUE(
        WaitUntil([&] { return !Lists(engine->manifest_stocs(), victim); }));
    return StocIndex(victim);
  };

  ltc::RangeEngine* engine = cluster_->ltc(0)->GetRange(0);
  write_round(engine, "first");
  int victim = kill_manifest_stoc(engine);
  write_round(engine, "second");
  cluster_->RestartStoc(victim);
  ASSERT_EQ(ManifestFiles(cluster_.get(), victim), 1)
      << "the returning StoC holds no stale replica";
  cluster_->KillLtc(0);
  Status s = cluster_->RecoverLtcRanges(0, 1, 4);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(LostKeys(cluster_->ltc(1), oracle), 0)
      << "of " << oracle.size() << " keys";
  EXPECT_EQ(ManifestFiles(cluster_.get(), victim), 0);

  ltc::RangeEngine* recovered = cluster_->ltc(1)->GetRange(0);
  victim = kill_manifest_stoc(recovered);
  write_round(recovered, "third");
  cluster_->RestartStoc(victim);
  ASSERT_EQ(ManifestFiles(cluster_.get(), victim), 1);
  ASSERT_TRUE(cluster_->GcStocFiles(victim).ok());
  EXPECT_EQ(ManifestFiles(cluster_.get(), victim), 0);
  EXPECT_EQ(LostKeys(cluster_->ltc(1), oracle), 0)
      << "of " << oracle.size() << " keys";
}

// Cluster::Delete waits out an LTC recovery like Put and Get.
TEST_F(IntegrationTest, DeleteWaitsForLtcRecovery) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  StartCluster(opt);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  cluster_->KillLtc(0);
  auto deleted =
      std::async(std::launch::async, [&] { return cluster_->Delete(Key(7)); });
  EXPECT_EQ(deleted.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "Delete returned while range 0 had no LTC";
  ASSERT_TRUE(cluster_->RecoverLtcRanges(0, 1, 4).ok());
  Status s = deleted.get();
  ASSERT_TRUE(s.ok()) << s.ToString();
  std::string got;
  EXPECT_TRUE(cluster_->Get(Key(7), &got).IsNotFound());
  ASSERT_TRUE(cluster_->Get(Key(8), &got).ok());
  EXPECT_EQ(got, "v8");
}

/// StoC death with one metadata replica: the tables whose only metadata
/// replica was on the dead StoC cannot be opened. A Get that needs one
/// returns an error, never an older version nor NotFound.
class StocDeathGetTest : public testing::TestWithParam<int> {};

TEST_P(StocDeathGetTest, GetAnswersNewestOrError) {
  ClusterOptions opt = FastOptions(2, 3);
  opt.split_points = bench::EvenSplitPoints(1000, 2);
  opt.placement.num_data_replicas = 2;
  Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  Random rng(16);
  for (int i = 0; i < 2500; i++) {
    std::string key = Key(rng.Uniform(400));  // range 0, on LTC 0
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  ltc::RangeEngine* engine = cluster.ltc(0)->GetRange(0);
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(/*flush_all=*/true);
  cluster.KillStoc(GetParam());
  int newest = 0;
  int errors = 0;
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster.ltc(0)->Get(key, &got);
    if (s.ok()) {
      EXPECT_EQ(got, value) << key << " answered an older version";
      newest += got == value;
    } else {
      EXPECT_FALSE(s.IsNotFound()) << key << " answered NotFound";
      errors++;
    }
  }
  EXPECT_GT(newest, 0) << errors << " errors";
  cluster.Stop();
}

INSTANTIATE_TEST_SUITE_P(Victims, StocDeathGetTest, testing::Values(0, 1));

}  // namespace
}  // namespace nova
