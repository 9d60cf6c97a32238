// The LTC-side block cache: ShardedLRUCache unit tests (charge-based
// eviction, pinning, prefix invalidation, concurrency) and end-to-end
// tests through the cluster — warm gets avoid StoC reads, a capacity-
// thrashed cache stays correct under concurrent gets/scans, and
// compacted-away files' cached blocks are invalidated (no stale reads).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "sstable/sstable_reader.h"
#include "util/cache.h"
#include "util/random.h"

namespace nova {
namespace {

using coord::Cluster;
using coord::ClusterOptions;

// ---------------------------------------------------------------------------
// ShardedLRUCache unit tests.
// ---------------------------------------------------------------------------

/// Tracks deletions so tests can observe evictions.
struct Tracker {
  std::atomic<int> deletions{0};
};

struct TrackedValue {
  Tracker* tracker;
  int id;
};

void DeleteTracked(const Slice&, void* value) {
  auto* v = static_cast<TrackedValue*>(value);
  v->tracker->deletions.fetch_add(1);
  delete v;
}

Cache::Handle* InsertTracked(Cache* cache, Tracker* tracker,
                             const std::string& key, int id, size_t charge,
                             Cache::Priority pri = Cache::Priority::kHot) {
  return cache->Insert(key, new TrackedValue{tracker, id}, charge,
                       &DeleteTracked, pri);
}

int ValueId(Cache* cache, Cache::Handle* h) {
  return static_cast<TrackedValue*>(cache->Value(h))->id;
}

TEST(ShardedLRUCacheTest, InsertLookupErase) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(1 << 20));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "a", 1, 10));
  cache->Release(InsertTracked(cache.get(), &tracker, "b", 2, 10));

  Cache::Handle* h = cache->Lookup("a");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(ValueId(cache.get(), h), 1);
  cache->Release(h);

  cache->Erase("a");
  EXPECT_EQ(cache->Lookup("a"), nullptr);
  EXPECT_EQ(tracker.deletions.load(), 1);
  EXPECT_EQ(cache->TotalCharge(), 10u);

  h = cache->Lookup("b");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(ValueId(cache.get(), h), 2);
  cache->Release(h);
}

TEST(ShardedLRUCacheTest, InsertDisplacesSameKey) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(1 << 20));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "k", 1, 10));
  cache->Release(InsertTracked(cache.get(), &tracker, "k", 2, 10));
  EXPECT_EQ(tracker.deletions.load(), 1);  // first value reclaimed
  Cache::Handle* h = cache->Lookup("k");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(ValueId(cache.get(), h), 2);
  cache->Release(h);
  EXPECT_EQ(cache->TotalCharge(), 10u);
}

TEST(ShardedLRUCacheTest, ChargeBasedLRUEviction) {
  // One shard so recency order is global and deterministic.
  std::unique_ptr<Cache> cache(NewShardedLRUCache(100, /*shard_bits=*/0));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "a", 1, 40));
  cache->Release(InsertTracked(cache.get(), &tracker, "b", 2, 40));
  // Touch "a" so "b" is the LRU victim.
  Cache::Handle* h = cache->Lookup("a");
  cache->Release(h);
  cache->Release(InsertTracked(cache.get(), &tracker, "c", 3, 40));

  EXPECT_EQ(cache->Lookup("b"), nullptr);  // evicted
  h = cache->Lookup("a");
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  h = cache->Lookup("c");
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  EXPECT_EQ(tracker.deletions.load(), 1);
  EXPECT_LE(cache->TotalCharge(), 100u);
}

TEST(ShardedLRUCacheTest, PinnedEntriesSurviveEviction) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(50, /*shard_bits=*/0));
  Tracker tracker;
  Cache::Handle* pinned = InsertTracked(cache.get(), &tracker, "pin", 1, 40);

  // Thrash far past capacity: the pinned entry may be detached from the
  // cache but its value must stay alive while the handle is held.
  for (int i = 0; i < 20; i++) {
    cache->Release(
        InsertTracked(cache.get(), &tracker, "k" + std::to_string(i), i, 40));
  }
  EXPECT_EQ(ValueId(cache.get(), pinned), 1);
  int deletions_while_pinned = tracker.deletions.load();
  cache->Release(pinned);
  // Once released, the (evicted or resident) entry is reclaimable; erase
  // in case it is still resident.
  cache->Erase("pin");
  EXPECT_GE(tracker.deletions.load(), deletions_while_pinned);
  EXPECT_LE(cache->TotalCharge(), 50u);
}

TEST(ShardedLRUCacheTest, EraseWithPrefix) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(1 << 20));
  Tracker tracker;
  std::string file_a = BlockCachePrefix(7, 42);
  std::string file_b = BlockCachePrefix(7, 43);
  for (uint64_t off = 0; off < 5; off++) {
    cache->Release(InsertTracked(cache.get(), &tracker,
                                 BlockCacheKey(7, 42, off * 4096), 1, 10));
    cache->Release(InsertTracked(cache.get(), &tracker,
                                 BlockCacheKey(7, 43, off * 4096), 2, 10));
  }
  cache->EraseWithPrefix(file_a);
  EXPECT_EQ(tracker.deletions.load(), 5);
  for (uint64_t off = 0; off < 5; off++) {
    EXPECT_EQ(cache->Lookup(BlockCacheKey(7, 42, off * 4096)), nullptr);
    Cache::Handle* h = cache->Lookup(BlockCacheKey(7, 43, off * 4096));
    ASSERT_NE(h, nullptr);
    cache->Release(h);
  }
  EXPECT_EQ(cache->TotalCharge(), 50u);
}

TEST(ShardedLRUCacheTest, HitMissCounters) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(1 << 20));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "a", 1, 10));
  Cache::Handle* h = cache->Lookup("a");
  cache->Release(h);
  EXPECT_EQ(cache->Lookup("nope"), nullptr);
  h = cache->Lookup("a", /*count=*/false);
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  EXPECT_EQ(cache->hits(), 1u);
  EXPECT_EQ(cache->misses(), 1u);
}

TEST(ShardedLRUCacheTest, ConcurrentThrash) {
  std::unique_ptr<Cache> cache(NewShardedLRUCache(2 << 10));
  Tracker tracker;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      Random rng(1000 + t);
      for (int i = 0; i < 5000; i++) {
        std::string key = "k" + std::to_string(rng.Uniform(200));
        int expect = static_cast<int>(key.size()) * 1000;
        switch (rng.Uniform(3)) {
          case 0:
            cache->Release(
                InsertTracked(cache.get(), &tracker, key, expect, 64));
            break;
          case 1: {
            Cache::Handle* h = cache->Lookup(key);
            if (h != nullptr) {
              if (ValueId(cache.get(), h) != expect) {
                failed.store(true);
              }
              cache->Release(h);
            }
            break;
          }
          default:
            cache->Erase(key);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_LE(cache->TotalCharge(), 2u << 10);
}

// ---------------------------------------------------------------------------
// Two-queue (scan-resistant) admission. All single-shard so queue order
// is global and deterministic.
// ---------------------------------------------------------------------------

TEST(TwoQueueLRUCacheTest, ColdInsertsCannotEvictHotWorkingSet) {
  // Hot budget 50 of 100: the two point-get blocks fit entirely in the
  // hot queue; a scan flood many times the cache size may only evict
  // other scan blocks.
  std::unique_ptr<Cache> cache(
      NewShardedLRUCache(100, /*shard_bits=*/0, /*hot_fraction=*/0.5));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "h0", 0, 20));
  cache->Release(InsertTracked(cache.get(), &tracker, "h1", 1, 20));
  for (int i = 0; i < 20; i++) {
    cache->Release(InsertTracked(cache.get(), &tracker,
                                 "scan" + std::to_string(i), 100 + i, 20,
                                 Cache::Priority::kCold));
  }
  for (const char* key : {"h0", "h1"}) {
    Cache::Handle* h = cache->Lookup(key, /*count=*/false);
    ASSERT_NE(h, nullptr) << key << " evicted by a scan flood";
    cache->Release(h);
  }
  EXPECT_LE(cache->TotalCharge(), 100u);
}

TEST(TwoQueueLRUCacheTest, HotLookupPromotesColdEntryColdLookupDoesNot) {
  std::unique_ptr<Cache> cache(
      NewShardedLRUCache(100, /*shard_bits=*/0, /*hot_fraction=*/0.5));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "promoted", 1, 20,
                               Cache::Priority::kCold));
  cache->Release(InsertTracked(cache.get(), &tracker, "left_cold", 2, 20,
                               Cache::Priority::kCold));
  // A point-get touch (kHot lookup) moves the entry to the hot queue...
  Cache::Handle* h = cache->Lookup("promoted");
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  // ...while an iterator touch (kCold lookup) leaves it in the cold
  // queue, where the subsequent flood ages it out.
  h = cache->Lookup("left_cold", /*count=*/true, Cache::Priority::kCold);
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  for (int i = 0; i < 20; i++) {
    cache->Release(InsertTracked(cache.get(), &tracker,
                                 "scan" + std::to_string(i), 100 + i, 20,
                                 Cache::Priority::kCold));
  }
  h = cache->Lookup("promoted", /*count=*/false);
  ASSERT_NE(h, nullptr) << "promoted entry fell to the scan flood";
  cache->Release(h);
  EXPECT_EQ(cache->Lookup("left_cold", /*count=*/false), nullptr);
}

TEST(TwoQueueLRUCacheTest, HotOverflowDemotesOldestToColdMidpoint) {
  // Hot budget 40: three 20-charge hot inserts overflow it, demoting the
  // oldest (h0) onto the cold queue — still resident (usage 60 < 100),
  // but now first in line for eviction.
  std::unique_ptr<Cache> cache(
      NewShardedLRUCache(100, /*shard_bits=*/0, /*hot_fraction=*/0.4));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "h0", 0, 20));
  cache->Release(InsertTracked(cache.get(), &tracker, "h1", 1, 20));
  cache->Release(InsertTracked(cache.get(), &tracker, "h2", 2, 20));
  EXPECT_EQ(tracker.deletions.load(), 0);  // demoted, never evicted
  for (const char* key : {"h0", "h1", "h2"}) {
    // kCold lookups: residency probes that do not reshuffle the queues.
    Cache::Handle* h =
        cache->Lookup(key, /*count=*/false, Cache::Priority::kCold);
    ASSERT_NE(h, nullptr) << key;
    cache->Release(h);
  }
  // Push usage past capacity: the demoted h0 is the cold LRU victim;
  // the still-hot h1/h2 survive.
  for (int i = 0; i < 3; i++) {
    cache->Release(InsertTracked(cache.get(), &tracker,
                                 "c" + std::to_string(i), 100 + i, 20,
                                 Cache::Priority::kCold));
  }
  EXPECT_EQ(cache->Lookup("h0", /*count=*/false, Cache::Priority::kCold),
            nullptr);
  for (const char* key : {"h1", "h2"}) {
    Cache::Handle* h =
        cache->Lookup(key, /*count=*/false, Cache::Priority::kCold);
    ASSERT_NE(h, nullptr) << key;
    cache->Release(h);
  }
  EXPECT_LE(cache->TotalCharge(), 100u);
}

TEST(TwoQueueLRUCacheTest, HotFractionOneIsClassicLRU) {
  // hot_fraction >= 1 disables the split: priorities are coerced to hot
  // and eviction is pure recency order.
  std::unique_ptr<Cache> cache(
      NewShardedLRUCache(100, /*shard_bits=*/0, /*hot_fraction=*/1.0));
  Tracker tracker;
  cache->Release(InsertTracked(cache.get(), &tracker, "a", 1, 40));
  cache->Release(InsertTracked(cache.get(), &tracker, "b", 2, 40,
                               Cache::Priority::kCold));
  Cache::Handle* h = cache->Lookup("a");
  ASSERT_NE(h, nullptr);
  cache->Release(h);
  // Overflow evicts the LRU entry ("b") even though "a" was the kCold-
  // insert peer's elder: no cold queue exists to evict first.
  cache->Release(InsertTracked(cache.get(), &tracker, "c", 3, 40,
                               Cache::Priority::kCold));
  EXPECT_EQ(cache->Lookup("b", /*count=*/false), nullptr);
  for (const char* key : {"a", "c"}) {
    h = cache->Lookup(key, /*count=*/false);
    ASSERT_NE(h, nullptr) << key;
    cache->Release(h);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: block cache through the cluster read path.
// ---------------------------------------------------------------------------

std::string Key(uint64_t i) { return bench::MakeKey(i); }

ClusterOptions FastOptions(size_t block_cache_bytes) {
  ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = 2;
  opt.device.time_scale = 0;
  opt.ltc.block_cache_bytes = block_cache_bytes;
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
  opt.range.log.num_replicas = 2;
  opt.range.log.region_size = 64 << 10;
  opt.range.manifest_replicas = 2;
  opt.placement.rho = 1;
  opt.stoc.slab_bytes = 64 << 20;
  opt.stoc.slab_page_bytes = 256 << 10;
  return opt;
}

class BlockCacheClusterTest : public testing::Test {
 protected:
  void StartCluster(const ClusterOptions& opt) {
    if (cluster_) {
      cluster_->Stop();  // A/B tests restart with different options
    }
    cluster_ = std::make_unique<Cluster>(opt);
    cluster_->Start();
  }

  void TearDown() override {
    if (cluster_) {
      cluster_->Stop();
    }
  }

  /// Everything into SSTables so gets exercise the StoC read path.
  void FlushAll() {
    for (auto* engine : cluster_->ltc(0)->ranges()) {
      engine->FlushAllMemtables();
      engine->WaitForQuiescence(/*flush_all=*/true);
    }
  }

  uint64_t StocReads() {
    return cluster_->ltc(0)->stoc_client()->read_block_calls();
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(BlockCacheClusterTest, WarmGetsAvoidStocReads) {
  StartCluster(FastOptions(/*block_cache_bytes=*/8 << 20));
  const int kKeys = 400;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "value" + std::to_string(i)).ok());
  }
  FlushAll();

  auto read_all = [&] {
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      Status s = cluster_->Get(Key(i), &value);
      ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
      ASSERT_EQ(value, "value" + std::to_string(i));
    }
  };
  read_all();  // cold pass: populates the cache
  uint64_t after_cold = StocReads();
  read_all();  // warm pass: everything from LTC memory
  uint64_t warm_reads = StocReads() - after_cold;
  EXPECT_EQ(warm_reads, 0u) << "warm gets should not touch the StoC";

  ltc::RangeStats stats = cluster_->TotalStats();
  EXPECT_GT(stats.block_cache_hits, 0u);
  EXPECT_GT(stats.block_cache_bytes, 0u);
}

TEST_F(BlockCacheClusterTest, ZeroBytesDisablesCaching) {
  StartCluster(FastOptions(/*block_cache_bytes=*/0));
  EXPECT_EQ(cluster_->ltc(0)->block_cache(), nullptr);
  const int kKeys = 100;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), "v" + std::to_string(i)).ok());
  }
  FlushAll();
  std::string value;
  ASSERT_TRUE(cluster_->Get(Key(0), &value).ok());
  uint64_t before = StocReads();
  ASSERT_TRUE(cluster_->Get(Key(0), &value).ok());
  EXPECT_GT(StocReads(), before);  // every get re-fetches from the StoC
  EXPECT_EQ(cluster_->TotalStats().block_cache_hits, 0u);
}

TEST_F(BlockCacheClusterTest, TinyCacheThrashStaysCorrect) {
  // Cache far smaller than the working set: constant eviction, including
  // of entries other threads hold pinned.
  StartCluster(FastOptions(/*block_cache_bytes=*/8 << 10));
  const int kKeys = 600;
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < kKeys; i++) {
    std::string v = "val" + std::to_string(i);
    ASSERT_TRUE(cluster_->Put(Key(i), v).ok());
    oracle[Key(i)] = v;
  }
  FlushAll();

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      Random rng(77 + t);
      for (int i = 0; i < 400 && !failed.load(); i++) {
        uint64_t k = rng.Uniform(kKeys);
        if (t % 2 == 0) {
          std::string value;
          Status s = cluster_->Get(Key(k), &value);
          if (!s.ok() || value != oracle[Key(k)]) {
            failed.store(true);
          }
        } else {
          std::vector<std::pair<std::string, std::string>> out;
          Status s = cluster_->Scan(Key(k), 10, &out);
          if (!s.ok()) {
            failed.store(true);
            continue;
          }
          auto it = oracle.lower_bound(Key(k));
          for (const auto& [key, value] : out) {
            if (it == oracle.end() || it->first != key ||
                it->second != value) {
              failed.store(true);
              break;
            }
            ++it;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  // The cache respected its budget throughout (usage counts resident
  // entries only; pinned-but-evicted blocks are off the books).
  EXPECT_LE(cluster_->TotalStats().block_cache_bytes, (8u << 10) + 4096u);
}

TEST_F(BlockCacheClusterTest, CompactedFilesAreInvalidated) {
  ClusterOptions opt = FastOptions(/*block_cache_bytes=*/8 << 20);
  // Raw blocks: the L0 compaction trigger is byte-based and this test's
  // few fixed rounds must exceed it regardless of how well the payload
  // compresses.
  opt.range.compression_codec = kNoCompression;
  StartCluster(opt);
  auto* engine = cluster_->ltc(0)->ranges()[0];
  const int kKeys = 300;
  std::map<std::string, std::string> oracle;

  // Several overwrite+flush rounds so L0 accumulates and compacts.
  for (int round = 0; round < 6; round++) {
    for (int i = 0; i < kKeys; i++) {
      std::string v = "r" + std::to_string(round) + "_" + std::to_string(i);
      ASSERT_TRUE(cluster_->Put(Key(i), v).ok());
      oracle[Key(i)] = v;
    }
    FlushAll();
    // Read everything: caches blocks of the current file set.
    for (const auto& [key, value] : oracle) {
      std::string got;
      ASSERT_TRUE(cluster_->Get(key, &got).ok());
      ASSERT_EQ(got, value) << key << " round " << round;
    }
  }
  ASSERT_GT(engine->stats().compactions, 0u);

  // Every file compacted away must have no cached reader or blocks left
  // (the reader's cache key is exactly the file's key prefix).
  Cache* cache = cluster_->ltc(0)->block_cache();
  ASSERT_NE(cache, nullptr);
  lsm::VersionRef v = engine->versions()->current();
  std::set<uint64_t> live;
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      live.insert(f->number);
    }
  }
  ASSERT_FALSE(live.empty());
  uint64_t max_number = *live.rbegin();
  int dead_cached = 0;
  for (uint64_t number = 1; number <= max_number; number++) {
    if (live.count(number)) {
      continue;
    }
    uint32_t range_id = engine->options().range_id;
    Cache::Handle* h =
        cache->Lookup(BlockCachePrefix(range_id, number), /*count=*/false);
    if (h != nullptr) {
      dead_cached++;
      cache->Release(h);
    }
  }
  EXPECT_EQ(dead_cached, 0) << "compacted-away files still cached";
}

/// Options for the two-tier / admission tests: a dataset several times
/// the hot tier, big memtables (few files, so reader metadata stays
/// small), and compaction pushed out of the way so the file set is
/// stable between the measured passes.
ClusterOptions TierOptions(size_t hot_bytes) {
  ClusterOptions opt = FastOptions(hot_bytes);
  opt.range.memtable_size = 64 << 10;
  opt.range.max_sstable_size = 256 << 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 4 << 20;
  opt.range.lsm.l0_stop_bytes = 16 << 20;
  return opt;
}

std::string BulkyValue(int i) {
  return std::string(1000, 'v') + std::to_string(i);
}

TEST_F(BlockCacheClusterTest, CompressedTierServesEvictionsWithoutStoc) {
  // Hot tier (128 KB) far smaller than the ~1.1 MB uncompressed dataset;
  // compressed tier big enough for everything. The warm pass misses the
  // hot tier constantly, but every miss lands in the compressed tier and
  // decompresses in place — zero StoC round trips.
  ClusterOptions opt = TierOptions(/*hot_bytes=*/128 << 10);
  opt.ltc.compressed_cache_bytes = 8 << 20;
  StartCluster(opt);
  const int kKeys = 1000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(cluster_->Put(Key(i), BulkyValue(i)).ok());
  }
  FlushAll();

  auto read_all = [&] {
    for (int i = 0; i < kKeys; i++) {
      std::string value;
      Status s = cluster_->Get(Key(i), &value);
      ASSERT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
      ASSERT_EQ(value, BulkyValue(i));
    }
  };
  read_all();  // cold: fills both tiers from the StoCs
  uint64_t after_cold = StocReads();
  ASSERT_GT(after_cold, 0u);
  read_all();  // warm: hot misses are absorbed by the compressed tier
  EXPECT_EQ(StocReads() - after_cold, 0u)
      << "hot-tier misses went to the StoC instead of the compressed tier";

  ltc::RangeStats stats = cluster_->TotalStats();
  EXPECT_GT(stats.block_cache_compressed_hits, 0u);
  EXPECT_GT(stats.block_cache_compressed_bytes, 0u);
  // The compressed tier holds the dataset in far less than its raw size.
  EXPECT_GT(stats.sstable_raw_bytes, stats.sstable_stored_bytes);
  EXPECT_GT(stats.bytes_over_wire, 0u);
}

TEST_F(BlockCacheClusterTest, ScanFloodKeepsPointGetWorkingSetWithTwoQueue) {
  // A/B over the admission policy with an identical workload: warm a
  // point-get working set, sweep the whole keyspace with a scan, then
  // measure how many StoC reads it takes to serve the working set again.
  // Two-queue admission (scan blocks enter cold) must preserve the
  // working set; classic LRU (hot_fraction 1.0) flushes it.
  const int kKeys = 1000;
  const int kWorkingSet = 40;
  auto rewarm_reads = [&](double hot_fraction) {
    ClusterOptions opt = TierOptions(/*hot_bytes=*/384 << 10);
    opt.ltc.cache_hot_fraction = hot_fraction;
    StartCluster(opt);
    for (int i = 0; i < kKeys; i++) {
      EXPECT_TRUE(cluster_->Put(Key(i), BulkyValue(i)).ok());
    }
    FlushAll();
    auto get_working_set = [&] {
      for (int i = 0; i < kWorkingSet; i++) {
        std::string value;
        Status s = cluster_->Get(Key(i), &value);
        EXPECT_TRUE(s.ok()) << Key(i) << " " << s.ToString();
        EXPECT_EQ(value, BulkyValue(i));
      }
    };
    get_working_set();  // warm the hot queue
    std::vector<std::pair<std::string, std::string>> out;
    EXPECT_TRUE(cluster_->Scan(Key(0), kKeys, &out).ok());
    EXPECT_EQ(out.size(), static_cast<size_t>(kKeys));
    uint64_t after_scan = StocReads();
    get_working_set();
    return StocReads() - after_scan;
  };

  uint64_t two_queue = rewarm_reads(/*hot_fraction=*/0.75);
  uint64_t classic = rewarm_reads(/*hot_fraction=*/1.0);
  EXPECT_EQ(two_queue, 0u)
      << "scan flood evicted the point-get working set despite cold admission";
  EXPECT_GT(classic, two_queue)
      << "control: classic LRU should have had to re-fetch the working set";
}

}  // namespace
}  // namespace nova
