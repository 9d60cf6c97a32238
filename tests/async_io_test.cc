// Tests for the asynchronous StoC I/O pipeline: Future/AsyncCall
// semantics (out-of-order completion), GatherReads (parallel fan-out,
// replica failover, mixed success/failure), thread-free scatter writes,
// degraded parity gathers through one batched read, compactions reading
// through the same SSTable iterator (cold cache admission, one read per
// input fragment, no output left behind by a failed job), and reads in
// runs (one fetch per run of adjacent blocks, whole-table sweeps, run
// accounting, the deferred first block).
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "lsm/compaction.h"
#include "lsm/table_io.h"
#include "rdma/rpc.h"
#include "sstable/merging_iterator.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"
#include "util/random.h"

namespace nova {
namespace {

std::string Key(uint64_t i) { return bench::MakeKey(i); }

// ---------------------------------------------------------------------------
// RPC-layer future semantics.
// ---------------------------------------------------------------------------

class AsyncRpcTest : public testing::Test {
 protected:
  void SetUp() override {
    fabric_.AddNode(0);
    fabric_.AddNode(1);
    client_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 0, 2, nullptr);
    server_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, 1, 2, nullptr);
    client_->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
  }

  void TearDown() override {
    client_->Stop();
    server_->Stop();
  }

  rdma::RdmaFabric fabric_;
  std::unique_ptr<rdma::RpcEndpoint> client_;
  std::unique_ptr<rdma::RpcEndpoint> server_;
};

TEST_F(AsyncRpcTest, FuturesCompleteOutOfOrder) {
  // The server batches three requests and answers them newest-first, so
  // the first-issued future completes last.
  std::mutex mu;
  std::vector<std::pair<uint64_t, std::string>> batch;
  server_->set_request_handler(
      [&](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        std::vector<std::pair<uint64_t, std::string>> ready;
        {
          std::lock_guard<std::mutex> l(mu);
          batch.emplace_back(req_id, payload.ToString());
          if (batch.size() == 3) {
            ready.swap(batch);
          }
        }
        for (auto it = ready.rbegin(); it != ready.rend(); ++it) {
          server_->Reply(src, it->first, "echo:" + it->second);
        }
      });
  server_->Start();
  client_->Start();

  rdma::Future f1 = client_->AsyncCall(1, "a");
  rdma::Future f2 = client_->AsyncCall(1, "b");
  rdma::Future f3 = client_->AsyncCall(1, "c");
  ASSERT_TRUE(f1.valid());
  ASSERT_TRUE(f2.valid());
  ASSERT_TRUE(f3.valid());

  std::string r3, r1, r2;
  ASSERT_TRUE(f3.Wait(&r3).ok());
  ASSERT_TRUE(f1.Wait(&r1).ok());
  ASSERT_TRUE(f2.Wait(&r2).ok());
  EXPECT_EQ(r1, "echo:a");
  EXPECT_EQ(r2, "echo:b");
  EXPECT_EQ(r3, "echo:c");
}

TEST_F(AsyncRpcTest, AsyncCallToDeadNodeFailsImmediately) {
  client_->Start();
  fabric_.RemoveNode(1);
  rdma::Future f = client_->AsyncCall(1, "ping");
  ASSERT_TRUE(f.valid());
  EXPECT_TRUE(f.ready());
  EXPECT_TRUE(f.Wait(nullptr).IsUnavailable());
}

TEST_F(AsyncRpcTest, WaitTimesOutWhenNoReply) {
  // Server swallows requests: every copy of the future sees the timeout.
  server_->set_request_handler(
      [](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();
  rdma::Future f = client_->AsyncCall(1, "void");
  rdma::Future copy = f;
  EXPECT_TRUE(f.Wait(nullptr, 50).IsUnavailable());
  EXPECT_TRUE(copy.ready());
  EXPECT_TRUE(copy.Wait(nullptr, 50).IsUnavailable());
}

TEST_F(AsyncRpcTest, RemovedPeerFailsItsWaitersAtOnce) {
  // The server swallows requests; its removal from the fabric, not the
  // deadline, ends the call and the token wait on it. A waiter on another
  // node keeps waiting.
  server_->set_request_handler(
      [](rdma::NodeId, uint64_t, const Slice&) {});
  server_->Start();
  client_->Start();
  fabric_.AddNode(2);
  rdma::Future call = client_->AsyncCall(1, "void");
  rdma::Future token;
  client_->AllocToken(1, &token);
  rdma::Future elsewhere;
  client_->AllocToken(2, &elsewhere);
  auto start = std::chrono::steady_clock::now();
  fabric_.RemoveNode(1);
  EXPECT_TRUE(call.Wait(nullptr, 10000).IsUnavailable());
  EXPECT_TRUE(token.Wait(nullptr, 10000).IsUnavailable());
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count(),
            2000);
  EXPECT_FALSE(elsewhere.ready());
  EXPECT_EQ(client_->num_pending_waiters(), 1u);
}

// ---------------------------------------------------------------------------
// StoC client batch primitives over real StoC servers.
// ---------------------------------------------------------------------------

class AsyncStocTest : public testing::Test {
 protected:
  static constexpr rdma::NodeId kClientNode = 0;
  static constexpr rdma::NodeId kStoc0 = 1000;
  static constexpr int kNumStocs = 4;

  void SetUp() override {
    DeviceConfig dcfg;
    dcfg.time_scale = 0;
    for (int i = 0; i < kNumStocs; i++) {
      devices_.push_back(
          std::make_unique<SimulatedDevice>("d" + std::to_string(i), dcfg));
      stores_.push_back(std::make_unique<BlockStore>());
      stoc::StocServerOptions opt;
      opt.slab_bytes = 16 << 20;
      opt.slab_page_bytes = 256 << 10;
      servers_.push_back(std::make_unique<stoc::StocServer>(
          &fabric_, kStoc0 + i, devices_[i].get(), stores_[i].get(), opt));
      servers_[i]->Start();
    }
    fabric_.AddNode(kClientNode);
    endpoint_ = std::make_unique<rdma::RpcEndpoint>(&fabric_, kClientNode, 2,
                                                    nullptr);
    endpoint_->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
    endpoint_->Start();
    client_ = std::make_unique<stoc::StocClient>(endpoint_.get());
  }

  void TearDown() override {
    endpoint_->Stop();
    for (auto& s : servers_) {
      s->Stop();
    }
  }

  void KillStoc(int index) {
    servers_[index]->Stop();
    fabric_.RemoveNode(kStoc0 + index);
  }

  /// ρ=3 + parity + 2 meta replicas over every StoC.
  static lsm::PlacementOptions Placement() {
    lsm::PlacementOptions popt;
    for (int i = 0; i < kNumStocs; i++) {
      popt.stocs.push_back(kStoc0 + i);
    }
    popt.rho = 3;
    popt.power_of_d = false;
    popt.use_parity = true;
    popt.num_meta_replicas = 2;
    return popt;
  }

  /// An SSTable written with Placement() through the async scatter path;
  /// returns the placement and the built bytes.
  lsm::FileMetaRef WriteScatteredTable(SSTableBuilder::Result&& built,
                                       std::string* data_copy) {
    *data_copy = built.data;
    lsm::SSTablePlacer placer(client_.get(), Placement());
    auto out = std::make_shared<lsm::FileMetaData>();
    Status s = placer.Write(std::move(built), out.get());
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  static SSTableBuilder::Result BuildTable(int num_keys, int num_fragments) {
    SSTableBuilder builder;
    std::string value(256, 'v');
    for (int i = 0; i < num_keys; i++) {
      std::string ikey;
      AppendInternalKey(&ikey,
                        ParsedInternalKey(Key(i), i + 1, kTypeValue));
      builder.Add(ikey, value);
    }
    return builder.Finish(/*file_number=*/1, num_fragments);
  }

  rdma::RdmaFabric fabric_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> servers_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> client_;
};

TEST_F(AsyncStocTest, GatherReadsParallelSuccess) {
  uint64_t f0 = stoc::MakeFileId(1, 1, stoc::FileKind::kData, 0);
  uint64_t f1 = stoc::MakeFileId(1, 2, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, f0, "abcdefgh", &h).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0 + 1, f1, "01234567", &h).ok());

  std::vector<stoc::GatherRead> reads(3);
  reads[0].replicas = {{kStoc0, f0}};  // whole file
  reads[1].replicas = {{kStoc0 + 1, f1}};
  reads[1].offset = 2;
  reads[1].size = 4;
  reads[2].replicas = {{kStoc0, f0}};
  reads[2].offset = 4;
  reads[2].size = 4;
  ASSERT_TRUE(client_->GatherReads(&reads).ok());
  EXPECT_EQ(reads[0].data, "abcdefgh");
  EXPECT_EQ(reads[1].data, "2345");
  EXPECT_EQ(reads[2].data, "efgh");
}

TEST_F(AsyncStocTest, GatherReadsMixedFailureAndFailover) {
  uint64_t good = stoc::MakeFileId(1, 3, stoc::FileKind::kData, 0);
  uint64_t replica2 = stoc::MakeFileId(1, 4, stoc::FileKind::kData, 1);
  uint64_t missing = stoc::MakeFileId(1, 5, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, good, "solid", &h).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0 + 2, replica2, "backup", &h).ok());

  std::vector<stoc::GatherRead> reads(3);
  reads[0].replicas = {{kStoc0, good}};
  // First replica is missing; the second wave fails over to stoc2.
  reads[1].replicas = {{kStoc0 + 1, missing}, {kStoc0 + 2, replica2}};
  // No replica exists anywhere: the entry (and the batch) must fail
  // without poisoning the other entries.
  reads[2].replicas = {{kStoc0 + 1, missing}};
  Status s = client_->GatherReads(&reads);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(reads[0].status.ok());
  EXPECT_EQ(reads[0].data, "solid");
  EXPECT_TRUE(reads[1].status.ok());
  EXPECT_EQ(reads[1].data, "backup");
  EXPECT_FALSE(reads[2].status.ok());
}

// Each gather sleeps until one of its attempts completes or its hedge
// falls due. A lost wake-up waits out the 30 s deadline, so a 10 s bound
// on a whole loop of reads catches a single one; without one the loops
// take well under a second.
TEST_F(AsyncStocTest, GatherReadsWakesOnEachCompletion) {
  using Clock = std::chrono::steady_clock;
  uint64_t fid = stoc::MakeFileId(1, 9, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle h;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, fid, "wake-block", &h).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0 + 1, fid, "wake-block", &h).ok());
  auto read_loop = [&](const std::vector<stoc::GatherRead::Target>& targets,
                       int reads) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < reads; i++) {
      std::string out;
      ASSERT_TRUE(client_->ReadReplicated(targets, 0, 0, &out).ok());
      ASSERT_EQ(out, "wake-block");
      ASSERT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                    Clock::now() - start)
                    .count(),
                10000)
          << "read " << i;
    }
  };

  // One replica: every read is one attempt and one wake-up.
  read_loop({{kStoc0 + 1, fid}}, 1000);

  // Failover: the first-ranked replica's device fails each read at once,
  // so every read wakes on the failure, then on the second replica.
  stoc::ReadPolicy policy;
  policy.replica_d = 1;
  policy.hedge = false;
  client_->set_read_policy(policy);
  client_->load(kStoc0 + 1)->rank_bias.store(1);
  devices_[0]->Fail();
  uint64_t issued0 = client_->load(kStoc0)->issued.load();
  read_loop({{kStoc0, fid}, {kStoc0 + 1, fid}}, 1000);
  EXPECT_EQ(client_->load(kStoc0)->issued.load(), issued0 + 1000);

  // Hedge: the first-ranked replica is a live node that never answers,
  // so every read wakes when its hedge falls due (the 1 ms floor), then
  // on the hedge's completion.
  const rdma::NodeId silent = kStoc0 + kNumStocs;
  fabric_.AddNode(silent);
  policy.hedge = true;
  policy.hedge_min_delay_us = 1000;
  policy.hedge_min_samples = 1 << 30;  // the floor is the delay
  client_->set_read_policy(policy);
  uint64_t hedged = client_->hedged_issued();
  uint64_t won = client_->hedged_won();
  read_loop({{silent, fid}, {kStoc0 + 1, fid}}, 200);
  EXPECT_EQ(client_->hedged_issued(), hedged + 200);
  EXPECT_EQ(client_->hedged_won(), won + 200);
  EXPECT_EQ(endpoint_->num_pending_waiters(), 0u);
}

TEST_F(AsyncStocTest, ScatterWriteRoundTrip) {
  auto built = BuildTable(/*num_keys=*/200, /*num_fragments=*/3);
  ASSERT_EQ(built.meta.num_fragments(), 3);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  ASSERT_EQ(meta->fragments.size(), 3u);
  EXPECT_TRUE(meta->parity.valid());
  EXPECT_EQ(meta->meta_replicas.size(), 2u);
  for (const auto& loc : meta->meta_replicas) {
    EXPECT_TRUE(loc.valid());
  }
  // Every fragment reads back as the matching slice of the built data.
  uint64_t offset = 0;
  for (int f = 0; f < 3; f++) {
    ASSERT_EQ(meta->fragments[f].size(), 1u);
    std::string frag;
    ASSERT_TRUE(client_
                    ->ReadBlock(meta->fragments[f][0].stoc_id,
                                meta->fragments[f][0].file_id, 0, 0, &frag)
                    .ok());
    EXPECT_EQ(frag, data.substr(offset, meta->fragment_sizes[f]));
    offset += meta->fragment_sizes[f];
  }
}

TEST_F(AsyncStocTest, DegradedParityGatherReconstructsLostFragment) {
  auto built = BuildTable(/*num_keys=*/200, /*num_fragments=*/3);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  // Lose the StoC hosting fragment 1 (and only that one, so the parity
  // gather can still reach the parity block and the other fragments).
  int lost_stoc = meta->fragments[1][0].stoc_id;
  EXPECT_NE(meta->parity.stoc_id, lost_stoc);
  KillStoc(lost_stoc - kStoc0);

  lsm::StocBlockFetcher fetcher(client_.get(), *meta);
  std::string frag;
  ASSERT_TRUE(
      fetcher.Fetch(1, 0, meta->fragment_sizes[1], &frag).ok());
  uint64_t offset = meta->fragment_sizes[0];
  EXPECT_EQ(frag, data.substr(offset, meta->fragment_sizes[1]));
  EXPECT_GE(fetcher.degraded_reads(), 1u);

  // A sliced read of the lost fragment reconstructs and re-slices.
  std::string slice;
  ASSERT_TRUE(fetcher.Fetch(1, 10, 64, &slice).ok());
  EXPECT_EQ(slice, data.substr(offset + 10, 64));
}

// ---------------------------------------------------------------------------
// Compactions and table opens through the TableCache.
// ---------------------------------------------------------------------------

/// One data block of a table, as its index block lists it.
struct DataBlock {
  BlockHandle handle;
  std::string last_key;  // user key of the block's last entry
};

std::vector<DataBlock> DataBlocks(const SSTableMetadata& meta) {
  InternalKeyComparator icmp;
  Block index(meta.index_contents);
  std::unique_ptr<Iterator> it(index.NewIterator(&icmp));
  std::vector<DataBlock> blocks;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    DataBlock block;
    Slice contents = it->value();
    EXPECT_TRUE(block.handle.DecodeFrom(&contents).ok());
    block.last_key = ExtractUserKey(it->key()).ToString();
    blocks.push_back(block);
  }
  return blocks;
}

using Rows = std::vector<std::pair<std::string, std::string>>;

void DeleteNothing(const Slice& /*key*/, void* /*value*/) {}

TEST_F(AsyncStocTest, CompactionReadsStayCold) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  std::vector<DataBlock> blocks = DataBlocks(built.meta);
  ASSERT_GT(blocks.size(), 1u);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);

  // One shard, so the hot/cold split covers the whole capacity.
  constexpr size_t kCapacity = 1 << 20;
  std::unique_ptr<Cache> cache(NewShardedLRUCache(
      kCapacity, /*shard_bits=*/0, /*hot_fraction=*/0.5));
  lsm::TableCache tables(client_.get(), cache.get(), /*range_id=*/0,
                         /*cache_data_blocks=*/true);
  auto resident = [&] {
    size_t n = 0;
    for (const DataBlock& block : blocks) {
      Cache::Handle* h =
          cache->Lookup(BlockCacheKey(0, meta->number, block.handle.offset),
                        /*count=*/false, Cache::Priority::kCold);
      if (h != nullptr) {
        cache->Release(h);
        n++;
      }
    }
    return n;
  };

  // A scan admits every data block into the cold queue.
  {
    lsm::TableCache::Handle handle;
    ASSERT_TRUE(tables.GetReader(meta, &handle).ok());
    std::unique_ptr<Iterator> it(handle.reader->NewIterator());
    size_t rows = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      rows++;
    }
    EXPECT_EQ(rows, 300u);
  }
  ASSERT_EQ(resident(), blocks.size());

  // The compaction reads every block again, each one a cache hit.
  lsm::SSTablePlacer placer(client_.get(), Placement());
  lsm::CompactionExecutor executor(&tables, &placer, /*throttle=*/nullptr);
  lsm::CompactionJob job;
  job.inputs = {meta};
  job.is_last_level = true;
  job.first_output_number = 100;
  lsm::CompactionResult result;
  uint64_t stoc_reads = client_->read_block_calls();
  Status s = executor.Run(job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(result.records_out, 300u);
  EXPECT_EQ(client_->read_block_calls(), stoc_reads);

  // Cold entries totalling the whole capacity. A block the compaction
  // had promoted into the hot queue would survive them; cold ones cannot.
  constexpr size_t kFloodCharge = 4096;
  for (size_t i = 0; i < kCapacity / kFloodCharge; i++) {
    cache->Release(cache->Insert("flood" + std::to_string(i), nullptr,
                                 kFloodCharge, &DeleteNothing,
                                 Cache::Priority::kCold));
  }
  EXPECT_EQ(resident(), 0u);
}

TEST_F(AsyncStocTest, CompactionReadsEachInputFragmentOnce) {
  // Three overlapping inputs, each rewriting a shifted window of keys at
  // newer sequence numbers: the merge alternates across inputs and drops
  // the older versions.
  std::vector<lsm::FileMetaRef> inputs;
  uint64_t input_bytes = 0;
  uint64_t input_blocks = 0;
  for (int t = 0; t < 3; t++) {
    SSTableBuilder builder;
    for (int i = t * 100; i < t * 100 + 300; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(Key(i), t * 1000 + i + 1,
                                                 kTypeValue));
      builder.Add(ikey, std::string(256, static_cast<char>('a' + t)));
    }
    auto built = builder.Finish(/*file_number=*/t + 1, /*num_fragments=*/3);
    input_blocks += DataBlocks(built.meta).size();
    std::string data;
    inputs.push_back(WriteScatteredTable(std::move(built), &data));
    input_bytes += inputs.back()->data_size;
  }
  // The newest version of each key: the last input that holds it.
  Rows expected;
  for (int i = 0; i < 500; i++) {
    const char newest = static_cast<char>('a' + std::min(i / 100, 2));
    expected.emplace_back(Key(i), std::string(256, newest));
  }

  // No cache tier. The readers are opened up front, so every StoC read
  // during the job is a data-block read.
  lsm::TableCache tables(client_.get());
  for (const lsm::FileMetaRef& input : inputs) {
    lsm::TableCache::Handle handle;
    ASSERT_TRUE(tables.GetReader(input, &handle).ok());
  }
  lsm::SSTablePlacer placer(client_.get(), Placement());
  lsm::CompactionExecutor executor(&tables, &placer, /*throttle=*/nullptr);
  lsm::CompactionJob job;
  job.inputs = inputs;
  job.is_last_level = true;
  job.max_output_bytes = 32 << 10;  // several outputs in flight
  job.first_output_number = 100;
  lsm::CompactionResult result;
  uint64_t stoc_reads = client_->read_block_calls();
  Status s = executor.Run(job, &result);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(client_->read_block_calls() - stoc_reads, 9u);
  EXPECT_EQ(result.records_in, 900u);
  EXPECT_EQ(result.records_out, 500u);
  EXPECT_GT(result.outputs.size(), 2u);
  EXPECT_EQ(result.bytes_read, input_bytes);  // each block once
  EXPECT_EQ(result.prefetches, input_blocks - 9);

  Rows rows;
  for (const lsm::FileMetaData& file : result.outputs) {
    lsm::TableCache::Handle handle;
    ASSERT_TRUE(
        tables.GetReader(std::make_shared<lsm::FileMetaData>(file), &handle)
            .ok());
    std::unique_ptr<Iterator> it(handle.reader->NewIterator());
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      rows.emplace_back(ExtractUserKey(it->key()).ToString(),
                        it->value().ToString());
    }
  }
  EXPECT_EQ(rows, expected);
}

TEST_F(AsyncStocTest, FailedCompactionLeavesNoOutputBehind) {
  // Two inputs over the same 300 keys, the second newer and in two
  // fragments. Its second fragment is lost with no parity to rebuild it
  // from, so the merge fails halfway: after the executor has collected
  // some outputs' flush acks and while the next ones are in flight.
  lsm::PlacementOptions no_parity = Placement();
  no_parity.use_parity = false;
  lsm::SSTablePlacer input_placer(client_.get(), no_parity);
  std::vector<lsm::FileMetaRef> inputs;
  for (int t = 0; t < 2; t++) {
    SSTableBuilder builder;
    for (int i = 0; i < 300; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(Key(i), t * 1000 + i + 1,
                                                 kTypeValue));
      builder.Add(ikey, std::string(256, static_cast<char>('a' + t)));
    }
    auto out = std::make_shared<lsm::FileMetaData>();
    ASSERT_TRUE(input_placer
                    .Write(builder.Finish(/*file_number=*/t + 1,
                                          /*num_fragments=*/t + 1),
                           out.get())
                    .ok());
    inputs.push_back(out);
  }
  ASSERT_EQ(inputs[1]->fragments.size(), 2u);
  for (const lsm::BlockLocation& loc : inputs[1]->fragments[1]) {
    ASSERT_TRUE(client_->DeleteFile(loc.stoc_id, loc.file_id, false).ok());
  }

  lsm::TableCache tables(client_.get());
  lsm::SSTablePlacer placer(client_.get(), Placement());
  lsm::CompactionExecutor executor(&tables, &placer, /*throttle=*/nullptr);
  lsm::CompactionJob job;
  job.inputs = inputs;
  job.is_last_level = true;
  job.max_output_bytes = 8 << 10;  // about 30 rows per output
  job.first_output_number = 100;
  lsm::CompactionResult result;
  Status s = executor.Run(job, &result);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // More than three outputs' rows were merged before the failure, so at
  // least one output was collected and kMaxInflightOutputs were in flight.
  // The merge stopped there: the keys after the lost fragment, which the
  // first input still holds, were not merged into further outputs.
  EXPECT_GT(result.records_out, 100u);
  EXPECT_LT(result.records_out, 300u);
  EXPECT_TRUE(result.outputs.empty());
  for (int i = 0; i < kNumStocs; i++) {
    std::vector<uint64_t> files;
    ASSERT_TRUE(client_->ListFiles(kStoc0 + i, &files).ok());
    for (uint64_t file_id : files) {
      EXPECT_LT(stoc::FileIdNumber(file_id), job.first_output_number)
          << "stoc " << i << " keeps file " << file_id;
    }
  }
}

TEST_F(AsyncStocTest, ReaderOpensLeaveCompressedTierCountersAlone) {
  auto built = BuildTable(/*num_keys=*/50, /*num_fragments=*/1);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  std::unique_ptr<Cache> hot(NewShardedLRUCache(1 << 20));
  std::unique_ptr<Cache> compressed(NewShardedLRUCache(1 << 20));
  lsm::TableCache tables(client_.get(), hot.get(), /*range_id=*/0,
                         /*cache_data_blocks=*/true, compressed.get());

  // The first open fetches the metadata block and parks it in the
  // compressed tier. Dropping the reader entry from the hot tier makes
  // the second open decode it from there, with no StoC read.
  lsm::TableCache::Handle first;
  ASSERT_TRUE(tables.GetReader(meta, &first).ok());
  hot->Erase(BlockCachePrefix(0, meta->number));
  uint64_t stoc_reads = client_->read_block_calls();
  lsm::TableCache::Handle second;
  ASSERT_TRUE(tables.GetReader(meta, &second).ok());
  EXPECT_NE(second.reader, first.reader);
  EXPECT_EQ(client_->read_block_calls(), stoc_reads);

  // No data block was read, so neither tier counted anything.
  EXPECT_EQ(compressed->hits(), 0u);
  EXPECT_EQ(compressed->misses(), 0u);
  EXPECT_EQ(hot->hits(), 0u);
  EXPECT_EQ(hot->misses(), 0u);
}

// ---------------------------------------------------------------------------
// Scan-sized reads: a miss fetches the run of adjacent blocks a scan's
// remaining rows may need in one read, and a Seek before a table's first
// key reads nothing until the merge takes that row.
// ---------------------------------------------------------------------------

/// Forwards to another fetcher and records every read it is asked for.
/// It can fail the next read, or flip one stored byte of fragment
/// `flip_fragment` on the way back.
class RecordingFetcher : public BlockFetcher {
 public:
  struct Read {
    int fragment;
    uint64_t offset;
    uint64_t size;
  };

  explicit RecordingFetcher(BlockFetcher* base) : base_(base) {}

  Status Fetch(int fragment, uint64_t offset, uint64_t size,
               std::string* out) override {
    reads.push_back({fragment, offset, size});
    if (!fail_next.ok()) {
      Status s = fail_next;
      fail_next = Status::OK();
      return s;
    }
    Status s = base_->Fetch(fragment, offset, size, out);
    if (s.ok() && fragment == flip_fragment && flip_offset >= offset &&
        flip_offset - offset < out->size()) {
      (*out)[flip_offset - offset] ^= 0x40;
    }
    return s;
  }

  std::vector<Read> reads;
  Status fail_next;
  int flip_fragment = -1;
  uint64_t flip_offset = 0;

 private:
  BlockFetcher* base_;
};

/// Up to n rows from target onward, the newest version of each user key,
/// stopping on the n-th row without stepping past it (as
/// RangeEngine::Scan does).
Rows ScanRows(Iterator* it, const Slice& target, size_t n) {
  Rows rows;
  LookupKey start(target, kMaxSequenceNumber);
  for (it->Seek(start.internal_key()); it->Valid(); it->Next()) {
    Slice user_key = ExtractUserKey(it->key());
    if (!rows.empty() && user_key == Slice(rows.back().first)) {
      continue;  // an older version of the row just taken
    }
    rows.emplace_back(user_key.ToString(), it->value().ToString());
    if (rows.size() == n) {
      break;
    }
  }
  return rows;
}

/// The fragment holding a block, and the block's offset inside it.
std::pair<int, uint64_t> FragmentOf(const SSTableMetadata& meta,
                                    const DataBlock& block) {
  int fragment = -1;
  uint64_t local = 0;
  EXPECT_TRUE(meta.Locate(block.handle.offset, &fragment, &local));
  return {fragment, local};
}

TEST_F(AsyncStocTest, ShortScanReadsItsBlocksInOneFetch) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::vector<DataBlock> blocks = DataBlocks(table_meta);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher fetcher(client_.get(), *meta);
  // From the last key of block 1, ten rows span blocks 1 and 2 of
  // fragment 0.
  ASSERT_EQ(FragmentOf(table_meta, blocks[2]).first, 0);

  auto scan = [&](int rows, uint64_t* stoc_reads) {
    SSTableReader reader(table_meta, &fetcher);
    IteratorOptions options;
    options.rows = rows;
    std::unique_ptr<Iterator> it(reader.NewIterator(options));
    uint64_t before = client_->read_block_calls();
    Rows got = ScanRows(it.get(), blocks[1].last_key, 10);
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    *stoc_reads = client_->read_block_calls() - before;
    return got;
  };
  uint64_t block_reads = 0, run_reads = 0;
  Rows per_block = scan(/*rows=*/0, &block_reads);
  Rows run = scan(/*rows=*/10, &run_reads);
  ASSERT_EQ(per_block.size(), 10u);
  EXPECT_EQ(per_block.front().first, blocks[1].last_key);
  EXPECT_EQ(run, per_block);
  EXPECT_EQ(block_reads, 2u);
  EXPECT_EQ(run_reads, 1u);
}

TEST_F(AsyncStocTest, RunBlocksEnterTheTiersOnlyWhenReached) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::vector<DataBlock> blocks = DataBlocks(table_meta);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher stoc_fetcher(client_.get(), *meta);
  RecordingFetcher fetcher(&stoc_fetcher);
  ASSERT_EQ(FragmentOf(table_meta, blocks[4]).first, 0);
  std::unique_ptr<Cache> hot(NewShardedLRUCache(1 << 20));
  std::unique_ptr<Cache> compressed(NewShardedLRUCache(1 << 20));
  SSTableReader reader(table_meta, &fetcher, hot.get(), /*range_id=*/0,
                       compressed.get());
  auto resident = [&](Cache* cache, const DataBlock& block) {
    Cache::Handle* h = cache->Lookup(
        BlockCacheKey(0, table_meta.file_number, block.handle.offset),
        /*count=*/false, Cache::Priority::kCold);
    if (h != nullptr) {
      cache->Release(h);
    }
    return h != nullptr;
  };

  // Ten rows from the first key of block 3 all lie in block 3, but the
  // scan cannot know that before the read, so its run also holds block 4.
  IteratorOptions options;
  options.rows = 10;
  std::unique_ptr<Iterator> it(reader.NewIterator(options));
  Rows got = ScanRows(it.get(), blocks[2].last_key + '\0', 10);
  ASSERT_EQ(got.size(), 10u);
  ASSERT_EQ(fetcher.reads.size(), 1u);
  EXPECT_EQ(fetcher.reads[0].offset, FragmentOf(table_meta, blocks[3]).second);
  EXPECT_EQ(fetcher.reads[0].size,
            blocks[3].handle.size + blocks[4].handle.size);
  // Only the block the scan reached was installed, and each tier counted
  // one lookup.
  EXPECT_TRUE(resident(hot.get(), blocks[3]));
  EXPECT_TRUE(resident(compressed.get(), blocks[3]));
  EXPECT_FALSE(resident(hot.get(), blocks[4]));
  EXPECT_FALSE(resident(compressed.get(), blocks[4]));
  EXPECT_EQ(hot->misses(), 1u);
  EXPECT_EQ(compressed->misses(), 1u);

  // Stepping into block 4 serves it from the run, through one more lookup
  // per tier, and installs it.
  do {
    it->Next();
  } while (it->Valid() &&
           ExtractUserKey(it->key()).compare(blocks[3].last_key) <= 0);
  ASSERT_TRUE(it->Valid()) << it->status().ToString();
  EXPECT_TRUE(resident(hot.get(), blocks[4]));
  EXPECT_TRUE(resident(compressed.get(), blocks[4]));
  EXPECT_EQ(hot->misses(), 2u);
  EXPECT_EQ(compressed->misses(), 2u);
  // Block 4 had no read of its own.
  for (const RecordingFetcher::Read& read : fetcher.reads) {
    EXPECT_NE(read.offset, FragmentOf(table_meta, blocks[4]).second);
  }
}

TEST_F(AsyncStocTest, RunStopsAtAFragmentBoundary) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::vector<DataBlock> blocks = DataBlocks(table_meta);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher stoc_fetcher(client_.get(), *meta);
  // The last block of fragment 0.
  size_t last = 0;
  while (FragmentOf(table_meta, blocks[last + 1]).first == 0) {
    last++;
  }

  auto scan = [&](int rows, RecordingFetcher* fetcher) {
    SSTableReader reader(table_meta, fetcher);
    IteratorOptions options;
    options.rows = rows;
    std::unique_ptr<Iterator> it(reader.NewIterator(options));
    Rows got = ScanRows(it.get(), blocks[last].last_key, 30);
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return got;
  };
  RecordingFetcher per_block(&stoc_fetcher);
  RecordingFetcher runs(&stoc_fetcher);
  Rows expected = scan(/*rows=*/0, &per_block);
  EXPECT_EQ(scan(/*rows=*/30, &runs), expected);
  ASSERT_EQ(expected.size(), 30u);

  // The run for the last block of fragment 0 holds that block alone; the
  // scan goes on with one run at the start of fragment 1.
  ASSERT_EQ(runs.reads.size(), 2u);
  EXPECT_EQ(runs.reads[0].fragment, 0);
  EXPECT_EQ(runs.reads[0].offset, FragmentOf(table_meta, blocks[last]).second);
  EXPECT_EQ(runs.reads[0].size, blocks[last].handle.size);
  EXPECT_EQ(runs.reads[1].fragment, 1);
  EXPECT_EQ(runs.reads[1].offset, 0u);
  EXPECT_GT(runs.reads[1].size, blocks[last + 1].handle.size);
  for (const RecordingFetcher::Read& read : runs.reads) {
    EXPECT_LE(read.offset + read.size, table_meta.fragment_sizes[read.fragment]);
  }
  EXPECT_LT(runs.reads.size(), per_block.reads.size());
}

TEST_F(AsyncStocTest, ReadaheadIteratorMatchesSerialScan) {
  // A sweep over the whole table asks for all its rows, so each miss
  // fetches the rest of its fragment: one read per fragment instead of
  // one per block, and every block fetched ahead is reached.
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  const uint64_t blocks = DataBlocks(table_meta).size();
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher fetcher(client_.get(), *meta);
  SSTableReader reader(table_meta, &fetcher);

  auto sweep = [&](int rows, ReadaheadCounters* counters,
                   uint64_t* stoc_reads) {
    IteratorOptions options;
    options.rows = rows;
    options.counters = counters;
    std::unique_ptr<Iterator> it(reader.NewIterator(options));
    uint64_t before = client_->read_block_calls();
    Rows got;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      got.emplace_back(it->key().ToString(), it->value().ToString());
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    *stoc_reads = client_->read_block_calls() - before;
    return got;
  };
  ReadaheadCounters per_block_counters, run_counters;
  uint64_t block_reads = 0, run_reads = 0;
  Rows per_block = sweep(/*rows=*/0, &per_block_counters, &block_reads);
  Rows runs = sweep(kAllRows, &run_counters, &run_reads);
  ASSERT_EQ(per_block.size(), 300u);
  EXPECT_EQ(runs, per_block);
  EXPECT_EQ(block_reads, blocks);
  EXPECT_EQ(run_reads, 3u);
  EXPECT_EQ(per_block_counters.issued.load(), 0u);
  EXPECT_EQ(run_counters.issued.load(), blocks - 3);
  EXPECT_EQ(run_counters.hits.load(), run_counters.issued.load());
}

TEST_F(AsyncStocTest, SeekBeforeTheFirstKeyDefersTheFirstBlock) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher stoc_fetcher(client_.get(), *meta);
  RecordingFetcher fetcher(&stoc_fetcher);
  SSTableReader reader(table_meta, &fetcher);

  // Both targets sort at or before the first entry, (Key(0), seq 1).
  for (const std::string& target : {std::string("a"), Key(0)}) {
    SCOPED_TRACE(target);
    LookupKey lkey(target, kMaxSequenceNumber);
    for (bool step : {false, true}) {
      std::unique_ptr<Iterator> it(reader.NewIterator());
      size_t reads = fetcher.reads.size();
      it->Seek(lkey.internal_key());
      ASSERT_TRUE(it->Valid());
      EXPECT_EQ(it->key(), table_meta.smallest.Encode());
      EXPECT_EQ(fetcher.reads.size(), reads);
      if (step) {
        it->Next();
        ASSERT_TRUE(it->Valid());
        EXPECT_EQ(ExtractUserKey(it->key()), Slice(Key(1)));
      } else {
        EXPECT_EQ(it->value().ToString(), std::string(256, 'v'));
      }
      EXPECT_EQ(fetcher.reads.size(), reads + 1);
      EXPECT_TRUE(it->status().ok());
    }
  }

  // A deferred block whose read fails leaves the iterator invalid with
  // the error, for value() and for a step, even though the next block
  // would read fine.
  for (bool step : {false, true}) {
    fetcher.fail_next = Status::IOError("injected fragment loss");
    std::unique_ptr<Iterator> it(reader.NewIterator());
    it->Seek(LookupKey(Key(0), kMaxSequenceNumber).internal_key());
    ASSERT_TRUE(it->Valid());
    if (step) {
      it->Next();
    } else {
      EXPECT_TRUE(it->value().empty());
    }
    EXPECT_FALSE(it->Valid());
    EXPECT_TRUE(it->status().IsIOError()) << it->status().ToString();
    it->Next();  // a merge may still step it; that must be harmless
    EXPECT_FALSE(it->Valid());
  }
}

TEST_F(AsyncStocTest, CorruptBlockInARunSurfacesAsCorruption) {
  auto built = BuildTable(/*num_keys=*/300, /*num_fragments=*/3);
  SSTableMetadata table_meta = built.meta;
  std::vector<DataBlock> blocks = DataBlocks(table_meta);
  std::string data;
  lsm::FileMetaRef meta = WriteScatteredTable(std::move(built), &data);
  lsm::StocBlockFetcher stoc_fetcher(client_.get(), *meta);
  RecordingFetcher fetcher(&stoc_fetcher);
  ASSERT_EQ(FragmentOf(table_meta, blocks[2]).first, 0);
  // Flip a payload byte of block 2, the second block of the run that a
  // 10-row scan from the last key of block 1 fetches.
  fetcher.flip_fragment = 0;
  fetcher.flip_offset = FragmentOf(table_meta, blocks[2]).second + 10;
  SSTableReader reader(table_meta, &fetcher);
  IteratorOptions options;
  options.rows = 10;
  std::unique_ptr<Iterator> it(reader.NewIterator(options));
  Rows got = ScanRows(it.get(), blocks[1].last_key, 10);

  ASSERT_GE(fetcher.reads.size(), 1u);
  EXPECT_EQ(fetcher.reads[0].size,
            blocks[1].handle.size + blocks[2].handle.size);
  EXPECT_TRUE(it->status().IsCorruption()) << it->status().ToString();
  // Block 1's row was good; none of block 2's rows came through.
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].first, blocks[1].last_key);
  for (size_t i = 1; i < got.size(); i++) {
    EXPECT_GT(got[i].first, blocks[2].last_key);
  }
}

TEST_F(AsyncStocTest, RunsOnOverlappingTablesMatchOracleWithNoExtraReads) {
  // Three overlapping tables, each rewriting a shifted window of keys at
  // newer sequence numbers (as in the compaction test above).
  std::vector<lsm::FileMetaRef> files;
  std::vector<SSTableMetadata> table_metas;
  std::map<std::string, std::string> oracle;
  for (int t = 0; t < 3; t++) {
    SSTableBuilder builder;
    for (int i = t * 100; i < t * 100 + 300; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(Key(i), t * 1000 + i + 1,
                                                 kTypeValue));
      std::string value(256, static_cast<char>('a' + t));
      builder.Add(ikey, value);
      oracle[Key(i)] = value;
    }
    auto built = builder.Finish(/*file_number=*/t + 1, /*num_fragments=*/3);
    table_metas.push_back(built.meta);
    std::string data;
    files.push_back(WriteScatteredTable(std::move(built), &data));
  }
  std::vector<std::unique_ptr<lsm::StocBlockFetcher>> fetchers;
  std::vector<std::unique_ptr<SSTableReader>> readers;
  for (int t = 0; t < 3; t++) {
    fetchers.push_back(
        std::make_unique<lsm::StocBlockFetcher>(client_.get(), *files[t]));
    readers.push_back(
        std::make_unique<SSTableReader>(table_metas[t], fetchers[t].get()));
  }

  InternalKeyComparator icmp;
  auto scan = [&](const std::string& start, size_t n, int rows,
                  uint64_t* stoc_reads) {
    IteratorOptions options;
    options.rows = rows;
    std::vector<Iterator*> children;
    for (auto& reader : readers) {
      children.push_back(reader->NewIterator(options));
    }
    std::unique_ptr<Iterator> merged(
        NewMergingIterator(&icmp, std::move(children)));
    uint64_t before = client_->read_block_calls();
    Rows got = ScanRows(merged.get(), start, n);
    EXPECT_TRUE(merged->status().ok()) << merged->status().ToString();
    *stoc_reads = client_->read_block_calls() - before;
    return got;
  };

  Random rng(14);
  uint64_t total_block_reads = 0, total_run_reads = 0;
  for (int trial = 0; trial < 100; trial++) {
    std::string start = Key(rng.Uniform(520));
    size_t n = 1 + rng.Uniform(40);
    SCOPED_TRACE(start + " x" + std::to_string(n));
    Rows expected;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && expected.size() < n; ++it) {
      expected.push_back(*it);
    }
    uint64_t block_reads = 0, run_reads = 0;
    EXPECT_EQ(scan(start, n, /*rows=*/0, &block_reads), expected);
    EXPECT_EQ(scan(start, n, static_cast<int>(n), &run_reads), expected);
    EXPECT_LE(run_reads, block_reads);
    total_block_reads += block_reads;
    total_run_reads += run_reads;
  }
  EXPECT_LT(total_run_reads, total_block_reads);
}

// ---------------------------------------------------------------------------
// Scan runs end to end through the cluster.
// ---------------------------------------------------------------------------

TEST(ScanReadaheadClusterTest, HitsCountedAndResultsIdentical) {
  coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = 3;
  opt.device.time_scale = 0;
  // Memtables sized so a flush spans several 4 KB data blocks — a
  // single-block SSTable has nothing to read ahead.
  opt.range.memtable_size = 32 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 64 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.l0_stop_bytes = 256 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.mode = logc::LogMode::kNone;
  opt.placement.rho = 2;
  opt.stoc.slab_bytes = 64 << 20;
  opt.stoc.slab_page_bytes = 256 << 10;
  coord::Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 800; i++) {
    std::string value = std::string(512, 'v') + std::to_string(i);
    ASSERT_TRUE(cluster.Put(Key(i % 400), value).ok());
    oracle[Key(i % 400)] = value;
  }
  for (auto* engine : cluster.ltc(0)->ranges()) {
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(/*flush_all=*/true);
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(cluster.Scan(Key(0), 400, &rows).ok());
  EXPECT_EQ(rows, Rows(oracle.begin(), oracle.end()));
  ltc::RangeStats stats = cluster.TotalStats();
  EXPECT_GT(stats.readahead_issued, 0u);
  EXPECT_LE(stats.readahead_hits, stats.readahead_issued);
  cluster.Stop();
}

}  // namespace
}  // namespace nova
