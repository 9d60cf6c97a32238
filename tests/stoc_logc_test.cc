// Unit tests for the Storage Component server/client pair (including the
// disk load that power-of-d placement ranks StoCs by) and the Logging
// Component, over the RDMA fabric emulation.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "logc/log_client.h"
#include "logc/log_record.h"
#include "lsm/table_io.h"
#include "rdma/rpc.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"

namespace nova {
namespace {

class StocTest : public testing::Test {
 protected:
  static constexpr rdma::NodeId kClientNode = 0;
  static constexpr rdma::NodeId kStoc0 = 1000;
  static constexpr rdma::NodeId kStoc1 = 1001;

  void SetUp() override {
    DeviceConfig dcfg;
    dcfg.time_scale = 0;
    for (int i = 0; i < 2; i++) {
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

  rdma::RdmaFabric fabric_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> servers_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> client_;
};

TEST_F(StocTest, PersistentAppendAndRead) {
  uint64_t file_id = stoc::MakeFileId(1, 7, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle handle;
  ASSERT_TRUE(
      client_->AppendBlock(kStoc0, file_id, "block-contents", &handle).ok());
  EXPECT_EQ(handle.stoc_id, kStoc0);
  EXPECT_EQ(handle.offset, 0u);
  EXPECT_EQ(handle.size, 14u);

  std::string data;
  ASSERT_TRUE(client_->ReadBlock(kStoc0, file_id, 0, 14, &data).ok());
  EXPECT_EQ(data, "block-contents");
  // Whole-file read with size 0.
  ASSERT_TRUE(client_->ReadBlock(kStoc0, file_id, 0, 0, &data).ok());
  EXPECT_EQ(data, "block-contents");
  // The flush went through the simulated device.
  EXPECT_GE(devices_[0]->num_writes(), 1u);
}

TEST_F(StocTest, MultipleAppendsAccumulate) {
  uint64_t file_id = stoc::MakeFileId(1, 8, stoc::FileKind::kManifest, 0);
  stoc::StocBlockHandle h1, h2;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, file_id, "aaa", &h1).ok());
  ASSERT_TRUE(client_->AppendBlock(kStoc0, file_id, "bbbb", &h2).ok());
  EXPECT_EQ(h1.offset, 0u);
  EXPECT_EQ(h2.offset, 3u);
  std::string data;
  ASSERT_TRUE(client_->ReadBlock(kStoc0, file_id, 0, 0, &data).ok());
  EXPECT_EQ(data, "aaabbbb");
}

TEST_F(StocTest, DeleteFile) {
  uint64_t file_id = stoc::MakeFileId(1, 9, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle handle;
  ASSERT_TRUE(client_->AppendBlock(kStoc0, file_id, "x", &handle).ok());
  ASSERT_TRUE(client_->DeleteFile(kStoc0, file_id, false).ok());
  std::string data;
  EXPECT_FALSE(client_->ReadBlock(kStoc0, file_id, 0, 0, &data).ok());
}

TEST_F(StocTest, StatsReportQueueAndBytes) {
  uint64_t file_id = stoc::MakeFileId(1, 10, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle handle;
  client_->AppendBlock(kStoc0, file_id, std::string(1000, 'x'), &handle);
  stoc::StocStats stats;
  ASSERT_TRUE(client_->GetStats(kStoc0, &stats).ok());
  EXPECT_EQ(stats.stored_bytes, 1000u);
  // The append finished on a device that takes no time: no load is left.
  EXPECT_EQ(stats.disk_load_us, 0u);
}

TEST_F(StocTest, DiskLoadCountsAppendsWaitingForStorageThreads) {
  // Six appends on a slowed StoC with two storage threads: the device
  // sees at most two at a time, the StoC's disk load all six.
  constexpr int kAppends = 6;
  constexpr uint64_t kLatencyUs = 200 * 1000;
  devices_[0]->InjectLatency(kLatencyUs);
  std::string block(4096, 'x');
  std::vector<stoc::PendingAppend> appends;
  for (int i = 0; i < kAppends; i++) {
    appends.push_back(client_->AsyncAppendBlock(
        kStoc0, stoc::MakeFileId(1, 20 + i, stoc::FileKind::kData, 0),
        block));
  }
  for (stoc::PendingAppend& a : appends) {
    ASSERT_TRUE(a.Arm().ok());
  }
  // The StoC accepts an append when its data lands, just after Arm.
  const uint64_t all_queued = kAppends * kLatencyUs;
  stoc::StocStats stats;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    ASSERT_TRUE(client_->GetStats(kStoc0, &stats).ok());
  } while (stats.disk_load_us < all_queued &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_GE(stats.disk_load_us, all_queued);
  EXPECT_LE(devices_[0]->QueueDepth(), 2);
  for (stoc::PendingAppend& a : appends) {
    stoc::StocBlockHandle handle;
    EXPECT_TRUE(a.Wait(&handle).ok());
  }
  devices_[0]->InjectLatency(0);
}

TEST_F(StocTest, PowerOfDPicksIdleStocOverOneThatJustDrained) {
  // StoC 0 serves a burst of appends and drains it; StoC 1 stays idle.
  // With nothing left at either device, the recent busy time still tells
  // them apart.
  devices_[0]->InjectLatency(50 * 1000);
  std::string block(4096, 'x');
  for (int i = 0; i < 3; i++) {
    stoc::StocBlockHandle handle;
    ASSERT_TRUE(client_
                    ->AppendBlock(kStoc0,
                                  stoc::MakeFileId(1, 40 + i,
                                                   stoc::FileKind::kData, 0),
                                  block, &handle)
                    .ok());
  }
  devices_[0]->InjectLatency(0);
  ASSERT_EQ(devices_[0]->QueueDepth(), 0);

  lsm::PlacementOptions popt;
  popt.stocs = {kStoc0, kStoc1};
  popt.power_of_d = true;
  lsm::SSTablePlacer placer(client_.get(), popt);
  for (int i = 0; i < 50; i++) {
    std::vector<rdma::NodeId> picked = placer.PickStocs(1);
    ASSERT_EQ(picked.size(), 1u);
    EXPECT_EQ(picked[0], kStoc1) << "pick " << i;
  }
}

TEST_F(StocTest, InMemFileOneSidedWriteAndRead) {
  uint64_t file_id = stoc::MakeFileId(2, 1, stoc::FileKind::kLog, 0);
  stoc::InMemFileHandle handle;
  ASSERT_TRUE(client_->OpenInMemFile(kStoc0, file_id, 4096, &handle).ok());
  ASSERT_EQ(handle.regions.size(), 1u);
  ASSERT_TRUE(client_->WriteInMem(handle, 100, "log-record").ok());
  std::string region;
  ASSERT_TRUE(client_->ReadInMemRegion(handle, 0, &region).ok());
  EXPECT_EQ(region.substr(100, 10), "log-record");
  // Region is zero-initialized elsewhere.
  EXPECT_EQ(region[0], '\0');
  // Extending adds a second region of the same size.
  ASSERT_TRUE(client_->ExtendInMemFile(&handle).ok());
  ASSERT_EQ(handle.regions.size(), 2u);
  ASSERT_TRUE(client_->WriteInMem(handle, 4096 + 5, "second").ok());
  ASSERT_TRUE(client_->ReadInMemRegion(handle, 1, &region).ok());
  EXPECT_EQ(region.substr(5, 6), "second");
}

TEST_F(StocTest, WriteSpanningRegionRejected) {
  uint64_t file_id = stoc::MakeFileId(2, 2, stoc::FileKind::kLog, 0);
  stoc::InMemFileHandle handle;
  ASSERT_TRUE(client_->OpenInMemFile(kStoc0, file_id, 128, &handle).ok());
  EXPECT_TRUE(client_->WriteInMem(handle, 120, "0123456789")
                  .IsInvalidArgument());
}

TEST_F(StocTest, CopyFileToAnotherStoc) {
  uint64_t file_id = stoc::MakeFileId(3, 1, stoc::FileKind::kData, 0);
  stoc::StocBlockHandle handle;
  ASSERT_TRUE(
      client_->AppendBlock(kStoc0, file_id, "payload-to-copy", &handle).ok());
  ASSERT_TRUE(client_->CopyFileTo(kStoc0, file_id, kStoc1).ok());
  std::string data;
  ASSERT_TRUE(client_->ReadBlock(kStoc1, file_id, 0, 0, &data).ok());
  EXPECT_EQ(data, "payload-to-copy");
}

TEST_F(StocTest, QueryLogFilesFiltersByRange) {
  stoc::InMemFileHandle h1, h2, h3;
  client_->OpenInMemFile(kStoc0, stoc::MakeFileId(5, 1, stoc::FileKind::kLog, 0),
                         256, &h1);
  client_->OpenInMemFile(kStoc0, stoc::MakeFileId(5, 2, stoc::FileKind::kLog, 0),
                         256, &h2);
  client_->OpenInMemFile(kStoc0, stoc::MakeFileId(6, 1, stoc::FileKind::kLog, 0),
                         256, &h3);
  std::vector<stoc::InMemFileHandle> handles;
  ASSERT_TRUE(client_->QueryLogFiles(kStoc0, 5, &handles).ok());
  EXPECT_EQ(handles.size(), 2u);
  ASSERT_TRUE(client_->QueryLogFiles(kStoc0, 7, &handles).ok());
  EXPECT_TRUE(handles.empty());
}

TEST_F(StocTest, FileIdEncoding) {
  uint64_t id = stoc::MakeFileId(42, 123456, stoc::FileKind::kParity, 3);
  EXPECT_EQ(stoc::FileIdRange(id), 42u);
  EXPECT_EQ(stoc::FileIdNumber(id), 123456u);
  EXPECT_EQ(stoc::FileIdKind(id), stoc::FileKind::kParity);
  EXPECT_EQ(stoc::FileIdFragment(id), 3);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  logc::LogRecord rec;
  rec.memtable_id = 77;
  rec.sequence = 123456789;
  rec.type = kTypeValue;
  rec.key = "the-key";
  rec.value = std::string(500, 'v');
  std::string buf;
  logc::EncodeLogRecord(&buf, rec);
  Slice in(buf);
  logc::LogRecord out;
  ASSERT_EQ(logc::DecodeLogRecord(&in, &out), logc::DecodeResult::kRecord);
  EXPECT_EQ(out.memtable_id, 77u);
  EXPECT_EQ(out.sequence, 123456789u);
  EXPECT_EQ(out.key, "the-key");
  EXPECT_EQ(out.value, rec.value);
  EXPECT_TRUE(in.empty());
}

TEST(LogRecordTest, EndAndPaddingMarkers) {
  std::string buf(8, '\0');  // zeroed region tail
  Slice in(buf);
  logc::LogRecord out;
  EXPECT_EQ(logc::DecodeLogRecord(&in, &out), logc::DecodeResult::kEnd);

  std::string pad;
  PutFixed32(&pad, logc::kPaddingMarker);
  Slice pin(pad);
  EXPECT_EQ(logc::DecodeLogRecord(&pin, &out), logc::DecodeResult::kPadding);
  EXPECT_TRUE(pin.empty());
}

TEST(LogRecordTest, TruncatedRecordIsEnd) {
  logc::LogRecord rec;
  rec.key = "k";
  rec.value = "v";
  std::string buf;
  logc::EncodeLogRecord(&buf, rec);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  logc::LogRecord out;
  EXPECT_EQ(logc::DecodeLogRecord(&in, &out), logc::DecodeResult::kEnd);
}

class LogClientTest : public StocTest {};

TEST_F(LogClientTest, AppendAndRecover) {
  logc::LogOptions opt;
  opt.num_replicas = 2;
  opt.region_size = 8 << 10;
  logc::LogClient logc(client_.get(), /*range_id=*/9, opt);
  ASSERT_TRUE(logc.CreateLogFile(1, {kStoc0, kStoc1}).ok());
  for (int i = 0; i < 50; i++) {
    logc::LogRecord rec;
    rec.memtable_id = 1;
    rec.sequence = i + 1;
    rec.key = "key" + std::to_string(i);
    rec.value = "value" + std::to_string(i);
    ASSERT_TRUE(logc.Append(1, rec).ok());
  }
  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  ASSERT_TRUE(logc::LogClient::FetchAllLogRecords(
                  client_.get(), {kStoc0, kStoc1}, 9, &by_memtable)
                  .ok());
  ASSERT_EQ(by_memtable.size(), 1u);
  EXPECT_EQ(by_memtable[1].size(), 50u);
  EXPECT_EQ(by_memtable[1][49].value, "value49");
}

TEST_F(LogClientTest, SurvivesOneReplicaLoss) {
  logc::LogOptions opt;
  opt.num_replicas = 2;
  opt.region_size = 8 << 10;
  logc::LogClient logc(client_.get(), 9, opt);
  ASSERT_TRUE(logc.CreateLogFile(1, {kStoc0, kStoc1}).ok());
  logc::LogRecord rec;
  rec.memtable_id = 1;
  rec.sequence = 5;
  rec.key = "k";
  rec.value = "v";
  ASSERT_TRUE(logc.Append(1, rec).ok());
  // Kill replica 0; recovery must use replica 1.
  servers_[0]->Stop();
  fabric_.RemoveNode(kStoc0);
  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  ASSERT_TRUE(logc::LogClient::FetchAllLogRecords(
                  client_.get(), {kStoc0, kStoc1}, 9, &by_memtable)
                  .ok());
  ASSERT_EQ(by_memtable[1].size(), 1u);
  EXPECT_EQ(by_memtable[1][0].value, "v");
}

TEST_F(LogClientTest, MultiRegionLogFile) {
  logc::LogOptions opt;
  opt.num_replicas = 1;
  opt.region_size = 2048;  // force region extension
  logc::LogClient logc(client_.get(), 9, opt);
  ASSERT_TRUE(logc.CreateLogFile(2, {kStoc0}).ok());
  std::string big_value(700, 'x');
  for (int i = 0; i < 10; i++) {
    logc::LogRecord rec;
    rec.memtable_id = 2;
    rec.sequence = i + 1;
    rec.key = "k" + std::to_string(i);
    rec.value = big_value;
    ASSERT_TRUE(logc.Append(2, rec).ok()) << i;
  }
  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  ASSERT_TRUE(logc::LogClient::FetchAllLogRecords(client_.get(), {kStoc0}, 9,
                                                  &by_memtable)
                  .ok());
  EXPECT_EQ(by_memtable[2].size(), 10u);
}

TEST_F(LogClientTest, DeleteLogFileReclaims) {
  logc::LogOptions opt;
  opt.num_replicas = 1;
  opt.region_size = 8 << 10;
  logc::LogClient logc(client_.get(), 9, opt);
  ASSERT_TRUE(logc.CreateLogFile(3, {kStoc0}).ok());
  EXPECT_EQ(servers_[0]->num_in_memory_files(), 1u);
  ASSERT_TRUE(logc.DeleteLogFile(3).ok());
  EXPECT_EQ(servers_[0]->num_in_memory_files(), 0u);
  EXPECT_FALSE(logc.HasLogFile(3));
}

TEST_F(LogClientTest, NicPathAppends) {
  logc::LogOptions opt;
  opt.num_replicas = 1;
  opt.region_size = 8 << 10;
  opt.use_nic_path = true;
  logc::LogClient logc(client_.get(), 9, opt);
  ASSERT_TRUE(logc.CreateLogFile(4, {kStoc0}).ok());
  logc::LogRecord rec;
  rec.memtable_id = 4;
  rec.sequence = 1;
  rec.key = "nic";
  rec.value = "path";
  ASSERT_TRUE(logc.Append(4, rec).ok());
  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  ASSERT_TRUE(logc::LogClient::FetchAllLogRecords(client_.get(), {kStoc0}, 9,
                                                  &by_memtable)
                  .ok());
  EXPECT_EQ(by_memtable[4].size(), 1u);
}

}  // namespace
}  // namespace nova
