// Tests for SSTable placement: one StoC order per SSTable and one rule
// (lsm::PickPieceStoc) place every fragment replica, metadata replica and
// parity block, preferring a StoC that holds no piece of the SSTable, and
// a write still lands when fewer StoCs are routable than it has replicas.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_core/workload.h"
#include "coord/membership.h"
#include "lsm/table_io.h"
#include "rdma/rpc.h"
#include "sstable/sstable_builder.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"

namespace nova {
namespace {

class PlacementTest : public testing::Test {
 protected:
  static constexpr rdma::NodeId kClientNode = 0;
  static constexpr rdma::NodeId kStoc0 = 1000;

  void StartStocs(int n) {
    DeviceConfig dcfg;
    dcfg.time_scale = 0;
    for (int i = 0; i < n; i++) {
      devices_.push_back(
          std::make_unique<SimulatedDevice>("d" + std::to_string(i), dcfg));
      stores_.push_back(std::make_unique<BlockStore>());
      stoc::StocServerOptions opt;
      opt.slab_bytes = 4 << 20;
      opt.slab_page_bytes = 256 << 10;
      servers_.push_back(std::make_unique<stoc::StocServer>(
          &fabric_, kStoc0 + i, devices_[i].get(), stores_[i].get(), opt));
      servers_[i]->Start();
      stocs_.push_back(kStoc0 + i);
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
    if (endpoint_ != nullptr) {
      endpoint_->Stop();
    }
    for (auto& s : servers_) {
      s->Stop();
    }
  }

  static SSTableBuilder::Result BuildTable(uint64_t file_number,
                                           int num_fragments) {
    SSTableBuilder builder;
    std::string value(256, 'v');
    for (int i = 0; i < 200; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(bench::MakeKey(i), i + 1,
                                                 kTypeValue));
      builder.Add(ikey, value);
    }
    return builder.Finish(file_number, num_fragments);
  }

  /// Writes `tables` SSTables of rho fragments through one placer.
  std::vector<lsm::FileMetaData> WriteTables(const lsm::PlacementOptions& popt,
                                             int tables) {
    lsm::SSTablePlacer placer(client_.get(), popt);
    std::vector<lsm::FileMetaData> out(tables);
    for (int t = 0; t < tables; t++) {
      Status s = placer.Write(BuildTable(t + 1, popt.rho), &out[t]);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return out;
  }

  rdma::RdmaFabric fabric_;
  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> servers_;
  std::vector<rdma::NodeId> stocs_;
  coord::Membership membership_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> client_;
};

TEST_F(PlacementTest, ParityBlocksSpreadOverAHybridCluster) {
  // Figure 16's Hybrid cell: 10 StoCs, ρ=3, a parity block and 3
  // metadata replicas, placed by power-of-d.
  StartStocs(10);
  lsm::PlacementOptions popt;
  popt.stocs = stocs_;
  popt.rho = 3;
  popt.use_parity = true;
  popt.num_meta_replicas = 3;
  const int kTables = 40;
  std::map<int32_t, int> parity_per_stoc;
  for (const lsm::FileMetaData& meta : WriteTables(popt, kTables)) {
    ASSERT_EQ(meta.fragments.size(), 3u);
    ASSERT_TRUE(meta.parity.valid());
    parity_per_stoc[meta.parity.stoc_id]++;
    // 7 pieces on 10 StoCs: no StoC holds two pieces of one SSTable.
    std::set<int32_t> used;
    int pieces = 0;
    lsm::ForEachPiece(meta, [&](lsm::PieceKind, int,
                                const lsm::BlockLocation& loc) {
      used.insert(loc.stoc_id);
      pieces++;
    });
    EXPECT_EQ(pieces, 7);
    EXPECT_EQ(used.size(), 7u);
  }
  for (const auto& [stoc, count] : parity_per_stoc) {
    EXPECT_LE(count, kTables / 2) << "StoC " << stoc;
  }
}

TEST_F(PlacementTest, MetadataReplicaAvoidsItsFragmentsStoc) {
  // bench_nova's shape: ρ=1, one metadata replica, 3 StoCs.
  StartStocs(3);
  lsm::PlacementOptions popt;
  popt.stocs = stocs_;
  for (const lsm::FileMetaData& meta : WriteTables(popt, 40)) {
    ASSERT_EQ(meta.fragments.size(), 1u);
    ASSERT_EQ(meta.fragments[0].size(), 1u);
    ASSERT_EQ(meta.meta_replicas.size(), 1u);
    EXPECT_NE(meta.meta_replicas[0].stoc_id, meta.fragments[0][0].stoc_id)
        << "file " << meta.number;
  }
}

TEST_F(PlacementTest, WriteLandsWithBothReplicasOnTheOneRoutableStoc) {
  // R=2 with two of three StoCs dead: no StoC is free of the other
  // replica, so the write shares the one that is left rather than fail.
  StartStocs(3);
  for (rdma::NodeId n : stocs_) {
    membership_.NodeJoined(n);
  }
  membership_.MarkDead(stocs_[1]);
  membership_.MarkDead(stocs_[2]);
  client_->set_membership(&membership_);
  lsm::PlacementOptions popt;
  popt.stocs = stocs_;
  popt.num_data_replicas = 2;
  SSTableBuilder::Result built = BuildTable(1, 1);
  std::string data = built.data;
  lsm::SSTablePlacer placer(client_.get(), popt);
  lsm::FileMetaData meta;
  Status s = placer.Write(std::move(built), &meta);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(meta.fragments.size(), 1u);
  ASSERT_EQ(meta.fragments[0].size(), 2u);
  for (const lsm::BlockLocation& loc : meta.fragments[0]) {
    EXPECT_EQ(loc.stoc_id, stocs_[0]);
    std::string got;
    ASSERT_TRUE(client_->ReadReplicated({{loc.stoc_id, loc.file_id}}, 0,
                                        data.size(), &got)
                    .ok());
    EXPECT_EQ(got, data);
  }
  ASSERT_EQ(meta.meta_replicas.size(), 1u);
  EXPECT_EQ(meta.meta_replicas[0].stoc_id, stocs_[0]);
}

}  // namespace
}  // namespace nova
