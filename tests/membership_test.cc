// ISSUE 9: failure detection, the circuit breaker, and automatic repair.
//  * Membership state machine unit tests (alive -> suspect -> dead ->
//    probing -> alive, probe spacing, lease-expiry integration).
//  * Circuit breaker: no RPCs routed to suspect/dead StoCs; placement
//    excludes them.
//  * Repair end-to-end: R=3 under a Zipfian load, KillStoc drives
//    degraded_fragments to a peak and back to zero with no operator
//    action, and post-repair reads take the normal (non-parity) path.
//  * Graceful StoC removal, which re-homes pieces through the repair
//    path: replicas stay on distinct StoCs, a concurrent writer loses
//    nothing, a StoC holding a MANIFEST replica hands it over, and log
//    files and offloaded compactions follow the StoCs that stay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "bench_core/workload.h"
#include "coord/cluster.h"
#include "coord/coordinator.h"
#include "coord/membership.h"
#include "lsm/table_io.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace nova {
namespace {

using coord::Membership;
using coord::MembershipOptions;
using coord::NodeHealth;

MembershipOptions FastMembership() {
  MembershipOptions m;
  m.failure_threshold = 2;
  m.dead_after_ms = 100;
  m.rejoin_probes = 1;
  m.probe_interval_ms = 5;
  return m;
}

TEST(MembershipTest, FailureThresholdDrivesSuspect) {
  Membership m(FastMembership());
  m.NodeJoined(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kAlive);
  EXPECT_TRUE(m.IsRoutable(1000));
  m.ReportFailure(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kAlive);  // below threshold
  m.ReportFailure(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kSuspect);
  EXPECT_FALSE(m.IsRoutable(1000));
  // One success clears the suspicion entirely.
  m.ReportSuccess(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kAlive);
  // A success also resets the consecutive-failure counter.
  m.ReportFailure(1000);
  m.ReportSuccess(1000);
  m.ReportFailure(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kAlive);
}

TEST(MembershipTest, SuspectPromotesToDeadAfterDeadline) {
  Membership m(FastMembership());
  m.NodeJoined(1000);
  m.MarkSuspect(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kSuspect);
  EXPECT_TRUE(m.DeadNodes().empty());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Promotion is lazy: any read observes it.
  EXPECT_EQ(m.health(1000), NodeHealth::kDead);
  ASSERT_EQ(m.DeadNodes().size(), 1u);
  EXPECT_EQ(m.DeadNodes()[0], 1000);
  EXPECT_FALSE(m.IsRoutable(1000));
  // Dead nodes are not probed; they must rejoin through the coordinator.
  EXPECT_FALSE(m.AllowProbe(1000));
}

TEST(MembershipTest, DeadRejoinsThroughProbing) {
  Membership m(FastMembership());
  m.NodeJoined(1000);
  m.MarkDead(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kDead);
  m.NodeJoined(1000);  // lease re-granted
  EXPECT_EQ(m.health(1000), NodeHealth::kProbing);
  EXPECT_FALSE(m.IsRoutable(1000));
  EXPECT_TRUE(m.AllowProbe(1000));
  // Probes are spaced probe_interval_ms apart.
  EXPECT_FALSE(m.AllowProbe(1000));
  m.ReportSuccess(1000);  // rejoin_probes = 1
  EXPECT_EQ(m.health(1000), NodeHealth::kAlive);
  EXPECT_TRUE(m.IsRoutable(1000));
}

TEST(MembershipTest, ProbingFailureFallsBackToSuspect) {
  Membership m(FastMembership());
  m.NodeJoined(1000);
  m.MarkDead(1000);
  m.NodeJoined(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kProbing);
  m.ReportFailure(1000);
  EXPECT_EQ(m.health(1000), NodeHealth::kSuspect);
  // ... and the death clock restarts from this fresh suspicion.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(m.health(1000), NodeHealth::kDead);
}

TEST(MembershipTest, UnknownNodesAreRoutable) {
  Membership m(FastMembership());
  EXPECT_TRUE(m.IsRoutable(42));
  EXPECT_EQ(m.health(42), NodeHealth::kAlive);
}

TEST(CoordinatorMembershipTest, HeartbeatLeaseExpiryMarksSuspect) {
  coord::Coordinator coordinator(FastMembership());
  coordinator.GrantLease(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kAlive);
  // The lease is expired: the node is suspect.
  coordinator.ExpireLease(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kSuspect);
  // Re-granting the lease (the node came back before the death verdict)
  // restores it.
  coordinator.GrantLease(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kAlive);
}

TEST(CoordinatorMembershipTest, ExpireLeaseThenVerdictThenRejoin) {
  coord::Coordinator coordinator(FastMembership());
  coordinator.GrantLease(1000);
  coordinator.ExpireLease(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kSuspect);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kDead);
  coordinator.GrantLease(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kProbing);
  coordinator.membership()->ReportSuccess(1000);
  EXPECT_EQ(coordinator.membership()->health(1000), NodeHealth::kAlive);
}

coord::ClusterOptions RepairClusterOptions(int stocs) {
  coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = stocs;
  opt.device.time_scale = 0;
  opt.membership = FastMembership();
  opt.range.memtable_size = 8 << 10;
  opt.range.max_memtables = 8;
  opt.range.max_sstable_size = 16 << 10;
  opt.range.drange.theta = 4;
  opt.range.drange.warmup_writes = 200;
  opt.range.lsm.l0_compaction_trigger_bytes = 64 << 10;
  opt.range.lsm.l0_stop_bytes = 512 << 10;
  opt.range.manifest_replicas = 1;
  opt.ltc.repair.scan_interval_ms = 10;
  return opt;
}

/// Lost pieces across every live file of the engine, judged against the
/// given StoC (the test-side mirror of the repair scan's gauge).
int PiecesOnStoc(ltc::RangeEngine* engine, rdma::NodeId stoc) {
  int n = 0;
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      for (const auto& replicas : f->fragments) {
        for (const auto& loc : replicas) {
          if (loc.stoc_id == stoc) n++;
        }
      }
      for (const auto& loc : f->meta_replicas) {
        if (loc.stoc_id == stoc) n++;
      }
      if (f->parity.valid() && f->parity.stoc_id == stoc) n++;
    }
  }
  return n;
}

TEST(BreakerTest, KilledStocIsExcludedFromRoutingAndPlacement) {
  coord::ClusterOptions opt = RepairClusterOptions(4);
  opt.ltc.repair.enabled = false;  // isolate the breaker from repair
  coord::Cluster cluster(opt);
  cluster.Start();
  stoc::StocClient* client = cluster.ltc(0)->stoc_client();
  rdma::NodeId victim = coord::Cluster::StocNode(3);
  EXPECT_TRUE(client->IsRoutable(victim));
  cluster.KillStoc(3);
  // ExpireLease marks the node suspect immediately: not routable.
  EXPECT_FALSE(client->IsRoutable(victim));
  // Placement never picks it (RefreshPlacements dropped it, and the
  // placer additionally filters by routability).
  auto* engine = cluster.ltc(0)->ranges()[0];
  for (int i = 0; i < 20; i++) {
    for (rdma::NodeId n : engine->placer()->PickStocs(3)) {
      EXPECT_NE(n, victim);
    }
  }
  // An RPC to the dead node fast-fails as Unavailable (circuit open or
  // fabric failure — either way typed, not a 30 s timeout).
  stoc::StocStats stats;
  Status s = client->GetStats(victim, &stats);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  cluster.Stop();
}

TEST(RepairTest, ReplicatedFragmentsRepairAfterDeathVerdict) {
  // R=3 data replicas + 3 meta replicas on 4 StoCs under a Zipfian load.
  coord::ClusterOptions opt = RepairClusterOptions(4);
  opt.placement.rho = 1;
  opt.placement.num_data_replicas = 3;
  opt.placement.num_meta_replicas = 3;
  coord::Cluster cluster(opt);
  cluster.Start();
  Random rng(7);
  ZipfianGenerator zipf(600, 0.99);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(cluster
                    .Put(bench::MakeKey(zipf.Next(&rng)),
                         "v" + std::to_string(i))
                    .ok());
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  // Kill a StoC that actually holds pieces.
  int victim_index = -1;
  for (int i = opt.num_stocs - 1; i >= 0; i--) {
    if (PiecesOnStoc(engine, coord::Cluster::StocNode(i)) > 0) {
      victim_index = i;
      break;
    }
  }
  ASSERT_GE(victim_index, 0) << "load produced no placements";
  rdma::NodeId victim = coord::Cluster::StocNode(victim_index);
  int lost = PiecesOnStoc(engine, victim);
  cluster.KillStoc(victim_index);

  // No operator action below this line: the death verdict lands after
  // dead_after_ms and the repair manager re-replicates everything.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t peak_degraded = 0;
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    ltc::RangeStats stats = cluster.TotalStats();
    peak_degraded = std::max(peak_degraded, stats.degraded_fragments);
    if (peak_degraded > 0 && stats.degraded_fragments == 0 &&
        PiecesOnStoc(engine, victim) == 0) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed) << "degraded pieces never reached zero (peak "
                      << peak_degraded << ", lost " << lost << ")";
  // `lost` is an upper bound, not an exact expectation: background
  // compaction can retire files (and their pieces) between the pre-kill
  // count and the repair scan, so the gauge peak and the repaired total
  // may come in slightly under it.
  EXPECT_GT(peak_degraded, 0u);

  ltc::RangeStats stats = cluster.TotalStats();
  EXPECT_GT(stats.repaired_fragments, 0u);
  EXPECT_GT(stats.repaired_bytes, 0u);
  EXPECT_GT(stats.repair_us, 0u) << "measured repair window not recorded";

  // Post-repair reads take the normal path: no live file references the
  // dead StoC anymore, and every key reads back with the node still down.
  EXPECT_EQ(PiecesOnStoc(engine, victim), 0);
  uint64_t degraded_before = engine->degraded_gets();
  for (int k = 0; k < 600; k++) {
    std::string value;
    Status s = cluster.Get(bench::MakeKey(k), &value);
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << k << " " << s.ToString();
  }
  EXPECT_EQ(engine->degraded_gets(), degraded_before);
  cluster.Stop();
}

TEST(RepairTest, ParityFragmentsRebuiltWhenAllReplicasLost) {
  // rho=2 fragments, R=1, plus a parity block: losing a StoC loses whole
  // fragments, which must be rebuilt by XOR and re-placed.
  coord::ClusterOptions opt = RepairClusterOptions(4);
  opt.placement.rho = 2;
  opt.placement.num_data_replicas = 1;
  opt.placement.num_meta_replicas = 2;
  opt.placement.use_parity = true;
  coord::Cluster cluster(opt);
  cluster.Start();
  Random rng(11);
  for (int i = 0; i < 2500; i++) {
    ASSERT_TRUE(cluster
                    .Put(bench::MakeKey(rng.Uniform(500)),
                         "p" + std::to_string(i))
                    .ok());
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  int victim_index = -1;
  for (int i = opt.num_stocs - 1; i >= 1; i--) {
    if (PiecesOnStoc(engine, coord::Cluster::StocNode(i)) > 0) {
      victim_index = i;
      break;
    }
  }
  ASSERT_GE(victim_index, 1);
  rdma::NodeId victim = coord::Cluster::StocNode(victim_index);
  cluster.KillStoc(victim_index);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.TotalStats().degraded_fragments == 0 &&
        cluster.TotalStats().repaired_fragments > 0 &&
        PiecesOnStoc(engine, victim) == 0) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(healed);
  // Every key still reads back with the victim down and its fragments
  // rebuilt from parity.
  for (int k = 0; k < 500; k++) {
    std::string value;
    Status s = cluster.Get(bench::MakeKey(k), &value);
    EXPECT_TRUE(s.ok() || s.IsNotFound()) << k << " " << s.ToString();
  }
  cluster.Stop();
}

TEST(RepairTest, RebuiltFragmentsAreByteIdenticalCompressedImages) {
  // Fragments are stored as compressed trailered blocks. The XOR-parity
  // rebuild must reproduce the on-StoC fragment image byte for byte —
  // not merely bytes that decode to the same rows — or checksums and
  // fragment_sizes would drift on the repaired copy.
  coord::ClusterOptions opt = RepairClusterOptions(4);
  opt.placement.rho = 2;
  opt.placement.num_data_replicas = 1;
  opt.placement.num_meta_replicas = 2;
  opt.placement.use_parity = true;
  coord::Cluster cluster(opt);
  cluster.Start();
  Random rng(13);
  for (int i = 0; i < 2500; i++) {
    ASSERT_TRUE(cluster
                    .Put(bench::MakeKey(rng.Uniform(500)),
                         "q" + std::to_string(i))
                    .ok());
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  int victim_index = -1;
  for (int i = opt.num_stocs - 1; i >= 1; i--) {
    if (PiecesOnStoc(engine, coord::Cluster::StocNode(i)) > 0) {
      victim_index = i;
      break;
    }
  }
  ASSERT_GE(victim_index, 1);
  rdma::NodeId victim = coord::Cluster::StocNode(victim_index);

  // Snapshot every data-fragment image the victim holds, while it is
  // still alive.
  stoc::StocClient* client = cluster.ltc(0)->stoc_client();
  struct FragmentImage {
    uint64_t number;
    size_t fragment;
    std::string bytes;
  };
  std::vector<FragmentImage> images;
  {
    lsm::VersionRef v = engine->versions()->current();
    for (int level = 0; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        for (size_t i = 0; i < f->fragments.size(); i++) {
          for (const auto& loc : f->fragments[i]) {
            if (loc.stoc_id != victim) {
              continue;
            }
            std::string bytes;
            ASSERT_TRUE(
                client->ReadBlock(victim, loc.file_id, 0, 0, &bytes).ok());
            ASSERT_EQ(bytes.size(), f->fragment_sizes[i]);
            images.push_back({f->number, i, std::move(bytes)});
          }
        }
      }
    }
  }
  ASSERT_FALSE(images.empty()) << "victim holds no data fragments";

  cluster.KillStoc(victim_index);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool healed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.TotalStats().degraded_fragments == 0 &&
        cluster.TotalStats().repaired_fragments > 0 &&
        PiecesOnStoc(engine, victim) == 0) {
      healed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(healed);

  // Compare every snapshotted fragment still live (compaction may have
  // retired some files in the window) against its re-placed copy.
  int compared = 0;
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      for (const FragmentImage& img : images) {
        if (img.number != f->number) {
          continue;
        }
        ASSERT_LT(img.fragment, f->fragments.size());
        for (const auto& loc : f->fragments[img.fragment]) {
          ASSERT_TRUE(loc.valid());
          ASSERT_NE(loc.stoc_id, victim);
          std::string bytes;
          ASSERT_TRUE(
              client->ReadBlock(loc.stoc_id, loc.file_id, 0, 0, &bytes).ok());
          EXPECT_TRUE(bytes == img.bytes)
              << "rebuilt fragment " << img.fragment << " of file "
              << img.number << " differs from the lost image";
          compared++;
        }
      }
    }
  }
  EXPECT_GT(compared, 0) << "every snapshotted file was compacted away";

  // Sanity: the images this test compared really were compressed ones.
  ltc::RangeStats stats = cluster.TotalStats();
  EXPECT_GT(stats.sstable_raw_bytes, stats.sstable_stored_bytes);
  cluster.Stop();
}

TEST(RepairTest, RestartedStocRejoinsRotation) {
  coord::ClusterOptions opt = RepairClusterOptions(3);
  opt.placement.num_data_replicas = 2;
  coord::Cluster cluster(opt);
  cluster.Start();
  stoc::StocClient* client = cluster.ltc(0)->stoc_client();
  rdma::NodeId victim = coord::Cluster::StocNode(2);
  cluster.KillStoc(2);
  EXPECT_FALSE(client->IsRoutable(victim));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(cluster.coordinator()->membership()->health(victim),
            NodeHealth::kDead);
  // RestartStoc re-grants the lease and drives the half-open probes; the
  // node must come back alive and routable without further action.
  cluster.RestartStoc(2);
  EXPECT_EQ(cluster.coordinator()->membership()->health(victim),
            NodeHealth::kAlive);
  EXPECT_TRUE(client->IsRoutable(victim));
  cluster.Stop();
}

/// Copies of one piece's bytes that share a StoC with another copy: a
/// second replica of a data fragment or of the metadata block on the same
/// StoC, across every live file of the engine.
int CoLocatedReplicas(ltc::RangeEngine* engine) {
  int n = 0;
  auto count = [&n](const std::vector<lsm::BlockLocation>& copies) {
    std::set<int32_t> stocs;
    for (const auto& loc : copies) {
      if (!stocs.insert(loc.stoc_id).second) n++;
    }
  };
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      for (const auto& replicas : f->fragments) {
        count(replicas);
      }
      count(f->meta_replicas);
    }
  }
  return n;
}

/// Every oracle key reads back through Get, and one Scan over the whole
/// keyspace returns exactly the oracle.
void ExpectMatchesOracle(coord::Cluster* cluster,
                         const std::map<std::string, std::string>& oracle) {
  for (const auto& [key, value] : oracle) {
    std::string got;
    Status s = cluster->Get(key, &got);
    ASSERT_TRUE(s.ok()) << key << " " << s.ToString();
    EXPECT_EQ(got, value) << key;
  }
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(
      cluster->Scan("", static_cast<int>(oracle.size()) + 10, &rows).ok());
  std::vector<std::pair<std::string, std::string>> want(oracle.begin(),
                                                        oracle.end());
  EXPECT_TRUE(rows == want) << "scan returned " << rows.size() << " rows, "
                            << want.size() << " expected";
}

TEST(GracefulRemoveTest, ReplicasStayOnDistinctStocs) {
  // R=2 data and metadata replicas on 3 StoCs: removing one leaves exactly
  // one StoC free of each moved piece's other copy, and the drain must
  // pick it.
  coord::ClusterOptions opt = RepairClusterOptions(3);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  coord::Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  Random rng(17);
  for (int i = 0; i < 3000; i++) {
    std::string key = bench::MakeKey(rng.Uniform(600));
    std::string value = "d" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  ASSERT_EQ(CoLocatedReplicas(engine), 0);

  rdma::NodeId victim = coord::Cluster::StocNode(2);
  int pieces = PiecesOnStoc(engine, victim);
  ASSERT_GT(pieces, 0);
  Status s = cluster.RemoveStocGraceful(2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(PiecesOnStoc(engine, victim), 0);
  EXPECT_EQ(CoLocatedReplicas(engine), 0)
      << "co-located replicas after moving " << pieces << " pieces";
  // A drain is not a repair: no piece was lost.
  ltc::RangeStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.repaired_fragments, 0u);
  EXPECT_EQ(stats.repaired_bytes, 0u);
  ExpectMatchesOracle(&cluster, oracle);
  cluster.Stop();
}

TEST(GracefulRemoveTest, RemovalUnderConcurrentWriter) {
  // A writer keeps flushing (and compacting) while the StoC drains: files
  // a compaction holds are retried, files it retires are dropped, and no
  // re-homing overwrites another.
  coord::ClusterOptions opt = RepairClusterOptions(4);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  coord::Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1500; i++) {
    std::string key = bench::MakeKey(i % 500);
    std::string value = "p" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  rdma::NodeId victim = coord::Cluster::StocNode(3);
  ASSERT_GT(PiecesOnStoc(engine, victim), 0);

  // One writer, so the oracle's order is the store's order. Bounded in
  // count and rate: the removal's quiescence barrier waits out its
  // flushes.
  std::atomic<bool> stop{false};
  std::atomic<int> written{0};
  std::thread writer([&] {
    Random rng(29);
    for (int i = 0; i < 4000 && !stop.load(); i++) {
      std::string key = bench::MakeKey(rng.Uniform(500));
      std::string value = "w" + std::to_string(i);
      ASSERT_TRUE(cluster.Put(key, value).ok());
      oracle[key] = value;
      written.store(i + 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  while (written.load() < 300) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Status s = cluster.RemoveStocGraceful(3);
  stop.store(true);
  writer.join();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(PiecesOnStoc(engine, victim), 0);

  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  EXPECT_EQ(PiecesOnStoc(engine, victim), 0);
  // Every live file's metadata block reads back from its new placement
  // (a fresh cache, so no reader opened before the move is reused).
  lsm::TableCache cache(cluster.ltc(0)->stoc_client());
  lsm::VersionRef v = engine->versions()->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      lsm::TableCache::Handle handle;
      Status rs = cache.GetReader(f, &handle);
      EXPECT_TRUE(rs.ok()) << "file " << f->number << ": " << rs.ToString();
    }
  }
  ExpectMatchesOracle(&cluster, oracle);
  cluster.Stop();
}

TEST(GracefulRemoveTest, FailsWithoutStocFreeOfOtherCopies) {
  // R=2 on 2 StoCs: the only StoC left already holds every piece's other
  // copy. The drain must fail rather than co-locate replicas, and the
  // StoC must stay in service.
  coord::ClusterOptions opt = RepairClusterOptions(2);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  coord::Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1200; i++) {
    std::string key = bench::MakeKey(i % 400);
    std::string value = "c" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  rdma::NodeId victim = coord::Cluster::StocNode(1);
  int pieces = PiecesOnStoc(engine, victim);
  ASSERT_GT(pieces, 0);

  EXPECT_FALSE(cluster.RemoveStocGraceful(1).ok());
  EXPECT_EQ(CoLocatedReplicas(engine), 0);
  EXPECT_EQ(PiecesOnStoc(engine, victim), pieces);
  EXPECT_EQ(cluster.AliveStocNodes().size(), 2u);
  EXPECT_TRUE(cluster.ltc(0)->stoc_client()->IsRoutable(victim));
  ExpectMatchesOracle(&cluster, oracle);
  cluster.Stop();
}

TEST(GracefulRemoveTest, MovesManifestReplica) {
  // The StoC holding range 0's only MANIFEST replica leaves like any
  // other: the removal moves the replica, later flushes commit on its new
  // StoC, and an LTC crash after the removal loses no key.
  coord::ClusterOptions opt = RepairClusterOptions(3);
  opt.num_ltcs = 2;
  opt.split_points = bench::EvenSplitPoints(800, 2);  // range 0 on LTC 0
  coord::Cluster cluster(opt);
  cluster.Start();
  std::map<std::string, std::string> oracle;
  for (int i = 0; i < 1200; i++) {
    std::string key = bench::MakeKey(i % 400);
    std::string value = "m" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->GetRange(0);
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  std::vector<rdma::NodeId> manifest = engine->manifest_stocs();
  ASSERT_EQ(manifest.size(), 1u);
  rdma::NodeId manifest_stoc = manifest[0];

  Status s = cluster.RemoveStocGraceful(manifest_stoc -
                                        coord::Cluster::StocNode(0));
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(cluster.AliveStocNodes().size(), 2u);
  manifest = engine->manifest_stocs();
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_NE(manifest[0], manifest_stoc);
  EXPECT_EQ(PiecesOnStoc(engine, manifest_stoc), 0);

  // Later puts still flush: the MANIFEST stays writable.
  uint64_t flushes = engine->stats().flushes;
  for (int i = 0; i < 1200; i++) {
    std::string key = bench::MakeKey(i % 400);
    std::string value = "n" + std::to_string(i);
    ASSERT_TRUE(cluster.Put(key, value).ok());
    oracle[key] = value;
  }
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  EXPECT_GT(engine->stats().flushes, flushes);

  cluster.KillLtc(0);
  s = cluster.RecoverLtcRanges(0, 1, 2);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectMatchesOracle(&cluster, oracle);
  cluster.Stop();
}

TEST(GracefulRemoveTest, RangeKeepsWritingAfterItsStocIsReplaced) {
  // The range's only StoC is replaced before any put: new log files and
  // offloaded compactions follow the placement list to the new StoC.
  coord::ClusterOptions opt = RepairClusterOptions(1);
  opt.range.unique_key_threshold = 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 32 << 10;
  opt.range.lsm.base_level_bytes = 128 << 10;
  opt.range.log.num_replicas = 1;
  opt.range.log.region_size = 64 << 10;
  opt.range.offload_compaction = true;
  coord::Cluster cluster(opt);
  cluster.Start();
  ASSERT_EQ(cluster.AddStoc(), 1);
  Status s = cluster.RemoveStocGraceful(0);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Random digits as values: the flushed tables fill L0 and compact.
  std::map<std::string, std::string> oracle;
  Random rng(37);
  for (int i = 0; i < 4000; i++) {
    std::string key = bench::MakeKey(i % 500);
    std::string value = std::to_string(rng.Next64());
    s = cluster.Put(key, value);
    ASSERT_TRUE(s.ok()) << "put " << i << ": " << s.ToString();
    oracle[key] = value;
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);
  ltc::RangeStats stats = engine->stats();
  EXPECT_GT(stats.compaction_offloads, 0u)
      << "of " << stats.compactions << " compactions";
  ExpectMatchesOracle(&cluster, oracle);
  cluster.Stop();
}

TEST(GracefulRemoveTest, AckedWritesSurviveRemoval) {
  // The StoCs holding a range's log replicas leave gracefully, then the
  // range moves to another LTC and rebuilds its memtables from the log:
  // the removals flushed or re-logged every memtable onto the StoCs that
  // stay, so no acknowledged put is lost. 1 MB memtables and a warm-up no
  // run reaches keep every put in a memtable until the first removal.
  auto run = [](int stocs, int log_replicas, const std::vector<int>& removed,
                const std::function<Status(coord::Cluster*)>& move_range) {
    coord::ClusterOptions opt = RepairClusterOptions(stocs);
    opt.num_ltcs = 2;
    opt.range.memtable_size = 1 << 20;
    opt.range.drange.warmup_writes = 1 << 30;
    opt.range.log.num_replicas = log_replicas;
    opt.range.log.region_size = 64 << 10;
    coord::Cluster cluster(opt);
    cluster.Start();
    std::map<std::string, std::string> oracle;
    for (int i = 0; i < 300; i++) {
      std::string key = bench::MakeKey(i);
      std::string value = "a" + std::to_string(i);
      ASSERT_TRUE(cluster.Put(key, value).ok());
      oracle[key] = value;
    }
    for (int index : removed) {
      Status s = cluster.RemoveStocGraceful(index);
      ASSERT_TRUE(s.ok()) << "StoC " << index << ": " << s.ToString();
    }
    Status s = move_range(&cluster);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExpectMatchesOracle(&cluster, oracle);
    cluster.Stop();
  };
  {
    SCOPED_TRACE("3 log replicas, StoCs 0-2 of 5 removed, then an LTC crash");
    run(5, 3, {0, 1, 2}, [](coord::Cluster* cluster) {
      cluster->KillLtc(0);
      return cluster->RecoverLtcRanges(0, 1, 2);
    });
  }
  {
    SCOPED_TRACE("1 log replica, StoC 0 of 2 removed, then a migration");
    run(2, 1, {0}, [](coord::Cluster* cluster) {
      return cluster->MigrateRange(0, 1, 2);
    });
  }
}

}  // namespace
}  // namespace nova
