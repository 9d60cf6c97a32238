#include "coord/cluster.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "lsm/compaction.h"
#include "util/logging.h"

namespace nova {
namespace coord {

Cluster::Cluster(const ClusterOptions& options)
    : options_(options), coordinator_(options.membership) {}

Cluster::~Cluster() { Stop(); }

std::vector<rdma::NodeId> Cluster::AliveStocNodes() {
  std::vector<rdma::NodeId> nodes;
  for (size_t i = 0; i < stocs_.size(); i++) {
    if (stoc_alive_[i]) {
      nodes.push_back(StocNode(static_cast<int>(i)));
    }
  }
  return nodes;
}

void Cluster::WireStoc(int index) {
  stocs_[index]->client()->set_membership(coordinator_.membership());
  stocs_[index]->set_compaction_handler(
      [this, index](rdma::NodeId, const Slice& payload) -> std::string {
        lsm::CompactionJob job;
        if (!job.Deserialize(payload).ok()) {
          return "";
        }
        uint32_t range_id = 0;
        if (!job.inputs.empty() && !job.inputs[0]->meta_replicas.empty()) {
          range_id =
              stoc::FileIdRange(job.inputs[0]->meta_replicas[0].file_id);
        }
        stoc::StocClient* client = stocs_[index]->client();
        lsm::TableCache cache(client);
        lsm::PlacementOptions p = options_.placement;
        p.stocs = AliveStocNodes();
        p.range_id = range_id;
        lsm::SSTablePlacer placer(client, p);
        lsm::CompactionExecutor exec(&cache, &placer,
                                     stocs_[index]->throttle());
        lsm::CompactionResult result;
        if (!exec.Run(job, &result).ok()) {
          return "";  // the LTC retries the job later
        }
        return result.Serialize();
      });
}

ltc::RangeEngine* Cluster::AddRange(int ltc, const RangeAssignment& r) {
  ltc::RangeEngineOptions opt = options_.range;
  opt.range_id = r.range_id;
  opt.lower = r.lower;
  opt.upper = r.upper;
  lsm::PlacementOptions p = options_.placement;
  p.stocs = AliveStocNodes();
  return ltcs_[ltc]->AddRange(opt, p);
}

void Cluster::RefreshPlacements() {
  std::vector<rdma::NodeId> nodes = AliveStocNodes();
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (!ltc_alive_[l]) {
      continue;
    }
    for (ltc::RangeEngine* engine : ltcs_[l]->ranges()) {
      engine->placer()->UpdateStocs(nodes);
    }
  }
}

void Cluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;

  for (int i = 0; i < options_.num_stocs; i++) {
    devices_.push_back(std::make_unique<SimulatedDevice>(
        "stoc-" + std::to_string(i), options_.device));
    stores_.push_back(std::make_unique<BlockStore>());
    stocs_.push_back(std::make_unique<stoc::StocServer>(
        &fabric_, StocNode(i), devices_.back().get(), stores_.back().get(),
        options_.stoc));
    stoc_alive_.push_back(true);
    WireStoc(i);
    stocs_[i]->Start();
    coordinator_.GrantLease(StocNode(i));
  }

  for (int i = 0; i < options_.num_ltcs; i++) {
    ltc::LtcServerOptions lopt = options_.ltc;
    lopt.node = LtcNode(i);
    ltcs_.push_back(std::make_unique<ltc::LtcServer>(&fabric_, lopt));
    // Every LTC's StoC client enforces the coordinator's membership
    // verdicts (circuit breaker + placement exclusion + repair trigger).
    ltcs_.back()->stoc_client()->set_membership(coordinator_.membership());
    ltc_alive_.push_back(true);
    ltcs_[i]->Start();
    coordinator_.GrantLease(LtcNode(i));
  }

  // Partition the keyspace into ranges and assign contiguous blocks of
  // ranges to LTCs (the paper's range partitioning, Section 3).
  Configuration config;
  int num_ranges = static_cast<int>(options_.split_points.size()) + 1;
  for (int r = 0; r < num_ranges; r++) {
    RangeAssignment a;
    a.range_id = static_cast<uint32_t>(r);
    a.lower = (r == 0) ? "" : options_.split_points[r - 1];
    a.upper = (r == num_ranges - 1) ? "" : options_.split_points[r];
    a.ltc_index = r * options_.num_ltcs / num_ranges;
    config.ranges.push_back(a);
    AddRange(a.ltc_index, a)->Bootstrap();
  }
  coordinator_.UpdateConfig(std::move(config));
}

void Cluster::Stop() {
  if (!started_) {
    return;
  }
  started_ = false;
  for (size_t i = 0; i < ltcs_.size(); i++) {
    ltcs_[i]->Stop();
  }
  for (size_t i = 0; i < stocs_.size(); i++) {
    stocs_[i]->Stop();
  }
}

template <typename Op>
Status Cluster::RetryOnRange(const Slice& key, Op op) {
  for (int attempt = 0; attempt < 200; attempt++) {
    Configuration cfg = coordinator_.config();
    int idx = cfg.LtcForKey(key);
    if (idx < 0) {
      return Status::InvalidArgument("key outside all ranges");
    }
    if (ltc_alive_[idx]) {
      Status s = op(idx, cfg);
      if (!s.IsInvalidArgument() && !s.IsUnavailable()) {
        return s;
      }
    }
    // The range is migrating or its LTC is down; wait for a new config.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("range unavailable");
}

Status Cluster::Put(const Slice& key, const Slice& value) {
  return RetryOnRange(key, [&](int idx, const Configuration&) {
    return ltcs_[idx]->Put(key, value);
  });
}

Status Cluster::Get(const Slice& key, std::string* value) {
  return RetryOnRange(key, [&](int idx, const Configuration&) {
    return ltcs_[idx]->Get(key, value);
  });
}

Status Cluster::Delete(const Slice& key) {
  return RetryOnRange(key, [&](int idx, const Configuration&) {
    return ltcs_[idx]->Delete(key);
  });
}

Status Cluster::Scan(
    const Slice& start_key, int num_records,
    std::vector<std::pair<std::string, std::string>>* out) {
  std::string pos = start_key.ToString();
  while (static_cast<int>(out->size()) < num_records) {
    const size_t hop_rows = out->size();
    std::string upper;
    Status s = RetryOnRange(pos, [&](int idx, const Configuration& cfg) {
      // A failed attempt may have appended rows before it failed.
      out->resize(hop_rows);
      upper = cfg.RangeForKey(pos)->upper;
      // num_records is the total target on `out` (see RangeEngine::Scan).
      return ltcs_[idx]->Scan(pos, num_records, out);
    });
    if (!s.ok() || upper.empty()) {
      return s;
    }
    pos = std::move(upper);
  }
  return Status::OK();
}

void Cluster::KillStoc(int index) {
  // The crash: the StoC leaves the fabric before its server winds down, so
  // the disk work it had queued acknowledges nothing and every LTC fails
  // its RPCs to it at once.
  stoc_alive_[index] = false;
  fabric_.RemoveNode(StocNode(index));
  coordinator_.ExpireLease(StocNode(index));
  RefreshPlacements();
  stocs_[index]->Stop();
}

void Cluster::RestartStoc(int index) {
  // The device and block store survived the crash; only component state
  // is rebuilt. In-memory StoC files (log replicas) are lost — that is
  // exactly the availability tradeoff Section 5 describes.
  stocs_[index] = std::make_unique<stoc::StocServer>(
      &fabric_, StocNode(index), devices_[index].get(),
      stores_[index].get(), options_.stoc);
  WireStoc(index);
  stocs_[index]->Start();
  stoc_alive_[index] = true;
  // The lease re-grant moves a dead node to probing; drive the half-open
  // probes from here so the StoC earns its way back to alive (and into
  // placement) without waiting for organic read traffic to find it.
  coordinator_.GrantLease(StocNode(index));
  rdma::NodeId node = StocNode(index);
  Membership* membership = coordinator_.membership();
  stoc::StocClient* prober = nullptr;
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (ltc_alive_[l]) {
      prober = ltcs_[l]->stoc_client();
      break;
    }
  }
  if (prober != nullptr) {
    for (int p = 0; p < 10 * membership->options().rejoin_probes &&
                    membership->health(node) != NodeHealth::kAlive;
         p++) {
      stoc::StocStats stats;
      prober->GetStats(node, &stats);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(membership->options().probe_interval_ms) +
          std::chrono::milliseconds(1));
    }
  }
  RefreshPlacements();
}

void Cluster::KillLtc(int index) {
  ltc_alive_[index] = false;
  ltcs_[index]->Stop();
  fabric_.RemoveNode(LtcNode(index));
  coordinator_.ExpireLease(LtcNode(index));
}

Status Cluster::RecoverLtcRanges(int crashed_ltc, int dst_ltc,
                                 int recovery_threads) {
  Configuration cfg = coordinator_.config();
  Status first_error;
  int rr = 0;
  for (auto& r : cfg.ranges) {
    if (r.ltc_index != crashed_ltc) {
      continue;
    }
    int target = dst_ltc;
    if (target < 0) {
      // Scatter across the η-1 surviving LTCs (Section 4.5).
      do {
        target = rr++ % static_cast<int>(ltcs_.size());
      } while (!ltc_alive_[target] || target == crashed_ltc);
    }
    ltc::RangeEngine* engine = AddRange(target, r);
    Status s = engine->RecoverFromManifest(recovery_threads);
    if (!s.ok()) {
      // Unreadable, not empty: the range keeps no LTC until a later call.
      ltcs_[target]->DetachRange(r.range_id);
      if (first_error.ok()) {
        first_error = s;
      }
      continue;
    }
    engine->Bootstrap();
    r.ltc_index = target;
  }
  coordinator_.UpdateConfig(std::move(cfg));
  return first_error;
}

Status Cluster::MigrateRange(uint32_t range_id, int dst_ltc,
                             int recovery_threads) {
  Configuration cfg = coordinator_.config();
  int src = -1;
  RangeAssignment* assignment = nullptr;
  for (auto& r : cfg.ranges) {
    if (r.range_id == range_id) {
      src = r.ltc_index;
      assignment = &r;
      break;
    }
  }
  if (src < 0 || assignment == nullptr) {
    return Status::NotFound("no such range");
  }
  if (src == dst_ltc) {
    return Status::OK();
  }
  // 1. Stop serving writes at the source and drain its background work so
  //    every record is either in the version snapshot or in a surviving
  //    log file at the StoCs.
  ltc::RangeEngine* old = ltcs_[src]->DetachRange(range_id);
  if (old == nullptr) {
    return Status::NotFound("range not at source LTC");
  }
  old->BeginDecommission();
  old->WaitForQuiescence();
  // 2. Ship the metadata (LSM-tree, Dranges, indexes' seeds) — paper
  //    Section 9: ~1% of migrated bytes; log records stay at StoCs. The
  //    source's memtables are discarded; the destination rebuilds them
  //    from the log records.
  std::string state = old->SnapshotRecord();

  // 3. Install at the destination and rebuild memtables from log records
  //    with parallel background threads.
  ltc::RangeEngine* engine = AddRange(dst_ltc, *assignment);
  Status s = engine->InstallFromMigrationState(state, recovery_threads);
  if (!s.ok()) {
    return s;
  }
  engine->Bootstrap();
  // 4. Publish the new configuration.
  assignment->ltc_index = dst_ltc;
  coordinator_.UpdateConfig(std::move(cfg));
  return Status::OK();
}

int Cluster::AddStoc() {
  int index = static_cast<int>(stocs_.size());
  devices_.push_back(std::make_unique<SimulatedDevice>(
      "stoc-" + std::to_string(index), options_.device));
  stores_.push_back(std::make_unique<BlockStore>());
  stocs_.push_back(std::make_unique<stoc::StocServer>(
      &fabric_, StocNode(index), devices_.back().get(),
      stores_.back().get(), options_.stoc));
  stoc_alive_.push_back(true);
  WireStoc(index);
  stocs_[index]->Start();
  coordinator_.GrantLease(StocNode(index));
  // LTCs assign new SSTables to the new StoC immediately (Section 9).
  RefreshPlacements();
  return index;
}

Status Cluster::RemoveStocGraceful(int index) {
  rdma::NodeId node = StocNode(index);
  if (AliveStocNodes().size() <= 1) {
    return Status::InvalidArgument("cannot remove the last StoC");
  }
  // 1. No new placements on the departing StoC: no SSTable piece, MANIFEST
  //    replica, log file or offloaded compaction.
  stoc_alive_[index] = false;
  RefreshPlacements();
  // 2. Every range moves its memtables' log records off the StoC, whose
  //    in-memory log files go when it stops: once the flushes and merges
  //    that read the old list are done, every memtable is flushed, or
  //    merged into one logged to the new list. Once that work has settled
  //    and every range moved its MANIFEST replica off the StoC, every
  //    live LTC's repair manager copies the StoC's pieces to other StoCs
  //    and swaps each file's placement (Section 9: the LTC identifies the
  //    fragments and the source StoC copies them to their destinations).
  for (size_t l = 0; l < ltcs_.size(); l++) {
    if (!ltc_alive_[l]) {
      continue;
    }
    for (ltc::RangeEngine* engine : ltcs_[l]->ranges()) {
      engine->WaitForQuiescence();
      engine->FlushAllMemtables();
      engine->WaitForQuiescence();
    }
    Status s = ltcs_[l]->repair_manager()->Drain(node);
    if (!s.ok()) {
      // The StoC keeps running and takes placements again.
      stoc_alive_[index] = true;
      RefreshPlacements();
      return s;
    }
  }
  // 3. Shut the StoC down.
  stocs_[index]->Stop();
  fabric_.RemoveNode(node);
  coordinator_.ExpireLease(node);
  return Status::OK();
}

Status Cluster::GcStocFiles(int index) {
  // Each range's owning LTC judges the StoC's pieces of that range
  // (Section 9). Only a range the configuration assigns to an alive LTC
  // that hosts it is asked: a crashed, recovering or migrating range keeps
  // every piece until its new owner sweeps.
  Configuration cfg = coordinator_.config();
  std::vector<uint64_t> files;
  bool listed = false;
  for (const auto& r : cfg.ranges) {
    ltc::RangeEngine* engine =
        ltc_alive_[r.ltc_index] ? ltcs_[r.ltc_index]->GetRange(r.range_id)
                                : nullptr;
    if (engine == nullptr) {
      continue;
    }
    if (!listed) {
      Status s = ltcs_[r.ltc_index]->stoc_client()->ListFiles(
          StocNode(index), &files);
      if (!s.ok()) {
        return s;
      }
      listed = true;
    }
    engine->SweepStocFiles(StocNode(index), files);
  }
  return Status::OK();
}

ltc::RangeStats Cluster::TotalStats() {
  ltc::RangeStats total;
  for (size_t i = 0; i < ltcs_.size(); i++) {
    if (!ltc_alive_[i]) {
      continue;
    }
    total += ltcs_[i]->TotalStats();
  }
  return total;
}

}  // namespace coord
}  // namespace nova
