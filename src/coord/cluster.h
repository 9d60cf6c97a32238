// In-process simulated cluster: η LTCs + β StoCs on one RDMA fabric, each
// node with its own CPU throttle, and each StoC with its own simulated
// disk and durable block store (which survive StoC crashes). This is the
// repo's stand-in for the paper's 10-node CloudLab testbed (DESIGN.md
// Section 2) and the entry point used by integration tests, benchmarks
// and examples.
#ifndef NOVA_COORD_CLUSTER_H_
#define NOVA_COORD_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "coord/coordinator.h"
#include "ltc/ltc_server.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"

namespace nova {
namespace coord {

struct ClusterOptions {
  int num_ltcs = 1;   // η
  int num_stocs = 1;  // β
  /// Interior split points partitioning the keyspace into ranges, assigned
  /// to LTCs round-robin blocks (ω = (splits+1)/η ranges per LTC).
  std::vector<std::string> split_points;

  DeviceConfig device;
  stoc::StocServerOptions stoc;
  ltc::LtcServerOptions ltc;
  /// Failure-detector tuning (suspect threshold, death verdict delay,
  /// rejoin probes). Tests and the MTTF bench shrink dead_after_ms so a
  /// KillStoc turns into a death verdict — and automatic repair — fast.
  MembershipOptions membership;
  /// Template for every range (theta, δ, τ, log mode, ...). range_id,
  /// lower, upper are filled per range.
  ltc::RangeEngineOptions range;
  /// SSTable placement template (ρ, power-of-d, replication, parity).
  lsm::PlacementOptions placement;
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void Start();
  void Stop();

  // --- Data path (used by clients/benchmarks; routed via the config) ---
  // Each call waits out a migration or an LTC recovery: while the key's LTC
  // is down or no longer hosts its range, it retries for up to 2 s.
  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  /// Scans one range per hop, from the range holding the scan's position
  /// to that range's upper bound, and waits out each hop's range as above.
  /// Read committed within and across ranges (Section 8.1): no
  /// point-in-time view.
  Status Scan(const Slice& start_key, int num_records,
              std::vector<std::pair<std::string, std::string>>* out);

  // --- Membership & elasticity (paper Sections 8.2.6, 9) ---
  void KillStoc(int index);
  void RestartStoc(int index);
  /// Crash an LTC: its server stops, memtables are lost.
  void KillLtc(int index);
  /// Recover a crashed LTC's ranges onto dst_ltc (or spread across all
  /// alive LTCs when dst_ltc < 0) from manifests + log records. A range
  /// none of whose MANIFEST replicas answers stays assigned to the crashed
  /// LTC, unserved, and its error is returned; the others recover.
  Status RecoverLtcRanges(int crashed_ltc, int dst_ltc,
                          int recovery_threads);
  /// Live-migrate one range between LTCs (metadata + log replay).
  Status MigrateRange(uint32_t range_id, int dst_ltc, int recovery_threads);
  /// Add a new StoC (elastic scale-out); new SSTables use it immediately.
  int AddStoc();
  /// Gracefully remove a StoC: it leaves every range's placement list, each
  /// range flushes or re-logs every memtable so no log record stays on it,
  /// moves its MANIFEST replica off it (the quiesce counts that as
  /// unfinished work), and every LTC's repair manager drains its SSTable
  /// pieces onto the other StoCs. A failed drain leaves the StoC in
  /// service.
  Status RemoveStocGraceful(int index);
  /// Delete the files on a (re-added) StoC whose range's owner no longer
  /// needs them (RangeEngine::SweepStocFiles): SSTable pieces whose number
  /// is not live and MANIFEST files that are not a replica of the range.
  /// Only ranges the configuration assigns to an alive LTC that hosts them
  /// are swept; every other file, and every log file, stays.
  Status GcStocFiles(int index);

  // --- Accessors ---
  ltc::LtcServer* ltc(int index) { return ltcs_[index].get(); }
  stoc::StocServer* stoc(int index) { return stocs_[index].get(); }
  SimulatedDevice* device(int index) { return devices_[index].get(); }
  BlockStore* block_store(int index) { return stores_[index].get(); }
  rdma::RdmaFabric* fabric() { return &fabric_; }
  Coordinator* coordinator() { return &coordinator_; }
  int num_ltcs() const { return static_cast<int>(ltcs_.size()); }
  int num_stocs() const { return static_cast<int>(stocs_.size()); }
  std::vector<rdma::NodeId> AliveStocNodes();
  const ClusterOptions& options() const { return options_; }

  static rdma::NodeId LtcNode(int index) { return index; }
  static rdma::NodeId StocNode(int index) { return 1000 + index; }

  /// Aggregate stats over all LTCs.
  ltc::RangeStats TotalStats();

 private:
  void WireStoc(int index);
  void RefreshPlacements();
  /// Create range r on LTC `ltc`, placing over the alive StoCs under the
  /// cluster's placement options. The caller bootstraps it.
  ltc::RangeEngine* AddRange(int ltc, const RangeAssignment& r);
  /// Run op(LTC index, config) on the LTC the configuration names for key,
  /// retrying for up to 2 s while that LTC is down or answers
  /// InvalidArgument or Unavailable (the range is moving).
  template <typename Op>
  Status RetryOnRange(const Slice& key, Op op);

  ClusterOptions options_;
  rdma::RdmaFabric fabric_;
  Coordinator coordinator_;

  std::vector<std::unique_ptr<SimulatedDevice>> devices_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
  std::vector<std::unique_ptr<stoc::StocServer>> stocs_;
  std::vector<bool> stoc_alive_;

  std::vector<std::unique_ptr<ltc::LtcServer>> ltcs_;
  std::vector<bool> ltc_alive_;

  bool started_ = false;
};

}  // namespace coord
}  // namespace nova

#endif  // NOVA_COORD_CLUSTER_H_
