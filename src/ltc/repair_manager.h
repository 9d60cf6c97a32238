// RepairManager (ISSUE 9 tentpole, layer 2): automatic re-replication.
//
// A background scan walks every hosted range's current Version looking for
// fragment / metadata / parity replicas placed on StoCs the membership has
// declared dead. Each lost piece is rebuilt from the surviving copies
// (replica read, or a parity XOR gather when every replica of a data
// fragment is gone), written to a healthy StoC under a bounded
// repair-bandwidth budget, and the file's placement metadata is swapped
// atomically through RangeEngine::SwapFileMeta — so post-repair reads take
// the normal (non-parity) path again without any operator action.
//
// The scan is driven by the death verdict only (Membership::DeadNodes):
// suspect nodes may still come back, and re-replicating on every blip
// would waste the bandwidth budget the verdict exists to protect.
#ifndef NOVA_LTC_REPAIR_MANAGER_H_
#define NOVA_LTC_REPAIR_MANAGER_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "ltc/range_engine.h"
#include "stoc/stoc_client.h"

namespace nova {
namespace ltc {

struct RepairOptions {
  bool enabled = true;
  /// Token-bucket cap on repair write bytes per second. 0 = unlimited.
  /// Repair competes with foreground traffic for StoC disk bandwidth;
  /// the budget keeps MTTR bounded without starving client writes.
  uint64_t bandwidth_bytes_per_sec = 0;
  /// How often the scan thread looks for degraded files.
  int scan_interval_ms = 50;
};

struct RepairStats {
  /// Gauge: lost replicas known at the last scan that are not yet
  /// re-replicated (0 = fully healed).
  uint64_t degraded_fragments = 0;
  uint64_t repaired_fragments = 0;
  uint64_t repaired_bytes = 0;
  /// Measured repair window: cumulative wall time from a death verdict
  /// first exposing degraded pieces until a scan found none remaining
  /// (what bench_table02_mttf reports next to the analytical MTTF).
  uint64_t repair_us = 0;
};

class RepairManager {
 public:
  /// engines() is sampled on every scan so ranges added, migrated, or
  /// detached after construction are picked up; the membership is read
  /// from the client (set by the cluster after the coordinator exists).
  RepairManager(stoc::StocClient* client,
                std::function<std::vector<RangeEngine*>()> engines,
                const RepairOptions& options);
  ~RepairManager();

  RepairManager(const RepairManager&) = delete;
  RepairManager& operator=(const RepairManager&) = delete;

  void Start();
  void Stop();

  /// One synchronous scan-and-repair pass (the thread loop body; exposed
  /// so tests and benchmarks can drive repair deterministically).
  void ScanOnce();

  RepairStats stats() const;

 private:
  struct FileRepairOutcome {
    int degraded = 0;  // lost pieces found in this file
    int repaired = 0;  // pieces re-replicated and swapped in
  };

  void Loop();
  /// Repair every lost piece of one file; returns what it found/fixed.
  FileRepairOutcome RepairFile(RangeEngine* engine,
                               const lsm::FileMetaRef& file,
                               const std::vector<rdma::NodeId>& dead);
  /// Read the full bytes of data fragment `fragment`, from a surviving
  /// replica if any, else by parity reconstruction.
  Status FetchFragment(const lsm::FileMetaData& meta, int fragment,
                       std::string* out);
  /// Pick a healthy target StoC not in `exclude`; -1 if none.
  rdma::NodeId PickTarget(const std::vector<rdma::NodeId>& candidates,
                          const std::vector<rdma::NodeId>& exclude);
  /// Block until the token bucket covers `bytes` (or stopping).
  bool WaitForBudget(uint64_t bytes);
  /// Publish the degraded-pieces gauge. Publishing zero first closes an
  /// open repair window, so a poller that sees the gauge at zero also
  /// sees the window's time in repair_us.
  void PublishDegraded(uint64_t degraded);

  stoc::StocClient* client_;
  std::function<std::vector<RangeEngine*>()> engines_;
  RepairOptions options_;

  std::atomic<bool> running_{false};
  std::thread thread_;

  // Token bucket (only touched by the scan thread / ScanOnce callers).
  double budget_bytes_ = 0;
  std::chrono::steady_clock::time_point budget_refilled_{};

  // Measured repair window: opened when a scan first sees degraded
  // pieces, closed by the first scan that sees none.
  bool window_open_ = false;
  std::chrono::steady_clock::time_point window_start_{};

  std::atomic<uint64_t> degraded_fragments_{0};
  std::atomic<uint64_t> repaired_fragments_{0};
  std::atomic<uint64_t> repaired_bytes_{0};
  std::atomic<uint64_t> repair_us_{0};
  uint64_t rr_seed_ = 0x5eedbeef;
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_REPAIR_MANAGER_H_
