// RepairManager: moves SSTable pieces off a StoC (paper Sections 4.4, 9).
//
// One per-file path re-homes every fragment replica, metadata replica and
// parity block a file stores on a given set of StoCs. Each piece's target
// comes from the rule that placed it (lsm::PickPieceStoc over the range's
// routable placement StoCs in random order): a StoC that holds no other
// copy of the same bytes, preferring one that holds no piece of the file
// (parity may share a StoC with a fragment when nothing else is left).
// The file's new placement is swapped in atomically through
// RangeEngine::SwapFileMeta, so reads take the normal (non-parity) path
// again.
//
// Only the source of a piece's bytes varies. A piece whose StoC still
// answers is copied StoC-to-StoC (StocClient::CopyFileTo, Section 9); a
// piece on a StoC that does not is rebuilt from the surviving copies: a
// replica read, or a parity XOR when every replica of a data fragment is
// gone (the read path's StocBlockFetcher).
//
// Two callers share the path:
//  * The background scan repairs pieces on StoCs the membership has
//    declared dead (Membership::DeadNodes; suspects may still come back).
//  * Drain moves every piece off a StoC being removed gracefully.
// Both run under one mutex and take their version snapshot inside it, so
// two re-homings of one file cannot overwrite each other's swap.
#ifndef NOVA_LTC_REPAIR_MANAGER_H_
#define NOVA_LTC_REPAIR_MANAGER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "ltc/range_engine.h"
#include "stoc/stoc_client.h"

namespace nova {
namespace ltc {

struct RepairOptions {
  /// Run the background scan (Drain works either way).
  bool enabled = true;
  /// How often the scan thread looks for degraded files, and how long a
  /// drain waits before retrying files a compaction holds.
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

  /// Re-home every piece the hosted ranges store on `stoc`, retrying files
  /// a compaction holds, until no live file references it. Fails without
  /// co-locating copies when a piece has no StoC free of its other
  /// copies, and fails rather than spin when a retried file stays held.
  /// Drained pieces are not repairs: no repair counter or gauge moves.
  Status Drain(rdma::NodeId stoc);

  RepairStats stats() const;

 private:
  struct FileOutcome {
    int found = 0;  // pieces stored on a StoC being moved off
    int moved = 0;  // pieces re-homed and swapped in
    uint64_t rebuilt_bytes = 0;  // bytes written from rebuilt pieces
    bool no_target = false;  // a piece had no StoC free of its copies
  };

  void Loop();
  /// Re-home every piece of one file stored on a StoC in `from`, then
  /// swap the new placement in (the written copies are deleted if the
  /// swap fails). Requires mu_.
  FileOutcome RepairFile(RangeEngine* engine, const lsm::FileMetaRef& file,
                         const std::vector<rdma::NodeId>& from);
  /// Rebuild one piece's bytes from the surviving copies of `file`.
  Status RebuildPiece(const lsm::FileMetaRef& file, lsm::PieceKind kind,
                      int fragment, std::string* out);
  /// Publish the degraded-pieces gauge. Publishing zero first closes an
  /// open repair window, so a poller that sees the gauge at zero also
  /// sees the window's time in repair_us.
  void PublishDegraded(uint64_t degraded);

  stoc::StocClient* client_;
  std::function<std::vector<RangeEngine*>()> engines_;
  RepairOptions options_;

  std::atomic<bool> running_{false};
  std::thread thread_;

  /// Serializes scans and drain passes; guards the fields below it.
  std::mutex mu_;
  // Measured repair window: opened when a scan first sees degraded
  // pieces, closed by the first scan that sees none.
  bool window_open_ = false;
  std::chrono::steady_clock::time_point window_start_{};

  std::atomic<uint64_t> degraded_fragments_{0};
  std::atomic<uint64_t> repaired_fragments_{0};
  std::atomic<uint64_t> repaired_bytes_{0};
  std::atomic<uint64_t> repair_us_{0};
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_REPAIR_MANAGER_H_
