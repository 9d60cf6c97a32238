// CompactionScheduler: decides where each compaction job runs (paper
// Section 4.3 "Offloading compactions to StoCs"). The seed implementation
// offloaded round-robin with no feedback: a StoC already saturated with
// jobs kept receiving more, and a failed offload silently dropped the job
// until the picker rediscovered it. The scheduler instead tracks in-flight
// jobs per StoC, offloads to the least-loaded StoC under a per-StoC bound
// (beyond the bound the LTC compacts locally rather than queue behind a
// busy StoC), and retries any failed offload locally so a job admitted to
// the scheduler always completes exactly once.
#ifndef NOVA_LTC_COMPACTION_SCHEDULER_H_
#define NOVA_LTC_COMPACTION_SCHEDULER_H_

#include <map>
#include <mutex>
#include <vector>

#include "lsm/compaction.h"
#include "stoc/stoc_client.h"

namespace nova {
namespace ltc {

/// The LTC's bounds on work it keeps queued at one StoC.
/// In-flight compaction jobs per StoC before the scheduler stops
/// offloading there.
constexpr int kMaxJobsPerStoc = 2;
/// SSTable flush writes in flight per StoC, over all of the LTC's ranges
/// (StocClient write slots): each disk has its next write queued, and a
/// MANIFEST append queues behind at most this many fragment writes.
constexpr int kMaxFlushWritesPerStoc = 2;

class CompactionScheduler {
 public:
  struct Stats {
    uint64_t offloads = 0;          // jobs completed on a StoC
    uint64_t offload_failures = 0;  // offload RPCs that failed
    uint64_t local_fallbacks = 0;   // failed offloads retried locally
  };

  /// offload = false runs every job on the LTC.
  CompactionScheduler(stoc::StocClient* client,
                      std::vector<rdma::NodeId> stocs, bool offload);

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  /// Run the job to completion: offload to the least-loaded StoC when
  /// enabled and one is under the bound, otherwise execute on `local`.
  /// A failed offload (RPC error, empty response from a StoC whose
  /// handler failed, or an undeserializable result) falls back to
  /// `local` — the job is never dropped.
  Status Run(const lsm::CompactionJob& job, lsm::CompactionExecutor* local,
             lsm::CompactionResult* result);

  Stats stats() const;

 private:
  /// Reserve a slot on the least-loaded StoC; false = run locally.
  bool Acquire(rdma::NodeId* target);
  void Release(rdma::NodeId target);

  stoc::StocClient* client_;
  const bool offload_;
  const std::vector<rdma::NodeId> stocs_;
  mutable std::mutex mu_;
  std::map<rdma::NodeId, int> inflight_;
  Stats stats_;
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_COMPACTION_SCHEDULER_H_
