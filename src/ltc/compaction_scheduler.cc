#include "ltc/compaction_scheduler.h"

#include <algorithm>

#include "util/logging.h"

namespace nova {
namespace ltc {

CompactionScheduler::CompactionScheduler(stoc::StocClient* client,
                                         std::vector<rdma::NodeId> stocs,
                                         bool offload)
    : client_(client), offload_(offload), stocs_(std::move(stocs)) {}

bool CompactionScheduler::Acquire(rdma::NodeId* target) {
  if (!offload_) {
    return false;
  }
  std::lock_guard<std::mutex> lk(mu_);
  bool found = false;
  int best_load = kMaxJobsPerStoc;
  for (rdma::NodeId stoc : stocs_) {
    // Membership exclusion: never offload to a suspect/dead StoC — the
    // job would burn its whole RPC deadline before falling back locally.
    if (!client_->IsRoutable(stoc)) {
      continue;
    }
    int load = 0;
    auto it = inflight_.find(stoc);
    if (it != inflight_.end()) {
      load = it->second;
    }
    if (load < best_load) {
      best_load = load;
      *target = stoc;
      found = true;
    }
  }
  if (found) {
    inflight_[*target]++;
  }
  return found;
}

void CompactionScheduler::Release(rdma::NodeId target) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = inflight_.find(target);
  if (it != inflight_.end() && --it->second <= 0) {
    inflight_.erase(it);
  }
}

Status CompactionScheduler::Run(const lsm::CompactionJob& job,
                                lsm::CompactionExecutor* local,
                                lsm::CompactionResult* result) {
  rdma::NodeId target;
  if (Acquire(&target)) {
    std::string resp;
    Status s = client_->Compaction(target, job.Serialize(), &resp);
    if (s.ok() && resp.empty()) {
      // The StoC accepted the RPC but its handler failed (missing
      // deserialized inputs, no compaction support, ...).
      s = Status::IOError("StoC returned no compaction result");
    }
    if (s.ok()) {
      s = result->Deserialize(resp);
    }
    Release(target);
    std::lock_guard<std::mutex> lk(mu_);
    if (s.ok()) {
      stats_.offloads++;
      return s;
    }
    stats_.offload_failures++;
    stats_.local_fallbacks++;
    NOVA_WARN("compaction offload to stoc %d failed (%s); retrying locally",
              static_cast<int>(target), s.ToString().c_str());
    *result = lsm::CompactionResult();
  }
  return local->Run(job, result);
}

CompactionScheduler::Stats CompactionScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ltc
}  // namespace nova
