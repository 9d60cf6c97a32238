#include "coord/coordinator.h"

namespace nova {
namespace coord {

const RangeAssignment* Configuration::RangeForKey(const Slice& key) const {
  for (const auto& r : ranges) {
    bool ge_lower = r.lower.empty() || key.compare(r.lower) >= 0;
    bool lt_upper = r.upper.empty() || key.compare(r.upper) < 0;
    if (ge_lower && lt_upper) {
      return &r;
    }
  }
  return nullptr;
}

int Configuration::LtcForKey(const Slice& key) const {
  const RangeAssignment* r = RangeForKey(key);
  return r == nullptr ? -1 : r->ltc_index;
}

Configuration Coordinator::config() const {
  std::lock_guard<std::mutex> l(mu_);
  return config_;
}

void Coordinator::UpdateConfig(Configuration config) {
  std::lock_guard<std::mutex> l(mu_);
  config.epoch = config_.epoch + 1;
  config_ = std::move(config);
}

uint64_t Coordinator::epoch() const {
  std::lock_guard<std::mutex> l(mu_);
  return config_.epoch;
}

void Coordinator::GrantLease(rdma::NodeId node) {
  {
    std::lock_guard<std::mutex> l(mu_);
    leases_[node] = Clock::now() + std::chrono::milliseconds(lease_ms_);
  }
  membership_.NodeJoined(node);
}

bool Coordinator::Heartbeat(rdma::NodeId node) {
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = leases_.find(node);
    if (it == leases_.end() || it->second < Clock::now()) {
      // Expired: the node must stop serving. Note the missed renewal so
      // the death clock starts even if no client traffic touches it.
      if (it != leases_.end()) leases_.erase(it);
      membership_.MarkSuspect(node);
      return false;
    }
    it->second = Clock::now() + std::chrono::milliseconds(lease_ms_);
  }
  membership_.ReportSuccess(node);
  return true;
}

bool Coordinator::IsLeaseValid(rdma::NodeId node) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = leases_.find(node);
  return it != leases_.end() && it->second >= Clock::now();
}

void Coordinator::ExpireLease(rdma::NodeId node) {
  {
    std::lock_guard<std::mutex> l(mu_);
    leases_.erase(node);
  }
  membership_.MarkSuspect(node);
}

}  // namespace coord
}  // namespace nova
