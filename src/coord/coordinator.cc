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
  config_ = std::move(config);
}

void Coordinator::GrantLease(rdma::NodeId node) {
  membership_.NodeJoined(node);
}

void Coordinator::ExpireLease(rdma::NodeId node) {
  membership_.MarkSuspect(node);
}

}  // namespace coord
}  // namespace nova
