#include "coord/membership.h"

namespace nova {
namespace coord {

const char* NodeHealthName(NodeHealth h) {
  switch (h) {
    case NodeHealth::kAlive:
      return "alive";
    case NodeHealth::kSuspect:
      return "suspect";
    case NodeHealth::kDead:
      return "dead";
    case NodeHealth::kProbing:
      return "probing";
  }
  return "unknown";
}

void Membership::NodeJoined(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    nodes_[node] = NodeState();
    return;
  }
  NodeState& s = it->second;
  if (s.health == NodeHealth::kDead) {
    // The process came back: half-open, earn trust via probes.
    s.health = NodeHealth::kProbing;
    s.probe_successes = 0;
    s.consecutive_failures = 0;
    s.last_probe = Clock::time_point();
  } else if (s.health == NodeHealth::kSuspect) {
    s.health = NodeHealth::kAlive;
    s.consecutive_failures = 0;
  }
}

void Membership::MarkSuspect(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  NodeState& s = nodes_[node];
  if (s.health == NodeHealth::kAlive || s.health == NodeHealth::kProbing) {
    s.health = NodeHealth::kSuspect;
    s.suspect_since = Clock::now();
    s.probe_successes = 0;
  }
}

void Membership::MarkDead(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  nodes_[node].health = NodeHealth::kDead;
}

void Membership::ReportSuccess(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  NodeState& s = it->second;
  s.consecutive_failures = 0;
  if (s.health == NodeHealth::kSuspect) {
    s.health = NodeHealth::kAlive;
  } else if (s.health == NodeHealth::kProbing) {
    s.probe_successes++;
    if (s.probe_successes >= options_.rejoin_probes) {
      s.health = NodeHealth::kAlive;
      s.probe_successes = 0;
    }
  }
}

void Membership::ReportFailure(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  NodeState& s = it->second;
  s.consecutive_failures++;
  if (s.health == NodeHealth::kAlive &&
      s.consecutive_failures >= options_.failure_threshold) {
    s.health = NodeHealth::kSuspect;
    s.suspect_since = Clock::now();
  } else if (s.health == NodeHealth::kProbing) {
    // A failed probe resets the trust counter and restarts the death
    // clock from suspect — the node is not actually back.
    s.health = NodeHealth::kSuspect;
    s.suspect_since = Clock::now();
    s.probe_successes = 0;
  }
}

void Membership::PromoteLocked(NodeState* s) const {
  if (s->health == NodeHealth::kSuspect &&
      Clock::now() - s->suspect_since >=
          std::chrono::milliseconds(options_.dead_after_ms)) {
    s->health = NodeHealth::kDead;
  }
}

NodeHealth Membership::health(rdma::NodeId node) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return NodeHealth::kAlive;
  PromoteLocked(&it->second);
  return it->second.health;
}

bool Membership::IsRoutable(rdma::NodeId node) const {
  return health(node) == NodeHealth::kAlive;
}

bool Membership::AllowProbe(rdma::NodeId node) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) return true;
  NodeState& s = it->second;
  PromoteLocked(&s);
  switch (s.health) {
    case NodeHealth::kAlive:
      return true;
    case NodeHealth::kDead:
      return false;
    case NodeHealth::kSuspect:
    case NodeHealth::kProbing: {
      auto now = Clock::now();
      if (now - s.last_probe >=
          std::chrono::milliseconds(options_.probe_interval_ms)) {
        s.last_probe = now;
        return true;
      }
      return false;
    }
  }
  return false;
}

std::vector<rdma::NodeId> Membership::DeadNodes() const {
  std::lock_guard<std::mutex> l(mu_);
  std::vector<rdma::NodeId> dead;
  for (auto& [node, s] : nodes_) {
    PromoteLocked(&s);
    if (s.health == NodeHealth::kDead) dead.push_back(node);
  }
  return dead;
}

}  // namespace coord
}  // namespace nova
