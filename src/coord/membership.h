// Per-StoC health membership (ISSUE 9 tentpole, layer 1): a state machine
//
//     alive --(failure_threshold consecutive RPC failures,
//              or an expired lease)--> suspect
//     suspect --(dead_after_ms with no successful contact)--> dead
//     suspect --(one successful contact)--> alive
//     dead --(lease re-granted, i.e. the process came back)--> probing
//     probing --(rejoin_probes consecutive successes)--> alive
//
// driven from two directions: the Coordinator's lease bookkeeping
// (authoritative verdicts: expiry, re-grant) and passive observations
// from `StocClient` (per-call ReportSuccess/ReportFailure — the circuit
// breaker's sensor). Suspect and dead nodes are not routable; a trickle
// of half-open probes (AllowProbe) is allowed through so recovery is
// detected without a thundering herd.
//
// The suspect->dead promotion is evaluated lazily on read (health(),
// IsRoutable(), DeadStocs()) so no dedicated timer thread is needed:
// any reader — the repair scan, a routing decision — observes the
// promotion at the same wall-clock boundary.
#ifndef NOVA_COORD_MEMBERSHIP_H_
#define NOVA_COORD_MEMBERSHIP_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "rdma/fabric.h"

namespace nova {
namespace coord {

enum class NodeHealth { kAlive, kSuspect, kDead, kProbing };

const char* NodeHealthName(NodeHealth h);

struct MembershipOptions {
  /// Consecutive RPC failures before alive -> suspect.
  int failure_threshold = 3;
  /// Time in suspect with no successful contact before the death verdict.
  int dead_after_ms = 2000;
  /// Consecutive probe successes before probing -> alive.
  int rejoin_probes = 2;
  /// Minimum spacing between half-open probes to a suspect/probing node.
  int probe_interval_ms = 100;
};

class Membership {
 public:
  explicit Membership(MembershipOptions options = MembershipOptions())
      : options_(options) {}

  Membership(const Membership&) = delete;
  Membership& operator=(const Membership&) = delete;

  /// A node joined (lease granted). A brand-new or alive node is admitted
  /// at kAlive; a node previously declared dead re-enters at kProbing and
  /// must earn its way back via AllowProbe + ReportSuccess.
  void NodeJoined(rdma::NodeId node);

  /// Authoritative bad news from the coordinator (lease expired / force
  /// expire): alive -> suspect immediately, starting the death clock.
  void MarkSuspect(rdma::NodeId node);
  /// Force the death verdict (tests, operator action).
  void MarkDead(rdma::NodeId node);

  /// Passive per-RPC observations from clients.
  void ReportSuccess(rdma::NodeId node);
  void ReportFailure(rdma::NodeId node);

  NodeHealth health(rdma::NodeId node) const;

  /// Circuit breaker: route normal traffic only to alive nodes. Unknown
  /// nodes are routable (membership is opt-in per node).
  bool IsRoutable(rdma::NodeId node) const;

  /// Half-open gate: true if a single probe may be sent to a
  /// suspect/probing node now (spaced probe_interval_ms apart). Alive
  /// nodes always pass; dead nodes never do (they must rejoin via
  /// NodeJoined first).
  bool AllowProbe(rdma::NodeId node);

  /// Nodes currently under the death verdict (promotes due suspects).
  std::vector<rdma::NodeId> DeadNodes() const;

  MembershipOptions options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct NodeState {
    NodeHealth health = NodeHealth::kAlive;
    int consecutive_failures = 0;
    int probe_successes = 0;
    Clock::time_point suspect_since{};
    Clock::time_point last_probe{};
  };

  /// Promote suspect -> dead if the death clock ran out. Caller holds mu_.
  void PromoteLocked(NodeState* s) const;

  MembershipOptions options_;
  mutable std::mutex mu_;
  mutable std::map<rdma::NodeId, NodeState> nodes_;
};

}  // namespace coord
}  // namespace nova

#endif  // NOVA_COORD_MEMBERSHIP_H_
