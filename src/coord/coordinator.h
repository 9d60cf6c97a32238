// The coordinator (paper Section 3, Figure 3): maintains the cluster
// configuration — which LTC owns each range, which StoCs exist — versioned
// by an epoch, and grants time-based leases to LTCs and StoCs. Clients
// cache the configuration and re-fetch on epoch change; a node that cannot
// renew its lease must stop serving (tested, not wall-clock enforced in
// the data path).
#ifndef NOVA_COORD_COORDINATOR_H_
#define NOVA_COORD_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "coord/membership.h"
#include "rdma/fabric.h"
#include "util/status.h"

namespace nova {
namespace coord {

struct RangeAssignment {
  uint32_t range_id = 0;
  std::string lower;
  std::string upper;
  int ltc_index = 0;  // index into the cluster's LTC list
};

struct Configuration {
  uint64_t epoch = 0;
  std::vector<RangeAssignment> ranges;
  std::vector<int> alive_stocs;  // indices into the cluster's StoC list

  /// The range holding key, or null.
  const RangeAssignment* RangeForKey(const Slice& key) const;
  /// LTC index owning key, or -1.
  int LtcForKey(const Slice& key) const;
};

class Coordinator {
 public:
  explicit Coordinator(int lease_ms = 1000,
                       MembershipOptions membership_options = {})
      : lease_ms_(lease_ms), membership_(membership_options) {}

  Configuration config() const;
  /// Replace the configuration (bumps the epoch).
  void UpdateConfig(Configuration config);
  uint64_t epoch() const;

  // --- Leases (Section 3: piggybacked on heartbeats) ---
  /// Grants/renews the lease and admits the node into membership (a node
  /// previously declared dead re-enters at kProbing — see membership.h).
  void GrantLease(rdma::NodeId node);
  /// Heartbeat: renews the lease; false if it had already expired (the
  /// node must stop serving and re-join via GrantLease). A successful
  /// heartbeat also counts as a health contact: it clears a suspect
  /// verdict and advances a probing node toward alive.
  bool Heartbeat(rdma::NodeId node);
  bool IsLeaseValid(rdma::NodeId node) const;
  /// Force-expire (simulates losing contact with the node). The node
  /// immediately becomes suspect; the membership death clock starts.
  void ExpireLease(rdma::NodeId node);

  /// Per-node health state machine (ISSUE 9). Shared with StocClients
  /// (circuit breaker) and the RepairManager (death verdicts); the
  /// Coordinator outlives both in every composition (Cluster, tests).
  Membership* membership() { return &membership_; }

 private:
  using Clock = std::chrono::steady_clock;

  int lease_ms_;
  mutable std::mutex mu_;
  Configuration config_;
  std::map<rdma::NodeId, Clock::time_point> leases_;
  Membership membership_;
};

}  // namespace coord
}  // namespace nova

#endif  // NOVA_COORD_COORDINATOR_H_
