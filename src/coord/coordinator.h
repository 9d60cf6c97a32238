// The coordinator (paper Section 3, Figure 3): maintains the cluster
// configuration (which LTC owns each range), which clients read on every
// request, and the membership of LTCs and StoCs: a node joins when it is
// granted a lease, and its lease is expired when contact with it is lost.
// No lease clock runs; a lease ends only when it is expired.
#ifndef NOVA_COORD_COORDINATOR_H_
#define NOVA_COORD_COORDINATOR_H_

#include <cstdint>
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
  std::vector<RangeAssignment> ranges;

  /// The range holding key, or null.
  const RangeAssignment* RangeForKey(const Slice& key) const;
  /// LTC index owning key, or -1.
  int LtcForKey(const Slice& key) const;
};

class Coordinator {
 public:
  explicit Coordinator(MembershipOptions membership_options = {})
      : membership_(membership_options) {}

  Configuration config() const;
  /// Replace the configuration.
  void UpdateConfig(Configuration config);

  // --- Leases (Section 3) ---
  /// Grants the lease and admits the node into membership (a node
  /// previously declared dead re-enters at kProbing — see membership.h).
  void GrantLease(rdma::NodeId node);
  /// Expire the lease (contact with the node is lost). The node
  /// immediately becomes suspect; the membership death clock starts.
  void ExpireLease(rdma::NodeId node);

  /// Per-node health state machine (ISSUE 9). Shared with StocClients
  /// (circuit breaker) and the RepairManager (death verdicts); the
  /// Coordinator outlives both in every composition (Cluster, tests).
  Membership* membership() { return &membership_; }

 private:
  mutable std::mutex mu_;
  Configuration config_;
  Membership membership_;
};

}  // namespace coord
}  // namespace nova

#endif  // NOVA_COORD_COORDINATOR_H_
