// An in-process emulation of an RDMA fabric (DESIGN.md Section 2).
//
// Semantics preserved from real RDMA (paper Section 2.2):
//  * Nodes register memory regions; one-sided READ/WRITE move bytes
//    between a local buffer and a registered remote region as an
//    initiator-side memcpy — the target's threads are never involved.
//  * A WRITE or SEND may carry 4 bytes of immediate data, in which case
//    the target is notified via its inbound completion queue (on which
//    its xchg threads wait).
//  * SEND delivers a message payload to the target's inbound queue.
//  * Reliable connected semantics: no drops; operations to a failed node
//    return Status::Unavailable (connection error).
//
// Timing: network transfer times at 56 Gbps are sub-microsecond for the
// block sizes used here and cannot be reproduced with OS sleeps, so the
// fabric does not sleep, and a message wakes a thread waiting on its
// target's queue the moment it lands; the *CPU* costs of issuing verbs
// and polling are charged to per-node CpuThrottles by callers (see
// sim/cost_model.h), which is the effect the paper measures (xchg
// threads pulling requests).
#ifndef NOVA_RDMA_FABRIC_H_
#define NOVA_RDMA_FABRIC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace nova {
namespace rdma {

using NodeId = int32_t;

/// Address of a byte range inside a remote node's registered region.
struct RemoteAddr {
  NodeId node = -1;
  uint32_t mr_id = 0;
  uint64_t offset = 0;
};

/// What an xchg thread receives when it polls its completion queue.
/// kPeerDown reports that node src left the fabric (see RemoveNode).
struct InboundMessage {
  enum class Kind { kSend, kWriteImm, kPeerDown };
  Kind kind = Kind::kSend;
  NodeId src = -1;
  uint32_t imm = 0;
  std::string payload;  // only for kSend
};

struct FabricStats {
  std::atomic<uint64_t> num_sends{0};
  std::atomic<uint64_t> num_reads{0};
  std::atomic<uint64_t> num_writes{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
};

class RdmaFabric {
 public:
  RdmaFabric() = default;

  RdmaFabric(const RdmaFabric&) = delete;
  RdmaFabric& operator=(const RdmaFabric&) = delete;

  /// Bring a node onto the fabric (idempotent; revives a failed node with
  /// empty queues and no registered memory).
  void AddNode(NodeId node);

  /// Take a node off the fabric: pending inbound messages are dropped and
  /// its memory registrations removed — like a machine losing power. Every
  /// other node's queue receives a kPeerDown message from it, behind what
  /// the node delivered before, as a real queue pair to a dead peer
  /// flushes its outstanding work with errors.
  void RemoveNode(NodeId node);

  /// Register [addr, addr+size) of node's memory for remote access.
  Status RegisterMemory(NodeId node, uint32_t mr_id, char* addr, size_t size);
  Status DeregisterMemory(NodeId node, uint32_t mr_id);

  /// One-sided RDMA READ: copy len bytes from remote into local.
  Status Read(NodeId src, const RemoteAddr& remote, char* local, size_t len);

  /// One-sided RDMA WRITE: copy data into remote. If notify, the target's
  /// completion queue receives a WriteImm message with imm.
  Status Write(NodeId src, const Slice& data, const RemoteAddr& remote,
               bool notify, uint32_t imm);

  /// Two-sided RDMA SEND: deliver msg to dst's inbound queue.
  Status Send(NodeId src, NodeId dst, const Slice& msg, uint32_t imm = 0);

  /// Take the next message off node's inbound queue, waiting up to `wait`
  /// for one to arrive (a wait of 0 polls without blocking). False when
  /// the wait ends with nothing queued; a node off the fabric has nothing
  /// queued, so its pollers wait out the whole bound.
  bool PollInbound(NodeId node, InboundMessage* msg,
                   std::chrono::microseconds wait =
                       std::chrono::microseconds(0));

  FabricStats& stats() { return stats_; }

 private:
  struct MemoryRegion {
    char* addr = nullptr;
    size_t size = 0;
    /// One-sided ops currently copying into/out of this region. Like a
    /// real NIC's MR reference, deregistration must wait for these: a
    /// copy landing after the owner recycles the memory would corrupt
    /// whatever now lives there.
    int pins = 0;
  };

  struct Node {
    bool alive = false;
    std::map<uint32_t, std::shared_ptr<MemoryRegion>> regions;
    std::deque<InboundMessage> inbound;
    /// Signalled once per message queued on `inbound`.
    std::condition_variable arrival;
  };

  /// Resolve a remote address to a host pointer, or fail. On success
  /// `*pin_out` holds the region with its pin count already raised; the
  /// caller must UnpinRegion() once its copy is done.
  Status ResolveLocked(const RemoteAddr& remote, size_t len, char** out,
                       std::shared_ptr<MemoryRegion>* pin_out);
  void UnpinRegion(const std::shared_ptr<MemoryRegion>& region);
  /// Wait (with mu_ held via *l) until no region of `node` is pinned.
  void DrainNodePinsLocked(std::unique_lock<std::mutex>* l, Node* node);

  std::mutex mu_;
  std::condition_variable pin_cv_;
  std::map<NodeId, Node> nodes_;
  FabricStats stats_;
};

}  // namespace rdma
}  // namespace nova

#endif  // NOVA_RDMA_FABRIC_H_
