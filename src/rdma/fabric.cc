#include "rdma/fabric.h"

#include <cstring>

namespace nova {
namespace rdma {

void RdmaFabric::AddNode(NodeId node) {
  std::unique_lock<std::mutex> l(mu_);
  Node& n = nodes_[node];
  n.alive = true;
  DrainNodePinsLocked(&l, &n);
  n.regions.clear();
  n.inbound.clear();
}

void RdmaFabric::RemoveNode(NodeId node) {
  std::unique_lock<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return;
  }
  it->second.alive = false;
  // Drain in-flight one-sided copies before dropping the registrations:
  // the node's owner will recycle (or free) the backing memory as soon
  // as this returns.
  DrainNodePinsLocked(&l, &it->second);
  it->second.regions.clear();
  it->second.inbound.clear();
  for (auto& [id, peer] : nodes_) {
    if (peer.alive) {
      InboundMessage m;
      m.kind = InboundMessage::Kind::kPeerDown;
      m.src = node;
      peer.inbound.push_back(std::move(m));
      peer.arrival.notify_one();
    }
  }
}

void RdmaFabric::DrainNodePinsLocked(std::unique_lock<std::mutex>* l,
                                     Node* node) {
  pin_cv_.wait(*l, [node] {
    for (const auto& [id, mr] : node->regions) {
      if (mr->pins > 0) {
        return false;
      }
    }
    return true;
  });
}

void RdmaFabric::UnpinRegion(const std::shared_ptr<MemoryRegion>& region) {
  std::lock_guard<std::mutex> l(mu_);
  if (--region->pins == 0) {
    pin_cv_.notify_all();
  }
}

Status RdmaFabric::RegisterMemory(NodeId node, uint32_t mr_id, char* addr,
                                  size_t size) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end() || !it->second.alive) {
    return Status::Unavailable("node not on fabric");
  }
  it->second.regions[mr_id] =
      std::make_shared<MemoryRegion>(MemoryRegion{addr, size, 0});
  return Status::OK();
}

Status RdmaFabric::DeregisterMemory(NodeId node, uint32_t mr_id) {
  std::unique_lock<std::mutex> l(mu_);
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return Status::NotFound("node not on fabric");
  }
  auto mr_it = it->second.regions.find(mr_id);
  if (mr_it == it->second.regions.end()) {
    return Status::OK();
  }
  // Like ibv_dereg_mr: completes only once outstanding one-sided ops on
  // the region have finished — the caller frees or recycles the memory
  // the moment this returns, and a late copy would scribble on it.
  std::shared_ptr<MemoryRegion> region = mr_it->second;
  pin_cv_.wait(l, [&region] { return region->pins == 0; });
  it->second.regions.erase(mr_id);
  return Status::OK();
}

Status RdmaFabric::ResolveLocked(const RemoteAddr& remote, size_t len,
                                 char** out,
                                 std::shared_ptr<MemoryRegion>* pin_out) {
  auto it = nodes_.find(remote.node);
  if (it == nodes_.end() || !it->second.alive) {
    return Status::Unavailable("remote node unavailable");
  }
  auto mr_it = it->second.regions.find(remote.mr_id);
  if (mr_it == it->second.regions.end()) {
    return Status::InvalidArgument("unknown memory region");
  }
  const std::shared_ptr<MemoryRegion>& mr = mr_it->second;
  if (remote.offset + len > mr->size) {
    return Status::InvalidArgument("rdma access out of region bounds");
  }
  *out = mr->addr + remote.offset;
  mr->pins++;
  *pin_out = mr;
  return Status::OK();
}

Status RdmaFabric::Read(NodeId src, const RemoteAddr& remote, char* local,
                        size_t len) {
  char* target;
  std::shared_ptr<MemoryRegion> pin;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto self = nodes_.find(src);
    if (self == nodes_.end() || !self->second.alive) {
      return Status::Unavailable("initiator not on fabric");
    }
    Status s = ResolveLocked(remote, len, &target, &pin);
    if (!s.ok()) {
      return s;
    }
  }
  // Like real RDMA, the copy happens without target-side synchronization;
  // protocols must not read regions being concurrently rewritten. The pin
  // only keeps deregistration (memory recycling) at bay.
  memcpy(local, target, len);
  UnpinRegion(pin);
  stats_.num_reads.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_read.fetch_add(len, std::memory_order_relaxed);
  return Status::OK();
}

Status RdmaFabric::Write(NodeId src, const Slice& data,
                         const RemoteAddr& remote, bool notify, uint32_t imm) {
  char* target;
  std::shared_ptr<MemoryRegion> pin;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto self = nodes_.find(src);
    if (self == nodes_.end() || !self->second.alive) {
      return Status::Unavailable("initiator not on fabric");
    }
    Status s = ResolveLocked(remote, data.size(), &target, &pin);
    if (!s.ok()) {
      return s;
    }
  }
  memcpy(target, data.data(), data.size());
  UnpinRegion(pin);
  stats_.num_writes.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(data.size(), std::memory_order_relaxed);
  if (notify) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = nodes_.find(remote.node);
    if (it == nodes_.end() || !it->second.alive) {
      return Status::Unavailable("remote node unavailable");
    }
    InboundMessage m;
    m.kind = InboundMessage::Kind::kWriteImm;
    m.src = src;
    m.imm = imm;
    it->second.inbound.push_back(std::move(m));
    it->second.arrival.notify_one();
  }
  return Status::OK();
}

Status RdmaFabric::Send(NodeId src, NodeId dst, const Slice& msg,
                        uint32_t imm) {
  std::lock_guard<std::mutex> l(mu_);
  auto self = nodes_.find(src);
  if (self == nodes_.end() || !self->second.alive) {
    return Status::Unavailable("initiator not on fabric");
  }
  auto it = nodes_.find(dst);
  if (it == nodes_.end() || !it->second.alive) {
    return Status::Unavailable("remote node unavailable");
  }
  InboundMessage m;
  m.kind = InboundMessage::Kind::kSend;
  m.src = src;
  m.imm = imm;
  m.payload = msg.ToString();
  it->second.inbound.push_back(std::move(m));
  it->second.arrival.notify_one();
  stats_.num_sends.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(msg.size(), std::memory_order_relaxed);
  return Status::OK();
}

bool RdmaFabric::PollInbound(NodeId node, InboundMessage* msg,
                             std::chrono::microseconds wait) {
  std::unique_lock<std::mutex> l(mu_);
  Node& n = nodes_[node];
  if (!n.arrival.wait_for(l, wait,
                          [&n] { return n.alive && !n.inbound.empty(); })) {
    return false;
  }
  *msg = std::move(n.inbound.front());
  n.inbound.pop_front();
  return true;
}

}  // namespace rdma
}  // namespace nova
