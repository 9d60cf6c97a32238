#include "rdma/rpc.h"

#include <chrono>

#include "sim/cost_model.h"
#include "util/coding.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace nova {
namespace rdma {
namespace {

// Wire framing: u8 kind | u64 id | payload.
enum MsgKind : uint8_t {
  kRequest = 0,
  kResponse = 1,
  kTokenComplete = 2,
};

std::string Frame(MsgKind kind, uint64_t id, const Slice& payload) {
  std::string out;
  out.reserve(9 + payload.size());
  out.push_back(static_cast<char>(kind));
  PutFixed64(&out, id);
  out.append(payload.data(), payload.size());
  return out;
}

}  // namespace

void RpcEndpoint::Fulfill(const std::shared_ptr<Future::State>& state,
                          Status status, std::string payload) {
  std::vector<std::function<void()>> on_ready;
  {
    std::lock_guard<std::mutex> l(state->mu);
    if (state->done) {
      return;
    }
    state->done = true;
    state->status = std::move(status);
    state->payload = std::move(payload);
    state->cv.notify_all();
    on_ready.swap(state->on_ready);
  }
  for (auto& fn : on_ready) {
    fn();
  }
}

void Future::OnReady(std::function<void()> fn) {
  if (state_ != nullptr) {
    std::lock_guard<std::mutex> l(state_->mu);
    if (!state_->done) {
      state_->on_ready.push_back(std::move(fn));
      return;
    }
  }
  fn();  // done already (or invalid, which never completes otherwise)
}

bool Future::ready() const {
  if (state_ == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> l(state_->mu);
  return state_->done;
}

Status Future::Wait(std::string* payload, int timeout_ms) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("invalid future");
  }
  std::unique_lock<std::mutex> l(state_->mu);
  if (!state_->cv.wait_for(l, std::chrono::milliseconds(timeout_ms),
                           [this] { return state_->done; })) {
    // Timed out: withdraw the waiter slot so a late response is dropped.
    // Losing the withdrawal race means a completer holds the slot and is
    // about to fulfill the state — wait for it. The timeout is typed
    // Unavailable: a peer that never answered is operationally the same
    // as one the fabric reports dead, and callers (circuit breaker,
    // retry policies) key off that code.
    l.unlock();
    if (state_->endpoint == nullptr ||
        !state_->endpoint->AbandonWaiter(
            state_->id, Status::Unavailable("rpc deadline exceeded"))) {
      // No slot to withdraw (Failed() future raced, or completion in
      // flight): the fulfillment is imminent.
      std::unique_lock<std::mutex> l2(state_->mu);
      state_->cv.wait(l2, [this] { return state_->done; });
    }
    l.lock();
  }
  if (payload != nullptr && state_->status.ok()) {
    // Move, don't copy: responses can be whole fragments. The first Wait
    // that passes a payload pointer consumes it (see header contract).
    *payload = std::move(state_->payload);
    state_->payload.clear();
  }
  return state_->status;
}

bool Future::Cancel() {
  if (state_ == nullptr) {
    return false;
  }
  {
    std::lock_guard<std::mutex> l(state_->mu);
    if (state_->done) {
      return false;  // completion (or timeout/stop) already landed
    }
  }
  if (state_->endpoint == nullptr) {
    return false;  // Failed() future: fulfillment is imminent
  }
  // Losing the withdrawal race to a completer means the result lands
  // anyway — the duplicate-completion case the caller must tolerate.
  return state_->endpoint->AbandonWaiter(state_->id,
                                         Status::IOError("rpc cancelled"));
}

Future Future::Failed(Status s) {
  Future f;
  f.state_ = std::make_shared<State>();
  f.state_->done = true;
  f.state_->status = std::move(s);
  return f;
}

RpcEndpoint::RpcEndpoint(RdmaFabric* fabric, NodeId node, int num_xchg_threads,
                         sim::CpuThrottle* throttle)
    : fabric_(fabric),
      node_(node),
      num_xchg_threads_(num_xchg_threads),
      throttle_(throttle == nullptr ? sim::CpuThrottle::Unlimited()
                                    : throttle) {}

RpcEndpoint::~RpcEndpoint() { Stop(); }

void RpcEndpoint::Start() {
  if (running_.exchange(true)) {
    return;
  }
  stopping_.store(false);
  for (int i = 0; i < num_xchg_threads_; i++) {
    xchg_threads_.emplace_back([this, i] { XchgLoop(i); });
  }
}

void RpcEndpoint::Stop() {
  stopping_.store(true);
  if (!running_.exchange(false)) {
    return;
  }
  // Fail pending waiters BEFORE joining the xchg threads: an xchg thread
  // may be blocked inside a request handler waiting on one of this
  // endpoint's own futures — joined first, Stop would stall for a full
  // RPC timeout. New waiters cannot appear after the sweep: AsyncCall
  // re-checks stopping_ after registering (synchronized via waiters_mu_)
  // and withdraws itself.
  auto fail_pending = [this] {
    std::map<uint64_t, std::shared_ptr<Future::State>> pending;
    {
      std::lock_guard<std::mutex> l(waiters_mu_);
      pending.swap(waiters_);
    }
    for (auto& [id, state] : pending) {
      Fulfill(state, Status::Unavailable("endpoint stopped"), "");
    }
  };
  fail_pending();
  for (auto& t : xchg_threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  xchg_threads_.clear();
  fail_pending();
}

void RpcEndpoint::XchgLoop(int thread_index) {
  (void)thread_index;
  const sim::CostModel& costs = sim::DefaultCostModel();
  // Wait on the node's queue until a message lands (paper Section 3.2's
  // xchg threads poll; here the fabric wakes them, so no message waits
  // for a sleeping poller). The 1 ms bound only lets the thread see Stop.
  int empty_waits = 0;
  while (running_.load(std::memory_order_relaxed)) {
    InboundMessage msg;
    if (fabric_->PollInbound(node_, &msg, std::chrono::milliseconds(1))) {
      throttle_->Charge(costs.xchg_poll_us + costs.rdma_message_us);
      Dispatch(msg);
    } else if (++empty_waits >= 64) {
      // Batch the poll charge so an idle node doesn't hammer the throttle
      // mutex; 64 empty waits ≈ one charged slice.
      throttle_->Charge(costs.xchg_poll_us * empty_waits);
      empty_waits = 0;
    }
  }
}

void RpcEndpoint::Dispatch(const InboundMessage& msg) {
  if (msg.kind == InboundMessage::Kind::kWriteImm) {
    if (write_imm_handler_) {
      write_imm_handler_(msg.src, msg.imm);
    }
    return;
  }
  if (msg.kind == InboundMessage::Kind::kPeerDown) {
    FailWaitersOn(msg.src);
    return;
  }
  const std::string& m = msg.payload;
  if (m.size() < 9) {
    NOVA_WARN("malformed rpc frame from node %d", msg.src);
    return;
  }
  MsgKind kind = static_cast<MsgKind>(m[0]);
  uint64_t id = DecodeFixed64(m.data() + 1);
  Slice payload(m.data() + 9, m.size() - 9);
  switch (kind) {
    case kRequest:
      if (request_handler_) {
        request_handler_(msg.src, id, payload);
      }
      break;
    case kResponse:
    case kTokenComplete:
      CompleteWaiter(id, payload);
      break;
  }
}

Future RpcEndpoint::RegisterWaiter(NodeId peer, uint64_t* id) {
  *id = next_id_.fetch_add(1);
  Future f;
  f.state_ = std::make_shared<Future::State>();
  f.state_->endpoint = this;
  f.state_->id = *id;
  f.state_->peer = peer;
  std::lock_guard<std::mutex> l(waiters_mu_);
  waiters_[*id] = f.state_;
  return f;
}

void RpcEndpoint::CompleteWaiter(uint64_t id, const Slice& payload) {
  std::shared_ptr<Future::State> state;
  {
    std::lock_guard<std::mutex> l(waiters_mu_);
    auto it = waiters_.find(id);
    if (it == waiters_.end()) {
      return;  // late response after timeout; drop
    }
    state = std::move(it->second);
    waiters_.erase(it);
  }
  Fulfill(state, Status::OK(), payload.ToString());
}

bool RpcEndpoint::AbandonWaiter(uint64_t id, Status status) {
  std::shared_ptr<Future::State> state;
  {
    std::lock_guard<std::mutex> l(waiters_mu_);
    auto it = waiters_.find(id);
    if (it == waiters_.end()) {
      return false;
    }
    state = std::move(it->second);
    waiters_.erase(it);
  }
  Fulfill(state, std::move(status), "");
  return true;
}

void RpcEndpoint::FailWaitersOn(NodeId peer) {
  std::vector<std::shared_ptr<Future::State>> lost;
  {
    std::lock_guard<std::mutex> l(waiters_mu_);
    for (auto it = waiters_.begin(); it != waiters_.end();) {
      if (it->second->peer == peer) {
        lost.push_back(std::move(it->second));
        it = waiters_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& state : lost) {
    Fulfill(state, Status::Unavailable("peer left the fabric"), "");
  }
}

size_t RpcEndpoint::num_pending_waiters() {
  std::lock_guard<std::mutex> l(waiters_mu_);
  return waiters_.size();
}

Future RpcEndpoint::AsyncCall(NodeId dst, const Slice& request) {
  if (stopping_.load(std::memory_order_relaxed)) {
    return Future::Failed(Status::Unavailable("endpoint stopped"));
  }
  uint64_t id;
  Future f = RegisterWaiter(dst, &id);
  // Re-check after registering: if Stop() swept the waiter map between
  // the check above and RegisterWaiter, this waiter would wait out its
  // full timeout with nobody left to fulfill it.
  if (stopping_.load(std::memory_order_acquire)) {
    AbandonWaiter(id, Status::Unavailable("endpoint stopped"));
    return Future::Failed(Status::Unavailable("endpoint stopped"));
  }
  throttle_->Charge(sim::DefaultCostModel().rdma_message_us);
  // Failpoint "rpc.send": injected request-direction connection errors
  // (chaos tests drive the circuit breaker through here).
  Status s = util::FailPoint::Check("rpc.send");
  if (s.ok()) {
    s = fabric_->Send(node_, dst, Frame(kRequest, id, request));
  }
  if (!s.ok()) {
    AbandonWaiter(id, s);
    return Future::Failed(s);
  }
  return f;
}

Status RpcEndpoint::Call(NodeId dst, const Slice& request,
                         std::string* response, int timeout_ms) {
  return AsyncCall(dst, request).Wait(response, timeout_ms);
}

Status RpcEndpoint::Reply(NodeId dst, uint64_t req_id, const Slice& response) {
  throttle_->Charge(sim::DefaultCostModel().rdma_message_us);
  // Failpoint "rpc.reply": response-direction drops — the caller sees a
  // deadline expiry, not an error (separate site from "rpc.send" so chaos
  // tests can keep failures fast-failing).
  Status s = util::FailPoint::Check("rpc.reply");
  if (!s.ok()) {
    return s;
  }
  return fabric_->Send(node_, dst, Frame(kResponse, req_id, response));
}

uint64_t RpcEndpoint::AllocToken(NodeId peer, Future* future) {
  uint64_t id;
  *future = RegisterWaiter(peer, &id);
  return id;
}

Status RpcEndpoint::CompleteToken(NodeId dst, uint64_t token,
                                  const Slice& payload) {
  throttle_->Charge(sim::DefaultCostModel().rdma_message_us);
  return fabric_->Send(node_, dst, Frame(kTokenComplete, token, payload));
}

}  // namespace rdma
}  // namespace nova
