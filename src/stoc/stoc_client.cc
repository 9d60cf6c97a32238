#include "stoc/stoc_client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/failpoint.h"
#include "util/retry.h"

namespace nova {
namespace stoc {
namespace {

uint64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool StocClient::IsRoutable(rdma::NodeId stoc) const {
  coord::Membership* m = membership();
  return m == nullptr || m->IsRoutable(stoc);
}

bool StocClient::AdmitRpc(rdma::NodeId stoc) {
  coord::Membership* m = membership();
  return m == nullptr || m->IsRoutable(stoc) || m->AllowProbe(stoc);
}

void StocClient::ReportRpc(rdma::NodeId stoc, const Status& s) {
  coord::Membership* m = membership();
  if (m == nullptr) {
    return;
  }
  if (s.IsUnavailable()) {
    m->ReportFailure(stoc);
  } else {
    // Any answer — even an application error — proves the node is up.
    m->ReportSuccess(stoc);
  }
}

void StocClient::CountWire(uint64_t sent, uint64_t received) {
  if (sent > 0) {
    bytes_sent_.fetch_add(sent, std::memory_order_relaxed);
  }
  if (received > 0) {
    bytes_received_.fetch_add(received, std::memory_order_relaxed);
  }
}

Status StocClient::SimpleCall(rdma::NodeId stoc, const std::string& req,
                              Slice* body, std::string* storage,
                              int timeout_ms) {
  Status s = util::FailPoint::Check("stoc.call");
  if (s.ok() && !AdmitRpc(stoc)) {
    // Circuit open: fail fast without contacting (or penalizing) the node.
    return Status::Unavailable("stoc circuit open");
  }
  if (s.ok()) {
    s = endpoint_->Call(stoc, req, storage, timeout_ms);
    CountWire(req.size(), s.ok() ? storage->size() : 0);
  }
  ReportRpc(stoc, s);
  if (!s.ok()) {
    return s;
  }
  return ParseResponse(*storage, body);
}

Status StocClient::IdempotentCall(rdma::NodeId stoc, const std::string& req,
                                  Slice* body, std::string* storage,
                                  int timeout_ms) {
  // Three attempts, 200 us then 400 us apart, never past the deadline.
  util::Deadline deadline = util::Deadline::After(timeout_ms);
  Status s;
  for (int attempt = 0; attempt < 3; attempt++) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(std::min<int64_t>(
          200 << (attempt - 1), deadline.remaining_ms() * 1000)));
    }
    if (deadline.expired()) {
      return Status::Unavailable("deadline exceeded before attempt");
    }
    s = SimpleCall(stoc, req, body, storage,
                   static_cast<int>(deadline.remaining_ms()));
    if (!s.IsUnavailable() && !s.IsBusy()) {
      return s;
    }
  }
  return s;
}

PendingRead& PendingRead::operator=(PendingRead&& o) noexcept {
  if (this == &o) {
    return *this;
  }
  Settle(false);
  future_ = std::move(o.future_);
  load_ = std::move(o.load_);
  client_ = o.client_;
  stoc_ = o.stoc_;
  start_us_ = o.start_us_;
  settled_ = o.settled_;
  o.load_ = nullptr;
  o.client_ = nullptr;
  o.settled_ = true;  // the moved-from read owns no load unit
  return *this;
}

void PendingRead::Settle(bool record_latency) {
  if (settled_) {
    return;
  }
  settled_ = true;
  if (load_ != nullptr) {
    load_->outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (record_latency) {
      uint64_t sample = NowUs() - start_us_;
      // EWMA with 1/8 gain, seeded by the first observation.
      uint64_t prev = load_->ewma_us.load(std::memory_order_relaxed);
      uint64_t next = prev == 0 ? sample : (prev * 7 + sample) / 8;
      load_->ewma_us.store(next, std::memory_order_relaxed);
      if (client_ != nullptr) {
        client_->RecordReadLatency(sample);
      }
    }
  }
}

Status PendingRead::Wait(std::string* out, int timeout_ms) {
  std::string storage;
  Status s = future_.Wait(&storage, timeout_ms);
  Settle(s.ok());
  if (client_ != nullptr) {
    client_->ReportRpc(stoc_, s);
    if (s.ok()) {
      client_->CountWire(0, storage.size());
    }
  }
  if (!s.ok()) {
    return s;
  }
  Slice body;
  s = ParseResponse(storage, &body);
  if (!s.ok()) {
    return s;
  }
  out->assign(body.data(), body.size());
  return Status::OK();
}

void PendingRead::Cancel() {
  future_.Cancel();
  Settle(false);
}

PendingAppend& PendingAppend::operator=(PendingAppend&& o) noexcept {
  if (this == &o) {
    return *this;
  }
  Abandon();
  client_ = o.client_;
  stoc_ = o.stoc_;
  data_ = o.data_;
  alloc_ = std::move(o.alloc_);
  flush_ack_ = std::move(o.flush_ack_);
  armed_status_ = std::move(o.armed_status_);
  armed_ = o.armed_;
  settled_ = o.settled_;
  o.client_ = nullptr;  // the moved-from append owns nothing to reap
  return *this;
}

void PendingAppend::Abandon() {
  if (client_ != nullptr && !settled_) {
    flush_ack_.Wait(nullptr, 0);
    settled_ = true;
  }
}

Status PendingAppend::Arm() {
  if (!valid()) {
    return Status::InvalidArgument("invalid pending append");
  }
  if (armed_) {
    return armed_status_;  // already armed (or rejected by the breaker)
  }
  armed_ = true;
  std::string storage;
  armed_status_ = alloc_.Wait(&storage);
  Slice body;
  if (armed_status_.ok()) {
    client_->CountWire(0, storage.size());
    armed_status_ = ParseResponse(storage, &body);
  }
  uint32_t mr_id = 0;
  if (armed_status_.ok() && !GetVarint32(&body, &mr_id)) {
    armed_status_ = Status::IOError("bad alloc-block response");
  }
  if (armed_status_.ok()) {
    // 2. One-sided RDMA WRITE of the block, immediate data = buffer id.
    rdma::RpcEndpoint* ep = client_->endpoint();
    armed_status_ = ep->fabric()->Write(ep->node(), data_,
                                        rdma::RemoteAddr{stoc_, mr_id, 0},
                                        true, mr_id);
    if (armed_status_.ok()) {
      client_->CountWire(data_.size(), 0);
    }
  }
  if (!armed_status_.ok()) {
    flush_ack_.Wait(nullptr, 0);  // reap the never-to-complete token
    settled_ = true;
  }
  client_->ReportRpc(stoc_, armed_status_);
  return armed_status_;
}

bool PendingAppend::ready() const {
  return armed_ && (!armed_status_.ok() || flush_ack_.ready());
}

void PendingAppend::OnReady(std::function<void()> fn) {
  if (armed_ && armed_status_.ok()) {
    flush_ack_.OnReady(std::move(fn));
  } else {
    fn();  // failed before any flush was requested: Wait returns at once
  }
}

Status PendingAppend::Wait(StocBlockHandle* handle, int timeout_ms) {
  if (!valid()) {
    return Status::InvalidArgument("invalid pending append");
  }
  if (!armed_) {
    Status s = Arm();
    if (!s.ok()) {
      return s;
    }
  } else if (!armed_status_.ok()) {
    return armed_status_;
  }
  // 3-4. The StoC flushes and completes our token with the block handle.
  std::string payload;
  Status s = flush_ack_.Wait(&payload, timeout_ms);
  settled_ = true;  // waited (or timed out, which withdrew the slot)
  client_->ReportRpc(stoc_, s);
  if (s.ok()) {
    client_->CountWire(0, payload.size());
  }
  if (!s.ok()) {
    return s;
  }
  Slice handle_slice(payload);
  if (!handle->DecodeFrom(&handle_slice)) {
    return Status::IOError("bad block handle in flush ack");
  }
  return Status::OK();
}

PendingAppend StocClient::AsyncAppendBlock(rdma::NodeId stoc,
                                           uint64_t file_id,
                                           const Slice& data) {
  PendingAppend pending;
  pending.client_ = this;
  pending.stoc_ = stoc;
  pending.data_ = data;
  Status fp = util::FailPoint::Check("stoc.append");
  if (!fp.ok() || !AdmitRpc(stoc)) {
    // Breaker open (or an injected append fault): pre-fail the append
    // before any token or buffer is granted. Injected faults feed the
    // health state machine like a real connection error would.
    if (!fp.ok()) {
      ReportRpc(stoc, fp);
    }
    pending.armed_ = true;
    pending.armed_status_ =
        fp.ok() ? Status::Unavailable("stoc circuit open") : fp;
    pending.settled_ = true;  // no token allocated, nothing to reap
    return pending;
  }
  // 1. Ask the StoC for a buffer, registering our completion token.
  uint64_t token = endpoint_->AllocToken(stoc, &pending.flush_ack_);
  std::string req;
  req.push_back(kOpAllocBlock);
  PutVarint64(&req, file_id);
  PutVarint64(&req, data.size());
  PutVarint64(&req, token);
  pending.alloc_ = endpoint_->AsyncCall(stoc, req);
  CountWire(req.size(), 0);
  return pending;
}

Status StocClient::AppendBlock(rdma::NodeId stoc, uint64_t file_id,
                               const Slice& data, StocBlockHandle* handle) {
  return AsyncAppendBlock(stoc, file_id, data).Wait(handle);
}

bool StocClient::TryReserveWrites(const std::vector<rdma::NodeId>& stocs,
                                  int limit) {
  std::vector<rdma::NodeId> distinct = stocs;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  std::lock_guard<std::mutex> l(writes_mu_);
  for (rdma::NodeId stoc : distinct) {
    if (writes_in_flight_[stoc] >= limit) {
      return false;
    }
  }
  for (rdma::NodeId stoc : distinct) {
    peak_writes_in_flight_ =
        std::max(peak_writes_in_flight_, ++writes_in_flight_[stoc]);
  }
  write_slot_changes_++;
  return true;
}

void StocClient::ReleaseWrite(rdma::NodeId stoc) {
  {
    std::lock_guard<std::mutex> l(writes_mu_);
    writes_in_flight_[stoc]--;
    write_slot_changes_++;
  }
  writes_cv_.notify_all();
}

int StocClient::writes_in_flight(rdma::NodeId stoc) {
  std::lock_guard<std::mutex> l(writes_mu_);
  auto it = writes_in_flight_.find(stoc);
  return it == writes_in_flight_.end() ? 0 : it->second;
}

int StocClient::peak_writes_in_flight() {
  std::lock_guard<std::mutex> l(writes_mu_);
  return peak_writes_in_flight_;
}

uint64_t StocClient::write_slot_changes() {
  std::lock_guard<std::mutex> l(writes_mu_);
  return write_slot_changes_;
}

void StocClient::WaitForWriteSlotChange(uint64_t seen, int timeout_ms) {
  std::unique_lock<std::mutex> l(writes_mu_);
  writes_cv_.wait_for(l, std::chrono::milliseconds(timeout_ms),
                      [&] { return write_slot_changes_ != seen; });
}

std::shared_ptr<StocLoad> StocClient::load(rdma::NodeId stoc) {
  std::lock_guard<std::mutex> l(load_mu_);
  std::shared_ptr<StocLoad>& slot = load_[stoc];
  if (slot == nullptr) {
    slot = std::make_shared<StocLoad>();
  }
  return slot;
}

void StocClient::RecordReadLatency(uint64_t us) { read_latency_us_.Add(us); }

uint64_t StocClient::HedgeDelayUs() {
  ReadPolicy policy = read_policy();
  if (read_latency_us_.count() <
      static_cast<uint64_t>(policy.hedge_min_samples)) {
    return policy.hedge_min_delay_us;
  }
  return std::max(policy.hedge_min_delay_us,
                  static_cast<uint64_t>(read_latency_us_.Percentile(99)));
}

std::vector<size_t> StocClient::RankReplicas(
    const std::vector<GatherRead::Target>& replicas) {
  struct Ranked {
    size_t index;
    bool routable;
    int outstanding;
    uint64_t ewma;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(replicas.size());
  for (size_t i = 0; i < replicas.size(); i++) {
    std::shared_ptr<StocLoad> l = load(replicas[i].stoc);
    ranked.push_back(
        Ranked{i, IsRoutable(replicas[i].stoc),
               l->outstanding.load(std::memory_order_relaxed) +
                   l->rank_bias.load(std::memory_order_relaxed),
               l->ewma_us.load(std::memory_order_relaxed)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    // Suspect/dead replicas sort last: they receive traffic only when
    // every healthy replica has been exhausted (and even then only the
    // half-open probe trickle is admitted).
    if (a.routable != b.routable) {
      return a.routable;
    }
    if (a.outstanding != b.outstanding) {
      return a.outstanding < b.outstanding;
    }
    if (a.ewma != b.ewma) {
      return a.ewma < b.ewma;
    }
    return a.index < b.index;
  });
  std::vector<size_t> order;
  order.reserve(ranked.size());
  for (const Ranked& r : ranked) {
    order.push_back(r.index);
  }
  return order;
}

PendingRead StocClient::AsyncReadBlock(rdma::NodeId stoc, uint64_t file_id,
                                       uint64_t offset, uint64_t size) {
  Status fp = util::FailPoint::Check("stoc.read");
  if (!fp.ok()) {
    // Injected read fault: pre-failed, feeds the health state machine.
    PendingRead pending;
    pending.client_ = this;
    pending.stoc_ = stoc;
    pending.settled_ = true;  // owns no load unit
    pending.future_ = rdma::Future::Failed(std::move(fp));
    return pending;
  }
  if (!AdmitRpc(stoc)) {
    // Breaker open: fail fast without contacting (or penalizing) the
    // node. client_ stays null so Wait does not report a failure the
    // node never caused.
    PendingRead pending;
    pending.stoc_ = stoc;
    pending.settled_ = true;
    pending.future_ =
        rdma::Future::Failed(Status::Unavailable("stoc circuit open"));
    return pending;
  }
  read_block_calls_.fetch_add(1, std::memory_order_relaxed);
  std::string req;
  req.push_back(kOpReadBlock);
  PutVarint64(&req, file_id);
  PutVarint64(&req, offset);
  PutVarint64(&req, size);
  PendingRead pending;
  pending.client_ = this;
  pending.load_ = load(stoc);
  pending.load_->outstanding.fetch_add(1, std::memory_order_relaxed);
  pending.load_->issued.fetch_add(1, std::memory_order_relaxed);
  pending.start_us_ = NowUs();
  pending.future_ = endpoint_->AsyncCall(stoc, req);
  CountWire(req.size(), 0);
  return pending;
}

Status StocClient::ReadBlock(rdma::NodeId stoc, uint64_t file_id,
                             uint64_t offset, uint64_t size,
                             std::string* out) {
  return AsyncReadBlock(stoc, file_id, offset, size).Wait(out);
}

Status StocClient::ReadReplicated(
    const std::vector<GatherRead::Target>& replicas, uint64_t offset,
    uint64_t size, std::string* out, int timeout_ms) {
  std::vector<GatherRead> reads(1);
  reads[0].replicas = replicas;
  reads[0].offset = offset;
  reads[0].size = size;
  Status s = GatherReads(&reads, timeout_ms);
  if (s.ok()) {
    *out = std::move(reads[0].data);
  }
  return s;
}

Status StocClient::GatherReads(std::vector<GatherRead>* reads,
                               int timeout_ms) {
  ReadPolicy policy = read_policy();
  struct Attempt {
    PendingRead pending;
    bool done = false;
    bool is_hedge = false;
  };
  struct Entry {
    std::vector<size_t> order;  // candidate indices, least-loaded first
    std::vector<Attempt> attempts;
    size_t next_candidate = 0;
    uint64_t issued_at_us = 0;
    bool hedged = false;
    bool finished = false;
    Status last_error;
  };
  // Counts completions of this gather's attempts: the gather sleeps until
  // one lands, a hedge falls due or the deadline passes. Shared with the
  // completion callbacks, which can outlive the gather when a cancel
  // loses its race to the response.
  struct Wake {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t completions = 0;
  };
  auto wake = std::make_shared<Wake>();
  auto start_attempt = [&](Entry& e, const GatherRead& r, bool is_hedge) {
    const GatherRead::Target& t = r.replicas[e.order[e.next_candidate++]];
    Attempt a{AsyncReadBlock(t.stoc, t.file_id, r.offset, r.size)};
    a.is_hedge = is_hedge;
    a.pending.future_.OnReady([wake] {
      {
        std::lock_guard<std::mutex> l(wake->mu);
        wake->completions++;
      }
      wake->cv.notify_one();
    });
    e.attempts.push_back(std::move(a));
  };
  std::vector<Entry> entries(reads->size());
  size_t unfinished = 0;
  for (size_t i = 0; i < reads->size(); i++) {
    GatherRead& r = (*reads)[i];
    Entry& e = entries[i];
    if (r.replicas.empty()) {
      r.status = Status::Unavailable("no replicas");
      e.finished = true;
      continue;
    }
    // Power-of-d selection: rank the candidates by tracked load and fan
    // the read out to the d least-loaded; the first success wins. The
    // breaker caps the fan-out at the routable replicas (they rank
    // first) so suspect/dead StoCs see no speculative traffic — only
    // failover/hedge attempts, which AdmitRpc gates down to the
    // half-open probe trickle.
    e.order = RankReplicas(r.replicas);
    size_t routable = 0;
    for (const GatherRead::Target& t : r.replicas) {
      if (IsRoutable(t.stoc)) {
        routable++;
      }
    }
    size_t d = std::max<size_t>(
        1, std::min<size_t>(policy.replica_d, e.order.size()));
    if (routable > 0) {
      d = std::min(d, routable);
    }
    e.issued_at_us = NowUs();
    for (size_t a = 0; a < d; a++) {
      start_attempt(e, r, /*is_hedge=*/false);
    }
    if (d > 1) {
      pod_reads_.fetch_add(1, std::memory_order_relaxed);
    }
    unfinished++;
  }

  uint64_t hedge_delay_us = policy.hedge ? HedgeDelayUs() : 0;
  uint64_t deadline_us =
      NowUs() + static_cast<uint64_t>(timeout_ms) * 1000;
  while (unfinished > 0) {
    const uint64_t seen = [&] {
      std::lock_guard<std::mutex> l(wake->mu);
      return wake->completions;
    }();
    bool progress = false;
    uint64_t now_us = NowUs();
    uint64_t wake_at_us = deadline_us;
    for (size_t i = 0; i < reads->size(); i++) {
      GatherRead& r = (*reads)[i];
      Entry& e = entries[i];
      if (e.finished) {
        continue;
      }
      size_t live = 0;
      for (Attempt& a : e.attempts) {
        if (a.done) {
          continue;
        }
        if (!a.pending.ready()) {
          live++;
          continue;
        }
        Status s = a.pending.Wait(&r.data, /*timeout_ms=*/0);
        a.done = true;
        progress = true;
        if (s.ok()) {
          r.status = Status::OK();
          e.finished = true;
          unfinished--;
          if (a.is_hedge) {
            hedged_won_.fetch_add(1, std::memory_order_relaxed);
          }
          // First success wins: withdraw the losing attempts so their
          // late responses are dropped (duplicate completions that
          // already landed are simply discarded).
          for (Attempt& other : e.attempts) {
            if (!other.done) {
              other.pending.Cancel();
              other.done = true;
            }
          }
          break;
        }
        e.last_error = s;
      }
      if (e.finished) {
        continue;
      }
      if (live == 0) {
        // Every issued attempt failed: fail over to the next candidate,
        // or surface the last error once they are exhausted.
        if (e.next_candidate < e.order.size()) {
          start_attempt(e, r, /*is_hedge=*/false);
          progress = true;
        } else {
          r.status = e.last_error.ok()
                         ? Status::Unavailable("all replicas failed")
                         : e.last_error;
          e.finished = true;
          unfinished--;
        }
        continue;
      }
      // Straggler mitigation: one speculative attempt to the next
      // candidate once the entry is outstanding past the hedge delay.
      if (policy.hedge && !e.hedged && e.next_candidate < e.order.size()) {
        uint64_t due_us = e.issued_at_us + hedge_delay_us;
        if (now_us >= due_us) {
          start_attempt(e, r, /*is_hedge=*/true);
          e.hedged = true;
          hedged_issued_.fetch_add(1, std::memory_order_relaxed);
          progress = true;
        } else {
          wake_at_us = std::min(wake_at_us, due_us);
        }
      }
    }
    if (unfinished == 0) {
      break;
    }
    if (NowUs() >= deadline_us) {
      for (size_t i = 0; i < reads->size(); i++) {
        Entry& e = entries[i];
        if (e.finished) {
          continue;
        }
        for (Attempt& a : e.attempts) {
          if (!a.done) {
            a.pending.Cancel();
            a.done = true;
          }
        }
        (*reads)[i].status = Status::Unavailable("rpc deadline exceeded");
        e.finished = true;
        unfinished--;
      }
      break;
    }
    if (!progress) {
      std::unique_lock<std::mutex> l(wake->mu);
      wake->cv.wait_until(
          l,
          std::chrono::steady_clock::time_point(
              std::chrono::microseconds(wake_at_us)),
          [&] { return wake->completions != seen; });
    }
  }
  for (const GatherRead& r : *reads) {
    if (!r.status.ok()) {
      return r.status;
    }
  }
  return Status::OK();
}

Status StocClient::DeleteFile(rdma::NodeId stoc, uint64_t file_id,
                              bool in_memory) {
  std::string req;
  req.push_back(kOpDeleteFile);
  PutVarint64(&req, file_id);
  PutVarint32(&req, in_memory ? 1 : 0);
  std::string storage;
  Slice body;
  return SimpleCall(stoc, req, &body, &storage);
}

Status StocClient::OpenInMemFile(rdma::NodeId stoc, uint64_t file_id,
                                 uint64_t region_size,
                                 InMemFileHandle* handle) {
  std::string req;
  req.push_back(kOpOpenInMemFile);
  PutVarint64(&req, file_id);
  PutVarint64(&req, region_size);
  std::string storage;
  Slice body;
  Status s = SimpleCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t mr_id;
  if (!GetVarint32(&body, &mr_id)) {
    return Status::IOError("bad open response");
  }
  handle->stoc_id = stoc;
  handle->file_id = file_id;
  handle->regions = {InMemRegion{mr_id, region_size}};
  return Status::OK();
}

Status StocClient::ExtendInMemFile(InMemFileHandle* handle) {
  std::string req;
  req.push_back(kOpExtendInMemFile);
  PutVarint64(&req, handle->file_id);
  std::string storage;
  Slice body;
  Status s = SimpleCall(handle->stoc_id, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t mr_id;
  if (!GetVarint32(&body, &mr_id)) {
    return Status::IOError("bad extend response");
  }
  handle->regions.push_back(
      InMemRegion{mr_id, handle->regions.front().size});
  return Status::OK();
}

Status StocClient::WriteInMem(const InMemFileHandle& handle,
                              uint64_t global_offset, const Slice& data) {
  uint64_t base = 0;
  for (const InMemRegion& region : handle.regions) {
    if (global_offset < base + region.size) {
      uint64_t local = global_offset - base;
      if (local + data.size() > region.size) {
        return Status::InvalidArgument("write spans region boundary");
      }
      Status ws = endpoint_->fabric()->Write(
          endpoint_->node(), data,
          rdma::RemoteAddr{handle.stoc_id, region.mr_id, local},
          /*notify=*/false, 0);
      if (ws.ok()) {
        CountWire(data.size(), 0);
      }
      return ws;
    }
    base += region.size;
  }
  return Status::InvalidArgument("offset beyond in-memory file");
}

Status StocClient::ReadInMemRegion(const InMemFileHandle& handle,
                                   size_t region_index, std::string* out) {
  if (region_index >= handle.regions.size()) {
    return Status::InvalidArgument("no such region");
  }
  const InMemRegion& region = handle.regions[region_index];
  out->resize(region.size);
  Status rs = endpoint_->fabric()->Read(
      endpoint_->node(), rdma::RemoteAddr{handle.stoc_id, region.mr_id, 0},
      out->data(), region.size);
  if (rs.ok()) {
    CountWire(0, region.size);
  }
  return rs;
}

Status StocClient::NicAppend(const InMemFileHandle& handle,
                             uint64_t global_offset, const Slice& data) {
  std::string req;
  req.push_back(kOpNicAppend);
  PutVarint64(&req, handle.file_id);
  PutVarint64(&req, global_offset);
  req.append(data.data(), data.size());
  std::string storage;
  Slice body;
  return SimpleCall(handle.stoc_id, req, &body, &storage);
}

Status StocClient::GetStats(rdma::NodeId stoc, StocStats* stats,
                            int timeout_ms) {
  std::string req;
  req.push_back(kOpStats);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage, timeout_ms);
  if (!s.ok()) {
    return s;
  }
  if (!GetVarint64(&body, &stats->disk_load_us) ||
      !GetVarint64(&body, &stats->stored_bytes)) {
    return Status::IOError("bad stats response");
  }
  return Status::OK();
}

Status StocClient::QueryLogFiles(rdma::NodeId stoc, uint32_t range_id,
                                 std::vector<InMemFileHandle>* handles) {
  std::string req;
  req.push_back(kOpQueryLogFiles);
  PutVarint32(&req, range_id);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t count;
  if (!GetVarint32(&body, &count)) {
    return Status::IOError("bad log-files response");
  }
  handles->clear();
  for (uint32_t i = 0; i < count; i++) {
    InMemFileHandle h;
    h.stoc_id = stoc;
    uint32_t nregions;
    if (!GetVarint64(&body, &h.file_id) || !GetVarint32(&body, &nregions)) {
      return Status::IOError("bad log-files entry");
    }
    for (uint32_t r = 0; r < nregions; r++) {
      InMemRegion region;
      if (!GetVarint32(&body, &region.mr_id) ||
          !GetVarint64(&body, &region.size)) {
        return Status::IOError("bad log-files region");
      }
      h.regions.push_back(region);
    }
    handles->push_back(std::move(h));
  }
  return Status::OK();
}

Status StocClient::ListFiles(rdma::NodeId stoc,
                             std::vector<uint64_t>* files) {
  std::string req;
  req.push_back(kOpListFiles);
  std::string storage;
  Slice body;
  Status s = IdempotentCall(stoc, req, &body, &storage);
  if (!s.ok()) {
    return s;
  }
  uint32_t count;
  if (!GetVarint32(&body, &count)) {
    return Status::IOError("bad list response");
  }
  files->clear();
  for (uint32_t i = 0; i < count; i++) {
    uint64_t id;
    if (!GetVarint64(&body, &id)) {
      return Status::IOError("bad list entry");
    }
    files->push_back(id);
  }
  return Status::OK();
}

Status StocClient::CopyFileTo(rdma::NodeId stoc, uint64_t file_id,
                              rdma::NodeId dst) {
  std::string req;
  req.push_back(kOpCopyFileTo);
  PutVarint64(&req, file_id);
  PutVarint32(&req, static_cast<uint32_t>(dst));
  std::string storage;
  Slice body;
  return SimpleCall(stoc, req, &body, &storage, 60000);
}

Status StocClient::Compaction(rdma::NodeId stoc, const Slice& job,
                              std::string* result, int timeout_ms) {
  std::string req;
  req.push_back(kOpCompaction);
  req.append(job.data(), job.size());
  std::string storage;
  Slice body;
  Status s = SimpleCall(stoc, req, &body, &storage, timeout_ms);
  if (!s.ok()) {
    return s;
  }
  result->assign(body.data(), body.size());
  return Status::OK();
}

}  // namespace stoc
}  // namespace nova
