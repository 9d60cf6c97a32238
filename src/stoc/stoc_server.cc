#include "stoc/stoc_server.h"

#include <cstring>

#include "sim/cost_model.h"
#include "util/logging.h"

namespace nova {
namespace stoc {

StocServer::StocServer(rdma::RdmaFabric* fabric, rdma::NodeId node,
                       SimulatedDevice* device, BlockStore* store,
                       const StocServerOptions& options)
    : fabric_(fabric),
      node_(node),
      device_(device),
      store_(store),
      options_(options) {
  throttle_ = std::make_unique<sim::CpuThrottle>(options_.cpu_rate_us_per_sec);
  SlabAllocator::Options slab_opt;
  slab_opt.total_bytes = options_.slab_bytes;
  slab_opt.slab_page_bytes = options_.slab_page_bytes;
  slab_ = std::make_unique<SlabAllocator>(slab_opt);
  endpoint_ = std::make_unique<rdma::RpcEndpoint>(
      fabric_, node_, options_.num_xchg_threads, throttle_.get());
  endpoint_->set_request_handler(
      [this](rdma::NodeId src, uint64_t req_id, const Slice& payload) {
        HandleRequest(src, req_id, payload);
      });
  endpoint_->set_write_imm_handler([this](rdma::NodeId src, uint32_t imm) {
    HandleWriteImm(src, imm);
  });
  client_ = std::make_unique<StocClient>(endpoint_.get());
}

StocServer::~StocServer() { Stop(); }

void StocServer::Start() {
  if (started_.exchange(true)) {
    return;
  }
  fabric_->AddNode(node_);
  storage_pool_ = std::make_unique<ThreadPool>("stoc-storage",
                                               options_.num_storage_threads);
  compaction_pool_ = std::make_unique<ThreadPool>(
      "stoc-compaction", options_.num_compaction_threads);
  endpoint_->Start();
}

void StocServer::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  endpoint_->Stop();
  if (storage_pool_) {
    storage_pool_->Shutdown();
  }
  if (compaction_pool_) {
    compaction_pool_->Shutdown();
  }
}

size_t StocServer::num_in_memory_files() {
  std::lock_guard<std::mutex> l(mu_);
  return in_memory_files_.size();
}

bool StocServer::AllocRegion(uint64_t size, Region* region) {
  char* buf = slab_->Allocate(size);
  if (buf == nullptr) {
    return false;
  }
  memset(buf, 0, size);
  region->mr_id = next_mr_id_.fetch_add(1);
  region->buf = buf;
  region->size = size;
  Status s = fabric_->RegisterMemory(node_, region->mr_id, buf, size);
  if (!s.ok()) {
    slab_->Free(buf, size);
    return false;
  }
  return true;
}

void StocServer::FreeRegion(const Region& region) {
  fabric_->DeregisterMemory(node_, region.mr_id);
  slab_->Free(region.buf, region.size);
}

void StocServer::HandleRequest(rdma::NodeId src, uint64_t req_id,
                               const Slice& payload) {
  if (payload.empty()) {
    endpoint_->Reply(src, req_id,
                     ErrorResponse(Status::InvalidArgument("empty request")));
    return;
  }
  StocOp op = static_cast<StocOp>(payload[0]);
  Slice body(payload.data() + 1, payload.size() - 1);
  switch (op) {
    case kOpOpenInMemFile:
      endpoint_->Reply(src, req_id, DoOpenInMemFile(body));
      break;
    case kOpExtendInMemFile:
      endpoint_->Reply(src, req_id, DoExtendInMemFile(body));
      break;
    case kOpDeleteFile:
      endpoint_->Reply(src, req_id, DoDeleteFile(body));
      break;
    case kOpAllocBlock:
      endpoint_->Reply(src, req_id, DoAllocBlock(src, body));
      break;
    case kOpReadBlock:
      // Disk work: hand off to a storage thread (paper Section 3.2).
      DoReadBlock(src, req_id, body);
      break;
    case kOpStats:
      endpoint_->Reply(src, req_id, DoStats());
      break;
    case kOpQueryLogFiles:
      endpoint_->Reply(src, req_id, DoQueryLogFiles(body));
      break;
    case kOpListFiles:
      endpoint_->Reply(src, req_id, DoListFiles());
      break;
    case kOpCopyFileTo:
      DoCopyFileTo(src, req_id, body);
      break;
    case kOpNicAppend:
      endpoint_->Reply(src, req_id, DoNicAppend(body));
      break;
    case kOpCompaction: {
      std::string body_copy = body.ToString();
      compaction_pool_->Submit([this, src, req_id, body_copy] {
        if (!compaction_handler_) {
          endpoint_->Reply(src, req_id,
                           ErrorResponse(Status::NotSupported(
                               "no compaction handler installed")));
          return;
        }
        std::string result = compaction_handler_(src, body_copy);
        endpoint_->Reply(src, req_id, OkResponse(result));
      });
      break;
    }
    default:
      endpoint_->Reply(src, req_id,
                       ErrorResponse(Status::InvalidArgument("bad opcode")));
  }
}

std::string StocServer::DoOpenInMemFile(Slice payload) {
  uint64_t file_id, region_size;
  if (!GetVarint64(&payload, &file_id) ||
      !GetVarint64(&payload, &region_size)) {
    return ErrorResponse(Status::InvalidArgument("bad open request"));
  }
  Region region;
  if (!AllocRegion(region_size, &region)) {
    return ErrorResponse(Status::Busy("stoc memory exhausted"));
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    InMemFile& f = in_memory_files_[file_id];
    // Re-opening an existing file id resets it (fresh log file).
    for (const Region& r : f.regions) {
      FreeRegion(r);
    }
    f.regions.clear();
    f.regions.push_back(region);
    f.region_size = region_size;
  }
  std::string resp;
  PutVarint32(&resp, region.mr_id);
  return OkResponse(resp);
}

std::string StocServer::DoExtendInMemFile(Slice payload) {
  uint64_t file_id;
  if (!GetVarint64(&payload, &file_id)) {
    return ErrorResponse(Status::InvalidArgument("bad extend request"));
  }
  std::lock_guard<std::mutex> l(mu_);
  auto it = in_memory_files_.find(file_id);
  if (it == in_memory_files_.end()) {
    return ErrorResponse(Status::NotFound("no such in-memory file"));
  }
  Region region;
  if (!AllocRegion(it->second.region_size, &region)) {
    return ErrorResponse(Status::Busy("stoc memory exhausted"));
  }
  it->second.regions.push_back(region);
  std::string resp;
  PutVarint32(&resp, region.mr_id);
  return OkResponse(resp);
}

std::string StocServer::DoDeleteFile(Slice payload) {
  uint64_t file_id;
  uint32_t is_mem;
  if (!GetVarint64(&payload, &file_id) || !GetVarint32(&payload, &is_mem)) {
    return ErrorResponse(Status::InvalidArgument("bad delete request"));
  }
  if (is_mem) {
    std::lock_guard<std::mutex> l(mu_);
    auto it = in_memory_files_.find(file_id);
    if (it == in_memory_files_.end()) {
      return ErrorResponse(Status::NotFound("no such in-memory file"));
    }
    for (const Region& r : it->second.regions) {
      FreeRegion(r);
    }
    in_memory_files_.erase(it);
    return OkResponse();
  }
  Status s = store_->Delete(file_id);
  if (!s.ok()) {
    return ErrorResponse(s);
  }
  return OkResponse();
}

std::string StocServer::DoAllocBlock(rdma::NodeId src, Slice payload) {
  uint64_t file_id, size, token;
  if (!GetVarint64(&payload, &file_id) || !GetVarint64(&payload, &size) ||
      !GetVarint64(&payload, &token)) {
    return ErrorResponse(Status::InvalidArgument("bad alloc request"));
  }
  Region region;
  if (!AllocRegion(size, &region)) {
    return ErrorResponse(Status::Busy("stoc file buffer exhausted"));
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    pending_blocks_[region.mr_id] =
        PendingBlock{file_id, token, src, size, region.buf};
  }
  std::string resp;
  PutVarint32(&resp, region.mr_id);
  return OkResponse(resp);
}

uint64_t StocServer::AcceptDiskWork(uint64_t bytes) {
  uint64_t us = static_cast<uint64_t>(device_->ServiceUs(bytes));
  queued_work_us_.fetch_add(us, std::memory_order_relaxed);
  return us;
}

void StocServer::FinishDiskWork(uint64_t us) {
  queued_work_us_.fetch_sub(us, std::memory_order_relaxed);
}

void StocServer::HandleWriteImm(rdma::NodeId src, uint32_t imm) {
  (void)src;
  PendingBlock pending;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = pending_blocks_.find(imm);
    if (it == pending_blocks_.end()) {
      // Appends to in-memory files also raise imm notifications when the
      // writer requests them; nothing to do for those here.
      return;
    }
    pending = it->second;
    pending_blocks_.erase(it);
  }
  // Flush the written buffer to disk on a storage thread (Figure 10,
  // step 3), then complete the client's token (step 4).
  uint64_t work = AcceptDiskWork(pending.size);
  storage_pool_->Submit([this, pending, imm, work] {
    device_->BlockingIo(SimulatedDevice::IoKind::kWrite, pending.size,
                        pending.file_id);
    FinishDiskWork(work);
    uint64_t offset =
        store_->Append(pending.file_id, Slice(pending.buf, pending.size));
    StocBlockHandle handle;
    handle.stoc_id = node_;
    handle.file_id = pending.file_id;
    handle.offset = offset;
    handle.size = pending.size;
    std::string enc;
    handle.EncodeTo(&enc);
    Region region;
    region.mr_id = imm;
    region.buf = pending.buf;
    region.size = pending.size;
    FreeRegion(region);
    endpoint_->CompleteToken(pending.client, pending.token, enc);
  });
}

void StocServer::DoReadBlock(rdma::NodeId src, uint64_t req_id,
                             Slice payload) {
  uint64_t file_id, offset, size;
  if (!GetVarint64(&payload, &file_id) || !GetVarint64(&payload, &offset) ||
      !GetVarint64(&payload, &size)) {
    endpoint_->Reply(src, req_id,
                     ErrorResponse(Status::InvalidArgument("bad read")));
    return;
  }
  uint64_t work =
      AcceptDiskWork(size != 0 ? size : store_->FileSize(file_id));
  storage_pool_->Submit([this, src, req_id, file_id, offset, size, work] {
    uint64_t n = size;
    if (n == 0) {
      n = store_->FileSize(file_id);
      if (n == 0) {
        FinishDiskWork(work);
        endpoint_->Reply(
            src, req_id,
            ErrorResponse(Status::NotFound("no such stoc file")));
        return;
      }
    }
    // OS page-cache model: with small per-StoC datasets most reads hit
    // memory (paper Section 8.2.5's super-linear read scaling).
    bool cached = false;
    if (options_.page_cache_bytes > 0) {
      uint64_t stored = store_->TotalBytes();
      double hit_prob =
          stored == 0 ? 1.0
                      : std::min(1.0, static_cast<double>(
                                          options_.page_cache_bytes) /
                                          static_cast<double>(stored));
      std::lock_guard<std::mutex> l(rng_mu_);
      cached = rng_.NextDouble() < hit_prob;
    }
    if (cached) {
      cache_hits_.fetch_add(1);
    } else {
      cache_misses_.fetch_add(1);
      device_->BlockingIo(SimulatedDevice::IoKind::kRead, n, file_id);
    }
    FinishDiskWork(work);
    if (device_->failed()) {
      endpoint_->Reply(src, req_id,
                       ErrorResponse(Status::IOError("device failed")));
      return;
    }
    std::string data;
    Status s = store_->Read(file_id, offset, n, &data);
    if (!s.ok()) {
      endpoint_->Reply(src, req_id, ErrorResponse(s));
      return;
    }
    // The paper RDMA-WRITEs the block into the client's buffer; replying
    // with the payload is the message-equivalent in this emulation.
    endpoint_->Reply(src, req_id, OkResponse(data));
  });
}

std::string StocServer::DoNicAppend(Slice payload) {
  uint64_t file_id, global_offset;
  if (!GetVarint64(&payload, &file_id) ||
      !GetVarint64(&payload, &global_offset)) {
    return ErrorResponse(Status::InvalidArgument("bad nic append"));
  }
  // Unlike the one-sided path, this copy costs StoC CPU.
  throttle_->Charge(sim::DefaultCostModel().nic_log_append_us);
  std::lock_guard<std::mutex> l(mu_);
  auto it = in_memory_files_.find(file_id);
  if (it == in_memory_files_.end()) {
    return ErrorResponse(Status::NotFound("no such in-memory file"));
  }
  uint64_t base = 0;
  for (const Region& region : it->second.regions) {
    if (global_offset < base + region.size) {
      uint64_t local = global_offset - base;
      if (local + payload.size() > region.size) {
        return ErrorResponse(
            Status::InvalidArgument("nic append spans region boundary"));
      }
      memcpy(region.buf + local, payload.data(), payload.size());
      return OkResponse();
    }
    base += region.size;
  }
  return ErrorResponse(Status::InvalidArgument("offset beyond file"));
}

std::string StocServer::DoStats() {
  std::string resp;
  PutVarint64(&resp, queued_work_us_.load(std::memory_order_relaxed) +
                         device_->RecentBusyUs());
  PutVarint64(&resp, store_->TotalBytes());
  return OkResponse(resp);
}

std::string StocServer::DoQueryLogFiles(Slice payload) {
  uint32_t range_id;
  if (!GetVarint32(&payload, &range_id)) {
    return ErrorResponse(Status::InvalidArgument("bad query"));
  }
  std::string resp;
  std::lock_guard<std::mutex> l(mu_);
  uint32_t count = 0;
  std::string body;
  for (const auto& [file_id, f] : in_memory_files_) {
    if (FileIdKind(file_id) != FileKind::kLog ||
        FileIdRange(file_id) != range_id) {
      continue;
    }
    count++;
    PutVarint64(&body, file_id);
    PutVarint32(&body, static_cast<uint32_t>(f.regions.size()));
    for (const Region& r : f.regions) {
      PutVarint32(&body, r.mr_id);
      PutVarint64(&body, r.size);
    }
  }
  PutVarint32(&resp, count);
  resp.append(body);
  return OkResponse(resp);
}

std::string StocServer::DoListFiles() {
  std::vector<uint64_t> files = store_->ListFiles();
  std::string resp;
  PutVarint32(&resp, static_cast<uint32_t>(files.size()));
  for (uint64_t id : files) {
    PutVarint64(&resp, id);
  }
  return OkResponse(resp);
}

void StocServer::DoCopyFileTo(rdma::NodeId src, uint64_t req_id,
                              Slice payload) {
  uint64_t file_id;
  uint32_t dst;
  if (!GetVarint64(&payload, &file_id) || !GetVarint32(&payload, &dst)) {
    endpoint_->Reply(src, req_id,
                     ErrorResponse(Status::InvalidArgument("bad copy")));
    return;
  }
  uint64_t work = AcceptDiskWork(store_->FileSize(file_id));
  storage_pool_->Submit([this, src, req_id, file_id, dst, work] {
    uint64_t n = store_->FileSize(file_id);
    if (n == 0) {
      FinishDiskWork(work);
      endpoint_->Reply(src, req_id,
                       ErrorResponse(Status::NotFound("no such file")));
      return;
    }
    device_->BlockingIo(SimulatedDevice::IoKind::kRead, n, file_id);
    FinishDiskWork(work);
    std::string data;
    Status s = store_->Read(file_id, 0, n, &data);
    if (!s.ok()) {
      endpoint_->Reply(src, req_id, ErrorResponse(s));
      return;
    }
    // Append the whole file as one block on the destination StoC through
    // the standard client flow (StoC-to-StoC RDMA, paper Section 9).
    StocBlockHandle handle;
    s = client_->AppendBlock(static_cast<rdma::NodeId>(dst), file_id, data,
                             &handle);
    if (!s.ok()) {
      endpoint_->Reply(src, req_id, ErrorResponse(s));
      return;
    }
    endpoint_->Reply(src, req_id, OkResponse());
  });
}

}  // namespace stoc
}  // namespace nova
