#include "logc/log_client.h"

#include "util/failpoint.h"
#include "util/logging.h"

namespace nova {
namespace logc {

LogClient::LogClient(stoc::StocClient* stoc_client, uint32_t range_id,
                     const LogOptions& options)
    : stoc_client_(stoc_client), range_id_(range_id), options_(options) {}

Status LogClient::CreateLogFile(uint64_t memtable_id,
                                const std::vector<rdma::NodeId>& stocs) {
  if (options_.mode == LogMode::kNone) {
    return Status::OK();
  }
  auto state = std::make_shared<LogFileState>();
  uint64_t file_id =
      stoc::MakeFileId(range_id_, static_cast<uint32_t>(memtable_id),
                       stoc::FileKind::kLog, 0);
  int want =
      std::min<int>(options_.num_replicas, static_cast<int>(stocs.size()));
  // Walk the whole candidate list, skipping unreachable StoCs, so one
  // dead node degrades to fewer replicas instead of failing the create.
  // Returning early here used to leak the regions already opened on
  // the live StoCs — every memtable rotation leaked more until the
  // log slab was exhausted and flushes wedged.
  Status last_error;
  for (size_t r = 0;
       r < stocs.size() && static_cast<int>(state->replicas.size()) < want;
       r++) {
    // Membership-aware placement: don't even attempt suspect/dead StoCs
    // when enough healthy candidates remain — an expired lease means
    // the log region could vanish under the memtable it backs.
    if (!stoc_client_->IsRoutable(stocs[r]) &&
        static_cast<int>(stocs.size() - r) >
            want - static_cast<int>(state->replicas.size())) {
      continue;
    }
    stoc::InMemFileHandle handle;
    Status s = stoc_client_->OpenInMemFile(stocs[r], file_id,
                                           options_.region_size, &handle);
    if (!s.ok()) {
      last_error = s;
      continue;
    }
    state->replicas.push_back(std::move(handle));
  }
  if (state->replicas.empty()) {
    return last_error.ok() ? Status::Unavailable("no log replicas opened")
                           : last_error;
  }
  std::lock_guard<std::mutex> l(mu_);
  files_[memtable_id] = std::move(state);
  return Status::OK();
}

bool LogClient::HasLogFile(uint64_t memtable_id) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.count(memtable_id) > 0;
}

Status LogClient::AppendInMemory(LogFileState* state, const Slice& encoded) {
  // Reserve an offset (and possibly pad into a fresh region) under the
  // file lock; the actual one-sided writes proceed outside it.
  uint64_t write_offset;
  std::vector<std::pair<uint64_t, bool>> padding;  // (offset, needs marker)
  {
    std::lock_guard<std::mutex> l(state->mu);
    uint64_t region_size = state->replicas.front().regions.front().size;
    uint64_t base = state->current_region * region_size;
    uint64_t local = state->next_offset - base;
    if (encoded.size() + kPaddingBytes > region_size) {
      return Status::InvalidArgument("log record larger than region");
    }
    if (local + encoded.size() + kPaddingBytes > region_size) {
      // Write a padding marker and move to a new region on every replica.
      padding.emplace_back(state->next_offset, true);
      for (auto& replica : state->replicas) {
        Status s = stoc_client_->ExtendInMemFile(&replica);
        if (!s.ok()) {
          return s;
        }
      }
      state->current_region++;
      state->next_offset = state->current_region * region_size;
    }
    write_offset = state->next_offset;
    state->next_offset += encoded.size();
  }
  std::string marker;
  if (!padding.empty()) {
    PutFixed32(&marker, kPaddingMarker);
  }
  for (const auto& replica : state->replicas) {
    for (const auto& [off, needs] : padding) {
      Status s = stoc_client_->WriteInMem(replica, off, marker);
      if (!s.ok()) {
        return s;
      }
    }
    Status s =
        options_.use_nic_path
            ? stoc_client_->NicAppend(replica, write_offset, encoded)
            : stoc_client_->WriteInMem(replica, write_offset, encoded);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status LogClient::Append(uint64_t memtable_id, const LogRecord& rec) {
  if (options_.mode == LogMode::kNone) {
    return Status::OK();
  }
  // Failpoint "logc.append": an injected failure here is reported to the
  // caller BEFORE any replica is written — the write is not acknowledged
  // and the put retries, which is exactly the invariant the chaos test
  // checks (no acked write lost).
  Status fp = util::FailPoint::Check("logc.append");
  if (!fp.ok()) {
    return fp;
  }
  // Hold a reference and register as in flight: a concurrent
  // DeleteLogFile (memtable rotated and flushed under us) must neither
  // free the state mid-append nor release the StoC regions while our
  // one-sided writes are still landing in them. Registration happens
  // under mu_, so DeleteLogFile either erases first (we never see the
  // file) or drains us before touching the regions.
  std::shared_ptr<LogFileState> state;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(memtable_id);
    if (it == files_.end()) {
      return Status::InvalidArgument("no log file for memtable");
    }
    state = it->second;
    std::lock_guard<std::mutex> dl(state->drain_mu);
    state->inflight++;
  }
  struct InflightGuard {
    LogFileState* s;
    ~InflightGuard() {
      std::lock_guard<std::mutex> l(s->drain_mu);
      if (--s->inflight == 0) {
        s->drain_cv.notify_all();
      }
    }
  } guard{state.get()};
  std::string encoded;
  EncodeLogRecord(&encoded, rec);
  if (!state->replicas.empty()) {
    return AppendInMemory(state.get(), encoded);
  }
  return Status::OK();
}

Status LogClient::DeleteLogFile(uint64_t memtable_id) {
  if (options_.mode == LogMode::kNone) {
    return Status::OK();
  }
  std::shared_ptr<LogFileState> state;
  {
    std::lock_guard<std::mutex> l(mu_);
    auto it = files_.find(memtable_id);
    if (it == files_.end()) {
      return Status::OK();  // already gone (idempotent)
    }
    state = std::move(it->second);
    files_.erase(it);
  }
  // Drain racing appends before releasing the regions (see Append): no
  // new append can find the file, and the in-flight ones finish within
  // an RPC round trip.
  {
    std::unique_lock<std::mutex> dl(state->drain_mu);
    state->drain_cv.wait(dl, [&] { return state->inflight == 0; });
  }
  for (const auto& replica : state->replicas) {
    stoc_client_->DeleteFile(replica.stoc_id, replica.file_id, true);
  }
  return Status::OK();
}

void LogClient::Adopt(uint64_t memtable_id,
                      std::vector<stoc::InMemFileHandle> replicas) {
  auto state = std::make_shared<LogFileState>();
  state->replicas = std::move(replicas);
  std::lock_guard<std::mutex> l(mu_);
  files_[memtable_id] = std::move(state);
}

Status LogClient::FetchAllLogRecords(
    stoc::StocClient* stoc_client, const std::vector<rdma::NodeId>& stocs,
    uint32_t range_id,
    std::map<uint64_t, std::vector<LogRecord>>* by_memtable,
    std::map<uint64_t, std::vector<stoc::InMemFileHandle>>* handles_out) {
  // Collect each log file's first reachable replica (and remember every
  // replica for adoption).
  std::map<uint64_t, stoc::InMemFileHandle> files;
  for (rdma::NodeId stoc : stocs) {
    std::vector<stoc::InMemFileHandle> handles;
    Status s = stoc_client->QueryLogFiles(stoc, range_id, &handles);
    if (!s.ok()) {
      continue;  // this StoC may be down; replicas cover for it
    }
    for (auto& h : handles) {
      if (handles_out != nullptr) {
        (*handles_out)[h.file_id].push_back(h);
      }
      files.emplace(h.file_id, std::move(h));
    }
  }
  for (const auto& [file_id, handle] : files) {
    for (size_t r = 0; r < handle.regions.size(); r++) {
      std::string region_bytes;
      Status s = stoc_client->ReadInMemRegion(handle, r, &region_bytes);
      if (!s.ok()) {
        // The file may have been deleted between the query and the read
        // (its memtable flushed concurrently); its data is durable in the
        // SSTable, so skip it.
        break;
      }
      Slice input(region_bytes);
      bool next_region = false;
      while (!next_region) {
        LogRecord rec;
        switch (DecodeLogRecord(&input, &rec)) {
          case DecodeResult::kRecord:
            (*by_memtable)[rec.memtable_id].push_back(std::move(rec));
            break;
          case DecodeResult::kPadding:
            next_region = true;
            break;
          case DecodeResult::kEnd:
            if (input.size() < 4) {
              // Region exhausted without an explicit end: continue in the
              // next region if there is one.
              next_region = true;
            } else {
              // Genuine end of this log file.
              r = handle.regions.size();
              next_region = true;
            }
            break;
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace logc
}  // namespace nova
