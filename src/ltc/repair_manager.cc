#include "ltc/repair_manager.h"

#include <algorithm>
#include <limits>

#include "lsm/table_io.h"
#include "util/logging.h"

namespace nova {
namespace ltc {

namespace {

using Clock = std::chrono::steady_clock;

/// Drain passes in a row that may find every remaining file held by a
/// compaction before the drain gives up (each waits a scan interval).
constexpr int kMaxIdleDrainPasses = 200;

uint64_t ElapsedUs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start)
      .count();
}

bool Contains(const std::vector<rdma::NodeId>& nodes, int32_t stoc) {
  return std::find(nodes.begin(), nodes.end(), stoc) != nodes.end();
}

/// Pieces of a file stored on a StoC in `from`.
int PiecesOn(const lsm::FileMetaData& meta,
             const std::vector<rdma::NodeId>& from) {
  int n = 0;
  lsm::ForEachPiece(meta,
                    [&](lsm::PieceKind, int, const lsm::BlockLocation& loc) {
                      n += Contains(from, loc.stoc_id);
                    });
  return n;
}

/// Calls fn(engine, file) for every live file of every engine, each
/// engine's files from one version snapshot, until fn returns false.
template <typename Fn>
void ForEachLiveFile(const std::vector<RangeEngine*>& engines, Fn&& fn) {
  for (RangeEngine* engine : engines) {
    lsm::VersionRef v = engine->versions()->current();
    for (int level = 0; level < v->num_levels(); level++) {
      for (const auto& f : v->files(level)) {
        if (!fn(engine, f)) {
          return;
        }
      }
    }
  }
}

}  // namespace

RepairManager::RepairManager(
    stoc::StocClient* client,
    std::function<std::vector<RangeEngine*>()> engines,
    const RepairOptions& options)
    : client_(client), engines_(std::move(engines)), options_(options) {}

RepairManager::~RepairManager() { Stop(); }

void RepairManager::Start() {
  if (!options_.enabled || running_.exchange(true)) {
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void RepairManager::Stop() {
  running_.store(false);
  if (thread_.joinable()) {
    thread_.join();
  }
}

void RepairManager::Loop() {
  while (running_.load(std::memory_order_relaxed)) {
    ScanOnce();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.scan_interval_ms));
  }
}

RepairStats RepairManager::stats() const {
  RepairStats out;
  // Gauge first: a poller that sees it reach zero also sees the closed
  // window's time (PublishDegraded).
  out.degraded_fragments = degraded_fragments_.load(std::memory_order_acquire);
  out.repaired_fragments = repaired_fragments_.load(std::memory_order_relaxed);
  out.repaired_bytes = repaired_bytes_.load(std::memory_order_relaxed);
  out.repair_us = repair_us_.load(std::memory_order_acquire);
  return out;
}

void RepairManager::PublishDegraded(uint64_t degraded) {
  if (degraded == 0 && window_open_) {
    repair_us_.fetch_add(ElapsedUs(window_start_), std::memory_order_release);
    window_open_ = false;
  }
  degraded_fragments_.store(degraded, std::memory_order_release);
}

void RepairManager::ScanOnce() {
  coord::Membership* membership = client_->membership();
  if (membership == nullptr) {
    return;
  }
  std::vector<rdma::NodeId> dead = membership->DeadNodes();
  std::vector<RangeEngine*> engines = engines_();
  std::lock_guard<std::mutex> l(mu_);
  if (dead.empty()) {
    PublishDegraded(0);
    return;
  }

  // Pass 1 (metadata only): publish the degraded gauge before repair I/O
  // starts, so pollers observe the peak even when repair is fast.
  uint64_t found = 0;
  ForEachLiveFile(engines, [&](RangeEngine*, const lsm::FileMetaRef& f) {
    found += PiecesOn(*f, dead);
    return true;
  });
  if (found > 0 && !window_open_) {
    window_open_ = true;
    window_start_ = Clock::now();
  }
  PublishDegraded(found);
  if (found == 0) {
    return;
  }

  // Pass 2: repair file by file. A file that cannot be repaired yet
  // (compaction claim, no healthy target) simply stays degraded until the
  // next scan.
  uint64_t remaining = found;
  ForEachLiveFile(engines, [&](RangeEngine* engine,
                               const lsm::FileMetaRef& f) {
    FileOutcome outcome = RepairFile(engine, f, dead);
    repaired_fragments_.fetch_add(outcome.moved, std::memory_order_relaxed);
    repaired_bytes_.fetch_add(outcome.rebuilt_bytes,
                              std::memory_order_relaxed);
    remaining -= std::min<uint64_t>(remaining, outcome.moved);
    PublishDegraded(remaining);
    // Stop() requested mid-scan ends the walk.
    return running_.load(std::memory_order_relaxed) || !thread_.joinable();
  });
}

Status RepairManager::Drain(rdma::NodeId stoc) {
  const std::vector<rdma::NodeId> from = {stoc};
  for (int idle = 0; idle < kMaxIdleDrainPasses;) {
    int found = 0;
    int moved = 0;
    Status stranded;  // a piece with no StoC free of its other copies
    std::vector<RangeEngine*> engines = engines_();
    {
      std::lock_guard<std::mutex> l(mu_);
      ForEachLiveFile(engines, [&](RangeEngine* engine,
                                   const lsm::FileMetaRef& f) {
        FileOutcome outcome = RepairFile(engine, f, from);
        found += outcome.found;
        moved += outcome.moved;
        if (outcome.no_target) {
          stranded = Status::Unavailable(
              "no StoC free of the other copies of a piece of file " +
              std::to_string(f->number));
        }
        return stranded.ok();
      });
    }
    if (!stranded.ok()) {
      return stranded;
    }
    if (found == 0) {
      return Status::OK();
    }
    // What is left is held by a compaction (Busy: retried), retired by one
    // (NotFound: gone from the next snapshot), or failed to copy.
    idle = moved > 0 ? 0 : idle + 1;
    if (moved < found) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.scan_interval_ms));
    }
  }
  return Status::Busy("drain made no progress: files stay claimed");
}

Status RepairManager::RebuildPiece(const lsm::FileMetaRef& file,
                                   lsm::PieceKind kind, int fragment,
                                   std::string* out) {
  // Fragments come through the read path: replica failover, then parity.
  lsm::StocBlockFetcher fetcher(client_, *file);
  switch (kind) {
    case lsm::PieceKind::kFragment:
      return fetcher.Fetch(fragment, 0, file->fragment_sizes[fragment], out);
    case lsm::PieceKind::kMeta: {
      std::vector<stoc::GatherRead::Target> replicas;
      for (const lsm::BlockLocation& loc : file->meta_replicas) {
        replicas.push_back({loc.stoc_id, loc.file_id});
      }
      return client_->ReadReplicated(replicas, 0, 0, out);
    }
    case lsm::PieceKind::kParity: {
      uint64_t longest = 0;
      for (uint64_t size : file->fragment_sizes) {
        longest = std::max(longest, size);
      }
      out->assign(longest, '\0');
      for (int f = 0; f < static_cast<int>(file->fragments.size()); f++) {
        std::string data;
        Status s = fetcher.Fetch(f, 0, file->fragment_sizes[f], &data);
        if (!s.ok()) {
          return s;
        }
        lsm::XorInto(out, data);
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown piece kind");
}

RepairManager::FileOutcome RepairManager::RepairFile(
    RangeEngine* engine, const lsm::FileMetaRef& file,
    const std::vector<rdma::NodeId>& from) {
  FileOutcome outcome;
  if (PiecesOn(*file, from) == 0) {
    return outcome;
  }
  lsm::FileMetaData updated = *file;
  // Every routable placement StoC (every one when none is), in random
  // order and without a load probe.
  const std::vector<rdma::NodeId> order =
      engine->placer()->PickStocs(std::numeric_limits<int>::max());
  // Copies written so far, deleted again if the swap fails so a retry
  // never appends a second copy into the same StoC file.
  std::vector<lsm::BlockLocation> written;

  lsm::ForEachPiece(updated, [&](lsm::PieceKind kind, int fragment,
                                 lsm::BlockLocation& loc) {
    if (!Contains(from, loc.stoc_id)) {
      return;
    }
    outcome.found++;
    rdma::NodeId target = lsm::PickPieceStoc(updated, kind, fragment, order);
    if (target < 0 || !client_->IsRoutable(target)) {
      outcome.no_target = true;
      return;
    }
    // Clear any partial copy a failed earlier attempt left under this id.
    client_->DeleteFile(target, loc.file_id, false);
    Status s;
    if (client_->IsRoutable(loc.stoc_id)) {
      s = client_->CopyFileTo(loc.stoc_id, loc.file_id, target);
    } else {
      std::string data;
      s = RebuildPiece(file, kind, fragment, &data);
      stoc::StocBlockHandle handle;
      if (s.ok()) {
        s = client_->AppendBlock(target, loc.file_id, data, &handle);
      }
      if (s.ok()) {
        outcome.rebuilt_bytes += data.size();
      }
    }
    if (!s.ok()) {
      NOVA_WARN("repair: piece of file %llu not moved off StoC %d: %s",
                (unsigned long long)updated.number, loc.stoc_id,
                s.ToString().c_str());
      return;
    }
    written.push_back({target, loc.file_id});
    loc.stoc_id = target;
    outcome.moved++;
  });

  if (outcome.moved == 0) {
    return outcome;
  }
  Status s = engine->SwapFileMeta(updated);
  if (!s.ok()) {
    // A compaction holds the file (Busy) or already retired it
    // (NotFound): delete the fresh copies and let the caller decide.
    for (const lsm::BlockLocation& loc : written) {
      client_->DeleteFile(loc.stoc_id, loc.file_id, false);
    }
    outcome.moved = 0;
    outcome.rebuilt_bytes = 0;
    return outcome;
  }
  if (outcome.moved < outcome.found) {
    NOVA_WARN("repair: file %llu partially re-homed (%d of %d pieces)",
              (unsigned long long)updated.number, outcome.moved,
              outcome.found);
  }
  return outcome;
}

}  // namespace ltc
}  // namespace nova
