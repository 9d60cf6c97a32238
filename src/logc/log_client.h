// LogC (paper Section 5): a library integrated into an LTC that maintains
// one log file per memtable.
//   * kInMemory — records replicated to in-memory StoC files on
//                 num_replicas StoCs via one-sided RDMA WRITE (StoC CPUs
//                 bypassed); all replicas lost => data loss.
//   * kNone     — no log: a memtable is lost with its LTC.
// A NIC-path mode routes replication through StoC request handlers (their
// CPU is involved), reproducing the paper's RDMA-vs-NIC service-time
// comparison in Section 8.2.3.
#ifndef NOVA_LOGC_LOG_CLIENT_H_
#define NOVA_LOGC_LOG_CLIENT_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "logc/log_record.h"
#include "stoc/stoc_client.h"

namespace nova {
namespace logc {

enum class LogMode { kNone, kInMemory };

struct LogOptions {
  LogMode mode = LogMode::kInMemory;
  int num_replicas = 3;
  /// Size of each in-memory region; LogC approximates a log file's size by
  /// the memtable size (Section 5), so one region usually suffices.
  uint64_t region_size = 512 << 10;
  /// Replicate via StoC request handlers instead of one-sided RDMA
  /// (involves StoC CPU; slower — Section 8.2.3's NIC comparison).
  bool use_nic_path = false;
};

class LogClient {
 public:
  LogClient(stoc::StocClient* stoc_client, uint32_t range_id,
            const LogOptions& options);

  /// Create the log file for a memtable, replicated across `stocs`
  /// (options.num_replicas of them are used; fewer is allowed).
  Status CreateLogFile(uint64_t memtable_id,
                       const std::vector<rdma::NodeId>& stocs);

  /// Append one record to every replica.
  Status Append(uint64_t memtable_id, const LogRecord& rec);

  /// Drop the log file once its memtable is flushed to an SSTable.
  Status DeleteLogFile(uint64_t memtable_id);

  /// Take ownership of an existing log file's replicas (after recovery or
  /// migration) so a later DeleteLogFile reclaims the StoC memory.
  void Adopt(uint64_t memtable_id,
             std::vector<stoc::InMemFileHandle> replicas);

  bool HasLogFile(uint64_t memtable_id);

  /// Recovery: gather all log records for range_id from the given StoCs,
  /// reading each log file from its first reachable replica with one-sided
  /// RDMA READs, grouped by memtable id. Static: runs without a LogClient
  /// instance (the failed LTC's state is gone).
  /// handles_out (optional) receives every replica handle seen, keyed by
  /// file id, so the caller can Adopt() them.
  static Status FetchAllLogRecords(
      stoc::StocClient* stoc_client, const std::vector<rdma::NodeId>& stocs,
      uint32_t range_id,
      std::map<uint64_t, std::vector<LogRecord>>* by_memtable,
      std::map<uint64_t, std::vector<stoc::InMemFileHandle>>* handles_out =
          nullptr);

 private:
  struct LogFileState {
    std::vector<stoc::InMemFileHandle> replicas;
    uint64_t next_offset = 0;       // within the region chain
    size_t current_region = 0;
    std::mutex mu;                  // serializes offset reservation
    /// Appends in flight between the files_ lookup and completion.
    /// DeleteLogFile drains them before releasing the StoC files: a late
    /// one-sided WriteInMem would otherwise land in slab memory the StoC
    /// has already recycled for another log file.
    std::mutex drain_mu;
    std::condition_variable drain_cv;
    int inflight = 0;
  };

  Status AppendInMemory(LogFileState* state, const Slice& encoded);

  stoc::StocClient* stoc_client_;
  uint32_t range_id_;
  LogOptions options_;

  std::mutex mu_;
  /// shared_ptr: an Append racing DeleteLogFile (its memtable rotated and
  /// flushed concurrently) keeps the state alive until it returns; the
  /// losing append targets already-deleted StoC files, which fail or are
  /// ignored, and the record is re-logged on the put retry.
  std::map<uint64_t, std::shared_ptr<LogFileState>> files_;
};

}  // namespace logc
}  // namespace nova

#endif  // NOVA_LOGC_LOG_CLIENT_H_
