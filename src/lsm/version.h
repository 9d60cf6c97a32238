// Versions and the MANIFEST (paper Section 4.5). A Version is an immutable
// snapshot of the LSM-tree's file layout: Level 0 holds possibly
// overlapping SSTables (disjoint *across* Dranges by construction), higher
// levels are sorted and disjoint. VersionEdits are appended to a per-range
// MANIFEST (replicated at StoCs with a version number so a restarting
// StoC's stale replicas can be detected and discarded).
#ifndef NOVA_LSM_VERSION_H_
#define NOVA_LSM_VERSION_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lsm/file_meta.h"
#include "mem/dbformat.h"
#include "util/status.h"

namespace nova {
namespace lsm {

struct LsmOptions {
  int num_levels = 5;
  /// Compaction triggers when L0 data exceeds this; writes stall at
  /// l0_stop_bytes (paper Challenge 1).
  uint64_t l0_compaction_trigger_bytes = 8 << 20;
  uint64_t l0_stop_bytes = 32 << 20;
  /// Expected size of Level 1; each higher level is 10x larger.
  uint64_t base_level_bytes = 32 << 20;
};

class Version {
 public:
  explicit Version(int num_levels) : levels_(num_levels) {}

  const std::vector<FileMetaRef>& files(int level) const {
    return levels_[level];
  }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  uint64_t LevelBytes(int level) const;
  int NumFiles() const;

  /// Files in `level` whose key range intersects [begin, end] (user keys).
  std::vector<FileMetaRef> OverlappingFiles(int level, const Slice& begin,
                                            const Slice& end) const;

  /// For levels >= 1 (sorted, disjoint): the single file that may contain
  /// user_key, or nullptr.
  FileMetaRef FileForKey(int level, const Slice& user_key) const;

 private:
  friend class VersionSet;
  std::vector<std::vector<FileMetaRef>> levels_;
};

using VersionRef = std::shared_ptr<const Version>;

struct VersionEdit {
  std::vector<std::pair<int, FileMetaData>> new_files;
  std::vector<std::pair<int, uint64_t>> deleted_files;  // (level, number)
  uint64_t last_sequence = 0;
  uint64_t next_file_number = 0;
  /// Opaque Drange/Trange snapshot appended by the LTC (Section 4.5).
  std::string drange_state;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice input);
};

/// Owns the current Version; applies edits and writes them to a MANIFEST
/// sink. Thread-safe; readers snapshot with current().
class VersionSet {
 public:
  /// manifest_append persists one encoded edit record (may be null for
  /// tests / baselines that do their own recovery).
  VersionSet(const LsmOptions& options,
             std::function<Status(const Slice&)> manifest_append);

  VersionRef current() const;

  /// Apply the edit, persist it to the manifest, publish a new version.
  Status LogAndApply(VersionEdit* edit);

  /// Rebuild state from manifest records (replayed in order).
  Status Recover(const std::vector<std::string>& records);

  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1); }
  /// Reserve `count` consecutive file numbers; returns the first (used to
  /// hand offloaded compactions a number block, Section 4.3).
  uint64_t ReserveFileNumbers(uint64_t count) {
    return next_file_number_.fetch_add(count);
  }
  uint64_t last_sequence() const { return last_sequence_.load(); }
  void SetLastSequence(uint64_t s) { last_sequence_.store(s); }
  /// Number of edits applied — the manifest version number used for
  /// stale-replica detection.
  uint64_t manifest_version() const { return manifest_version_.load(); }

  const LsmOptions& options() const { return options_; }
  /// Expected byte size of a level (paper: 10x growth above L1).
  uint64_t ExpectedLevelBytes(int level) const;

  /// Latest drange_state persisted via edits (for recovery).
  std::string drange_state() const;

 private:
  VersionRef ApplyLocked(const VersionEdit& edit);

  LsmOptions options_;
  std::function<Status(const Slice&)> manifest_append_;
  mutable std::mutex mu_;
  VersionRef current_;
  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<uint64_t> last_sequence_{0};
  std::atomic<uint64_t> manifest_version_{0};
  std::string drange_state_;
};

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_VERSION_H_
