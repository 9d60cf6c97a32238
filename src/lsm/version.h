// Versions and the MANIFEST (paper Section 4.5). A Version is an immutable
// snapshot of the LSM-tree's file layout: Level 0 holds possibly
// overlapping SSTables (disjoint *across* Dranges by construction), higher
// levels are sorted and disjoint. VersionEdits are appended to a per-range
// MANIFEST (replicated at StoCs, each record stamped with the MANIFEST
// version it brings the range to, so a restarting StoC's stale replicas
// lose to newer ones and are discarded). Concurrent edits
// are group-committed: one caller appends every queued edit in one
// MANIFEST write, outside the lock that guards the current Version.
#ifndef NOVA_LSM_VERSION_H_
#define NOVA_LSM_VERSION_H_

#include <atomic>
#include <condition_variable>
#include <deque>
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

  /// The file numbered `number` at any level, or nullptr; *level
  /// (optional) receives its level.
  FileMetaRef Find(uint64_t number, int* level = nullptr) const;

 private:
  friend class VersionSet;
  std::vector<std::vector<FileMetaRef>> levels_;
};

using VersionRef = std::shared_ptr<const Version>;

struct VersionEdit {
  /// The MANIFEST version this record brings the range to: LogAndApply
  /// stamps it, and a snapshot of a whole version carries that version's.
  uint64_t manifest_version = 0;
  std::vector<std::pair<int, FileMetaData>> new_files;
  std::vector<std::pair<int, uint64_t>> deleted_files;  // (level, number)
  uint64_t last_sequence = 0;
  uint64_t next_file_number = 0;
  /// Opaque Drange/Trange snapshot appended by the LTC (Section 4.5).
  std::string drange_state;

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice input);
};

/// Persists encoded edit records, in order, in one MANIFEST append. Each
/// record must read back as its own record: Recover takes one per edit.
using ManifestSink =
    std::function<Status(const std::vector<std::string>& records)>;

/// Owns the current Version; applies edits and writes them to a MANIFEST
/// sink. Thread-safe; readers snapshot with current(), which never waits
/// on MANIFEST I/O.
class VersionSet {
 public:
  /// manifest_append persists a batch of encoded edit records (may be
  /// null for tests / baselines that do their own recovery).
  VersionSet(const LsmOptions& options, ManifestSink manifest_append);

  VersionRef current() const;

  /// Persist the edit to the manifest, then publish a version with it
  /// applied. Concurrent calls are group-committed: they queue, and the
  /// caller at the head of the queue stamps every queued edit with the
  /// MANIFEST version it brings the range to, the current last sequence
  /// and next file number, hands them to the sink in one call, applies
  /// them in queue order and publishes one version. A sink failure fails
  /// every edit of its batch and publishes none.
  Status LogAndApply(VersionEdit* edit);

  /// Rebuild state from manifest records (replayed in order; the first
  /// may be a snapshot of a whole version). The MANIFEST version becomes
  /// the last record's. A record that does not decode fails the recovery
  /// and changes nothing.
  Status Recover(const std::vector<std::string>& records);

  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1); }
  /// Reserve `count` consecutive file numbers; returns the first (used to
  /// hand offloaded compactions a number block, Section 4.3).
  uint64_t ReserveFileNumbers(uint64_t count) {
    return next_file_number_.fetch_add(count);
  }
  /// Never hand out `number` or a lower one again (recovery saw StoC files
  /// under it that no edit names).
  void MarkFileNumberUsed(uint64_t number) {
    uint64_t cur = next_file_number_.load();
    while (cur <= number &&
           !next_file_number_.compare_exchange_weak(cur, number + 1)) {
    }
  }
  uint64_t last_sequence() const { return last_sequence_.load(); }
  /// Raise the last sequence to s. Never lowers it: concurrent flushes
  /// report their sequences in any order, and an edit stamped lower than
  /// a flushed key would let recovery reuse that key's sequence.
  void SetLastSequence(uint64_t s) {
    uint64_t cur = last_sequence_.load();
    while (cur < s && !last_sequence_.compare_exchange_weak(cur, s)) {
    }
  }
  /// The MANIFEST version of the current Version: the version the last
  /// committed or recovered record brought the range to. A replica whose
  /// last record is older is stale.
  uint64_t manifest_version() const { return manifest_version_.load(); }

  const LsmOptions& options() const { return options_; }
  /// Expected byte size of a level (paper: 10x growth above L1).
  uint64_t ExpectedLevelBytes(int level) const;

  /// Latest drange_state persisted via edits (for recovery).
  std::string drange_state() const;

 private:
  /// One LogAndApply call waiting in writers_.
  struct Writer {
    explicit Writer(VersionEdit* e) : edit(e) {}
    VersionEdit* edit;
    Status status;
    bool done = false;
  };

  /// base with the edits applied in order.
  VersionRef Apply(const Version& base,
                   const std::vector<const VersionEdit*>& edits) const;
  /// Publish v and the newest Drange state among edits.
  void Install(VersionRef v, const std::vector<const VersionEdit*>& edits);

  LsmOptions options_;
  ManifestSink manifest_append_;
  /// Guards current_ and drange_state_; held only to read or swap them.
  mutable std::mutex mu_;
  VersionRef current_;
  std::string drange_state_;
  /// LogAndApply callers in arrival order; the head commits for all of
  /// them. Only the head builds a new version, so versions are built
  /// one at a time without holding mu_.
  std::mutex writers_mu_;
  std::condition_variable writers_cv_;
  std::deque<Writer*> writers_;
  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<uint64_t> last_sequence_{0};
  std::atomic<uint64_t> manifest_version_{0};
};

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_VERSION_H_
