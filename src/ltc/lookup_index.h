// The lookup index (paper Section 4.1.1, Challenge 2): key -> unique
// memtable id (mid), plus the indirect MIDToTable map from mid to either a
// live memtable or the Level-0 SSTable its contents were flushed into.
// A get that hits the index searches exactly one memtable or one L0
// SSTable instead of all of them.
#ifndef NOVA_LTC_LOOKUP_INDEX_H_
#define NOVA_LTC_LOOKUP_INDEX_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>

#include "mem/memtable.h"

namespace nova {
namespace ltc {

class LookupIndex {
 public:
  static constexpr int kShards = 16;

  /// Point key at mid. seq is the sequence number of the write; stale
  /// racers (lower seq) never overwrite a newer mapping.
  void Update(const Slice& key, uint64_t mid, uint64_t seq);
  bool Lookup(const Slice& key, uint64_t* mid) const;
  /// Like Lookup but also exposes the recorded sequence (tests/debug).
  bool LookupWithSeq(const Slice& key, uint64_t* mid, uint64_t* seq) const;
  /// Erase key only if it still maps to expected_mid (lazy cleanup).
  void EraseIf(const Slice& key, uint64_t expected_mid);
  /// Rewrite key -> new_mid only if its current mid is in old_mids (used
  /// when small memtables are merged into a new one, Section 4.2).
  void UpdateIfIn(const Slice& key, const std::set<uint64_t>& old_mids,
                  uint64_t new_mid);
  size_t size() const;

 private:
  struct Slot {
    uint64_t mid = 0;
    uint64_t seq = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Slot> map;
  };
  Shard& shard(const Slice& key) const;

  mutable Shard shards_[kShards];
};

/// MIDToTable: mid -> memtable pointer or L0 SSTable file number. Flushing
/// a memtable atomically swaps its entry from the pointer to the file
/// number; compacting the L0 file into L1 erases the entry.
class MidTable {
 public:
  struct Entry {
    MemTableRef memtable;     // set while the data lives in a memtable
    uint64_t file_number = 0;  // set after the flush
    bool is_file = false;
  };

  void SetMemtable(uint64_t mid, MemTableRef mem);
  /// Atomic flush handoff: the mid now resolves to the L0 file.
  void SetFile(uint64_t mid, uint64_t file_number);
  bool Get(uint64_t mid, Entry* entry) const;
  void Erase(uint64_t mid);
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Entry> map_;
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_LOOKUP_INDEX_H_
