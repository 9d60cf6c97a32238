// MemTable: a sorted in-memory table of (internal key, value) entries over a
// skiplist. Nova-LSM keeps many memtables per range (δ of them, α active —
// one active memtable per Drange, more for duplicated Dranges). Each
// memtable carries:
//   * a unique id (`mid`) used by the lookup index's MIDToTable indirection
//     (paper Section 4.1.1) and naming its LogC log file,
//   * the id of its Drange.
// Adds take a per-memtable mutex (writers to *different* memtables never
// contend — the point of multiple active memtables); reads are lock-free.
#ifndef NOVA_MEM_MEMTABLE_H_
#define NOVA_MEM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "mem/arena.h"
#include "mem/dbformat.h"
#include "mem/skiplist.h"
#include "util/iterator.h"
#include "util/status.h"

namespace nova {

class MemTable {
 public:
  MemTable(const InternalKeyComparator& comparator, uint64_t id);
  ~MemTable() = default;

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Thread-safe append of an entry. type is kTypeValue or kTypeDeletion.
  void Add(SequenceNumber seq, ValueType type, const Slice& key,
           const Slice& value);

  /// Like Add, but fails (returns false) if the table has been marked
  /// immutable. MarkImmutable() and this method synchronize on the write
  /// mutex, so after MarkImmutable() returns, every successful AddIfActive
  /// is visible to flush iterators — a put can never vanish into a table
  /// that is being flushed.
  bool AddIfActive(SequenceNumber seq, ValueType type, const Slice& key,
                   const Slice& value);

  /// If the memtable contains a value for key at or before the snapshot in
  /// lookup_key, stores it in *value and returns true. If it contains a
  /// deletion, stores NotFound in *s and returns true. *seq (optional)
  /// receives the sequence number of the matched entry.
  bool Get(const LookupKey& lookup_key, std::string* value, Status* s,
           SequenceNumber* seq = nullptr);

  /// Iterator over internal keys. Safe concurrently with Adds. The caller
  /// must keep this MemTable alive while the iterator is in use.
  Iterator* NewIterator();

  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }
  /// Number of entries added (versions, not unique keys).
  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  /// Exact count of distinct user keys (walks the table; used by the flush
  /// policy's "<100 unique keys" test, paper Section 4.2).
  uint64_t CountUniqueKeys() const;

  /// Smallest/largest user key currently present; empty strings if empty.
  /// (Walks head/tail of the skiplist; O(log n).)
  std::string SmallestUserKey() const;
  std::string LargestUserKey() const;

  uint64_t id() const { return id_; }

  int drange_id() const { return drange_id_.load(std::memory_order_relaxed); }
  void set_drange_id(int d) {
    drange_id_.store(d, std::memory_order_relaxed);
  }

  /// Marked when the table stops accepting writes.
  bool immutable() const { return immutable_.load(std::memory_order_acquire); }
  void MarkImmutable();

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    InternalKeyComparator comparator;
    /// Entries are length-prefixed internal keys.
    int operator()(const char* a, const char* b) const;
  };

  typedef SkipList<const char*, KeyComparator> Table;

  void AddLocked(SequenceNumber seq, ValueType type, const Slice& key,
                 const Slice& value);

  const uint64_t id_;
  KeyComparator comparator_;
  Arena arena_;
  Table table_;
  std::mutex write_mu_;
  std::atomic<uint64_t> num_entries_;
  std::atomic<int> drange_id_{-1};
  std::atomic<bool> immutable_{false};
};

using MemTableRef = std::shared_ptr<MemTable>;

}  // namespace nova

#endif  // NOVA_MEM_MEMTABLE_H_
