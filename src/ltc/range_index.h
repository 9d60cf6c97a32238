// The range index (paper Section 4.1.2, Figure 7): an ordered list of
// keyspace partitions, each listing the memtables and Level-0 SSTables
// whose key ranges overlap it. A scan binary-searches the partition
// containing its start key and merges only that partition's tables (plus
// higher levels) instead of every memtable and L0 SSTable. Drange
// reorganizations split partitions, which inherit their parent's entries.
#ifndef NOVA_LTC_RANGE_INDEX_H_
#define NOVA_LTC_RANGE_INDEX_H_

#include <cstdint>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/slice.h"

namespace nova {
namespace ltc {

class RangeIndex {
 public:
  /// Covers [lower, upper); empty upper = unbounded.
  RangeIndex(std::string lower, std::string upper);

  /// Register a memtable whose keys lie within [lo, hi) (its Drange's
  /// bounds; empty hi = unbounded).
  void AddMemtable(uint64_t mid, const std::string& lo, const std::string& hi);
  void RemoveMemtable(uint64_t mid);

  /// Register an L0 SSTable spanning [lo, hi] (inclusive largest key).
  void AddL0File(uint64_t number, const std::string& lo,
                 const std::string& hi);
  void RemoveL0File(uint64_t number);

  /// Split the partition containing boundary at it; both halves inherit
  /// the parent's entries.
  void SplitAt(const std::string& boundary);

  struct PartitionView {
    std::vector<uint64_t> memtables;
    std::vector<uint64_t> l0_files;
    std::string lower;
    std::string upper;  // empty = unbounded
    bool valid = false;
  };
  /// The partition containing key (or the first partition at/after it).
  PartitionView Collect(const Slice& key) const;

  size_t num_partitions() const;

 private:
  struct Partition {
    std::string lower;
    std::string upper;
    std::set<uint64_t> memtables;
    std::set<uint64_t> l0_files;
  };

  bool Overlaps(const Partition& p, const std::string& lo,
                const std::string& hi_exclusive,
                bool hi_inclusive_mode) const;

  mutable std::shared_mutex mu_;
  std::vector<Partition> partitions_;  // sorted by lower bound
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_RANGE_INDEX_H_
