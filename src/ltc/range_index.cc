#include "ltc/range_index.h"

#include <algorithm>
#include <mutex>

namespace nova {
namespace ltc {

RangeIndex::RangeIndex(std::string lower, std::string upper) {
  Partition p;
  p.lower = std::move(lower);
  p.upper = std::move(upper);
  partitions_.push_back(std::move(p));
}

bool RangeIndex::Overlaps(const Partition& p, const std::string& lo,
                          const std::string& hi, bool hi_inclusive) const {
  // Partition [p.lower, p.upper) vs [lo, hi) or [lo, hi].
  if (!p.upper.empty() && lo >= p.upper) {
    return false;
  }
  if (!hi.empty()) {
    if (hi_inclusive) {
      if (hi < p.lower) {
        return false;
      }
    } else {
      if (hi <= p.lower) {
        return false;
      }
    }
  }
  return true;
}

void RangeIndex::AddMemtable(uint64_t mid, const std::string& lo,
                             const std::string& hi) {
  std::unique_lock<std::shared_mutex> l(mu_);
  for (auto& p : partitions_) {
    if (Overlaps(p, lo, hi, /*hi_inclusive=*/false)) {
      p.memtables.insert(mid);
    }
  }
}

void RangeIndex::RemoveMemtable(uint64_t mid) {
  std::unique_lock<std::shared_mutex> l(mu_);
  for (auto& p : partitions_) {
    p.memtables.erase(mid);
  }
}

void RangeIndex::AddL0File(uint64_t number, const std::string& lo,
                           const std::string& hi) {
  std::unique_lock<std::shared_mutex> l(mu_);
  for (auto& p : partitions_) {
    if (Overlaps(p, lo, hi, /*hi_inclusive=*/true)) {
      p.l0_files.insert(number);
    }
  }
}

void RangeIndex::RemoveL0File(uint64_t number) {
  std::unique_lock<std::shared_mutex> l(mu_);
  for (auto& p : partitions_) {
    p.l0_files.erase(number);
  }
}

void RangeIndex::SplitAt(const std::string& boundary) {
  std::unique_lock<std::shared_mutex> l(mu_);
  for (size_t i = 0; i < partitions_.size(); i++) {
    Partition& p = partitions_[i];
    bool contains = (p.lower < boundary) &&
                    (p.upper.empty() || boundary < p.upper);
    if (!contains) {
      continue;
    }
    Partition right;
    right.lower = boundary;
    right.upper = p.upper;
    right.memtables = p.memtables;  // both halves inherit (Section 4.1.2)
    right.l0_files = p.l0_files;
    p.upper = boundary;
    partitions_.insert(partitions_.begin() + i + 1, std::move(right));
    return;
  }
}

RangeIndex::PartitionView RangeIndex::Collect(const Slice& key) const {
  std::shared_lock<std::shared_mutex> l(mu_);
  PartitionView view;
  // Binary search for the partition containing key.
  std::string k = key.ToString();
  int lo = 0;
  int hi = static_cast<int>(partitions_.size()) - 1;
  int found = -1;
  while (lo <= hi) {
    int mid = (lo + hi) / 2;
    const Partition& p = partitions_[mid];
    if (!p.upper.empty() && k >= p.upper) {
      lo = mid + 1;
    } else if (k < p.lower) {
      hi = mid - 1;
      found = mid;  // first partition after the key so far
    } else {
      found = mid;
      break;
    }
  }
  if (found < 0) {
    return view;
  }
  const Partition& p = partitions_[found];
  view.valid = true;
  view.lower = p.lower;
  view.upper = p.upper;
  view.memtables.assign(p.memtables.begin(), p.memtables.end());
  view.l0_files.assign(p.l0_files.begin(), p.l0_files.end());
  return view;
}

size_t RangeIndex::num_partitions() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  return partitions_.size();
}

}  // namespace ltc
}  // namespace nova
