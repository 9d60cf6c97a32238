#include "ltc/drange.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/coding.h"

namespace nova {
namespace ltc {

DrangeManager::DrangeManager(std::string lower, std::string upper,
                             const DrangeOptions& options)
    : lower_(std::move(lower)), upper_(std::move(upper)), options_(options) {
  Drange d;
  d.lower = lower_;
  d.upper = upper_;
  d.tranges.push_back(Trange{lower_, upper_, 0});
  dranges_.push_back(std::move(d));
}

bool DrangeManager::KeyInDrange(const Drange& d, const Slice& key) const {
  if (d.dup_group >= 0) {
    // Point Drange: contains exactly its lower key.
    return key.compare(d.lower) == 0;
  }
  if (!d.lower.empty() && key.compare(d.lower) < 0) {
    return false;
  }
  if (!d.upper.empty() && key.compare(d.upper) >= 0) {
    return false;
  }
  return true;
}

int DrangeManager::FindDrangeLocked(const Slice& key) const {
  // Dranges are kept sorted by lower bound; duplicated point-Dranges sit
  // adjacent. Linear probe from a binary-searched start (θ is small).
  for (size_t i = 0; i < dranges_.size(); i++) {
    if (KeyInDrange(dranges_[i], key)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int DrangeManager::RouteWrite(const Slice& key) {
  std::unique_lock<std::shared_mutex> l(mu_);
  int idx = FindDrangeLocked(key);
  if (idx < 0) {
    return -1;
  }
  // A duplicated point key may land on any member of its group; this is
  // what spreads synchronization load over several memtables.
  if (dranges_[idx].dup_group >= 0) {
    std::vector<int> members;
    for (size_t i = 0; i < dranges_.size(); i++) {
      if (dranges_[i].dup_group == dranges_[idx].dup_group) {
        members.push_back(static_cast<int>(i));
      }
    }
    idx = members[rng_.Uniform(members.size())];
  }
  Drange& d = dranges_[idx];
  d.writes++;
  for (auto& t : d.tranges) {
    if ((t.lower.empty() || key.compare(t.lower) >= 0) &&
        (t.upper.empty() || key.compare(t.upper) < 0)) {
      t.writes++;
      break;
    }
  }
  total_writes_++;
  if (++sample_counter_ % options_.sample_rate == 0) {
    if (reservoir_.size() < options_.reservoir_size) {
      reservoir_.push_back(key.ToString());
    } else {
      reservoir_[rng_.Uniform(reservoir_.size())] = key.ToString();
    }
  }
  return idx;
}

int DrangeManager::num_dranges() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  return static_cast<int>(dranges_.size());
}

std::pair<std::string, std::string> DrangeManager::DrangeBounds(int i) const {
  std::shared_lock<std::shared_mutex> l(mu_);
  if (i < 0 || i >= static_cast<int>(dranges_.size())) {
    return {"", ""};
  }
  return {dranges_[i].lower, dranges_[i].upper};
}

double DrangeManager::MaxShareLocked(int* hot_index) const {
  if (total_writes_ == 0) {
    if (hot_index) *hot_index = -1;
    return 0;
  }
  double max_share = 0;
  int hot = -1;
  for (size_t i = 0; i < dranges_.size(); i++) {
    double share = static_cast<double>(dranges_[i].writes) /
                   static_cast<double>(total_writes_);
    if (share > max_share) {
      max_share = share;
      hot = static_cast<int>(i);
    }
  }
  if (hot_index) *hot_index = hot;
  return max_share;
}

bool DrangeManager::NeedsReorg() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  if (frozen_ || total_writes_ < options_.warmup_writes) {
    return false;
  }
  if (major_reorgs_.load() == 0) {
    return true;  // still needs its initial major reorganization
  }
  double target = 1.0 / options_.theta;
  return MaxShareLocked(nullptr) > target + options_.epsilon;
}

std::vector<int> DrangeManager::MaybeReorg() {
  std::unique_lock<std::shared_mutex> l(mu_);
  std::vector<int> changed;
  if (frozen_ || total_writes_ < options_.warmup_writes) {
    return changed;
  }
  double target = 1.0 / options_.theta;
  int hot = -1;
  double max_share = MaxShareLocked(&hot);

  if (major_reorgs_.load() == 0) {
    MajorReorgLocked(&changed);
  } else if (max_share > target * options_.major_factor) {
    MajorReorgLocked(&changed);
  } else if (max_share > target + options_.epsilon && hot >= 0) {
    MinorReorgLocked(hot, &changed);
  }
  if (!changed.empty() && options_.static_after_first_major &&
      major_reorgs_.load() > 0) {
    frozen_ = true;
  }
  return changed;
}

void DrangeManager::MinorReorgLocked(int hot, std::vector<int>* changed) {
  Drange& d = dranges_[hot];
  if (d.dup_group >= 0 || d.tranges.size() <= 1) {
    // A point Drange or single-Trange Drange cannot shed Tranges; a major
    // reorg (duplication) is the only remedy.
    MajorReorgLocked(changed);
    return;
  }
  // Move the colder edge Trange to the matching neighbor (Definition 4.3).
  bool move_first = d.tranges.front().writes <= d.tranges.back().writes;
  if (hot == 0) {
    move_first = false;
  }
  if (hot == static_cast<int>(dranges_.size()) - 1) {
    move_first = true;
  }
  if (move_first && hot > 0 && dranges_[hot - 1].dup_group < 0) {
    Trange t = d.tranges.front();
    d.tranges.erase(d.tranges.begin());
    d.writes -= t.writes;
    d.lower = d.tranges.front().lower;
    Drange& left = dranges_[hot - 1];
    left.upper = t.upper;
    left.writes += t.writes;
    left.tranges.push_back(std::move(t));
    changed->push_back(hot - 1);
    changed->push_back(hot);
    minor_reorgs_.fetch_add(1);
  } else if (!move_first && hot + 1 < static_cast<int>(dranges_.size()) &&
             dranges_[hot + 1].dup_group < 0) {
    Trange t = d.tranges.back();
    d.tranges.pop_back();
    d.writes -= t.writes;
    d.upper = d.tranges.back().upper;
    Drange& right = dranges_[hot + 1];
    right.lower = t.lower;
    right.writes += t.writes;
    right.tranges.insert(right.tranges.begin(), std::move(t));
    changed->push_back(hot);
    changed->push_back(hot + 1);
    minor_reorgs_.fetch_add(1);
  } else {
    MajorReorgLocked(changed);
  }
}

void DrangeManager::MajorReorgLocked(std::vector<int>* changed) {
  if (reservoir_.empty()) {
    return;
  }
  // Build a frequency histogram from the reservoir (Definition 4.4).
  std::map<std::string, uint64_t> freq;
  for (const auto& k : reservoir_) {
    freq[k]++;
  }
  uint64_t total = reservoir_.size();
  double target = static_cast<double>(total) / options_.theta;

  std::vector<Drange> next;
  std::string cursor = lower_;
  double acc = 0;
  int dup_groups = 0;
  auto it = freq.begin();
  std::vector<std::pair<std::string, uint64_t>> bucket;  // keys in progress

  auto flush_bucket = [&](const std::string& upper) {
    Drange d;
    d.lower = cursor;
    d.upper = upper;
    // γ Tranges: quantiles of the bucket's keys.
    size_t per = std::max<size_t>(1, bucket.size() / options_.gamma);
    std::string tlo = cursor;
    for (size_t i = 0; i < bucket.size(); i += per) {
      size_t end = std::min(bucket.size(), i + per);
      std::string thi = end == bucket.size() ? upper : bucket[end].first;
      d.tranges.push_back(Trange{tlo, thi, 0});
      tlo = thi;
      if (static_cast<int>(d.tranges.size()) == options_.gamma - 1 &&
          end < bucket.size()) {
        d.tranges.push_back(Trange{tlo, upper, 0});
        break;
      }
    }
    if (d.tranges.empty()) {
      d.tranges.push_back(Trange{cursor, upper, 0});
    } else {
      d.tranges.back().upper = upper;
    }
    next.push_back(std::move(d));
    cursor = upper;
    bucket.clear();
    acc = 0;
  };

  while (it != freq.end()) {
    const std::string& key = it->first;
    uint64_t count = it->second;
    if (static_cast<double>(count) >= 2.0 * target) {
      // A single key hotter than two Dranges' worth: close the current
      // bucket (covering [cursor, key)), then emit duplicated
      // point-Dranges for it (Section 4.1: "[0,0] is duplicated ...
      // twice the average").
      if (cursor != key) {
        flush_bucket(key);
      }
      int copies = std::max(
          2, static_cast<int>(static_cast<double>(count) / target));
      // The point Drange [key, key]: successor string as exclusive upper.
      std::string upper_key = key + std::string(1, '\0');
      for (int c = 0; c < copies; c++) {
        Drange d;
        d.lower = key;
        d.upper = upper_key;
        d.dup_group = dup_groups;
        d.tranges.push_back(Trange{key, upper_key, 0});
        next.push_back(std::move(d));
      }
      dup_groups++;
      cursor = upper_key;
      ++it;
      continue;
    }
    bucket.emplace_back(key, count);
    acc += static_cast<double>(count);
    ++it;
    if (acc >= target && it != freq.end()) {
      flush_bucket(it->first);
    }
  }
  if (upper_.empty() || cursor != upper_) {
    flush_bucket(upper_);  // cover the tail of the keyspace
  }

  dranges_ = std::move(next);
  total_writes_ = 0;
  for (auto& d : dranges_) {
    d.writes = 0;
  }
  major_reorgs_.fetch_add(1);
  changed->clear();
  for (size_t i = 0; i < dranges_.size(); i++) {
    changed->push_back(static_cast<int>(i));
  }
}

std::vector<std::string> DrangeManager::Boundaries() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  std::vector<std::string> bounds;
  for (size_t i = 0; i + 1 < dranges_.size(); i++) {
    if (!dranges_[i].upper.empty() &&
        (bounds.empty() || bounds.back() != dranges_[i].upper)) {
      bounds.push_back(dranges_[i].upper);
    }
  }
  return bounds;
}

double DrangeManager::LoadImbalance() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  if (total_writes_ == 0 || dranges_.empty()) {
    return 0;
  }
  // Duplicated groups count as one logical Drange.
  std::map<int, uint64_t> group_writes;
  int next_virtual = -2;
  for (const auto& d : dranges_) {
    int key = d.dup_group >= 0 ? d.dup_group + (1 << 20) : next_virtual--;
    group_writes[key] += d.writes;
  }
  double n = static_cast<double>(group_writes.size());
  double mean = 1.0 / n;
  double var = 0;
  for (const auto& [g, w] : group_writes) {
    double share = static_cast<double>(w) / total_writes_;
    var += (share - mean) * (share - mean);
  }
  return std::sqrt(var / n);
}

int DrangeManager::num_duplicated_dranges() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  int n = 0;
  for (const auto& d : dranges_) {
    if (d.dup_group >= 0) {
      n++;
    }
  }
  return n;
}

std::string DrangeManager::Serialize() const {
  std::shared_lock<std::shared_mutex> l(mu_);
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(dranges_.size()));
  for (const auto& d : dranges_) {
    PutLengthPrefixedSlice(&out, d.lower);
    PutLengthPrefixedSlice(&out, d.upper);
    PutVarint32(&out, static_cast<uint32_t>(d.dup_group + 1));
    PutVarint32(&out, static_cast<uint32_t>(d.tranges.size()));
    for (const auto& t : d.tranges) {
      PutLengthPrefixedSlice(&out, t.lower);
      PutLengthPrefixedSlice(&out, t.upper);
    }
  }
  return out;
}

bool DrangeManager::Deserialize(const Slice& input) {
  Slice in = input;
  uint32_t n;
  if (!GetVarint32(&in, &n) || n == 0) {
    return false;
  }
  std::vector<Drange> next;
  for (uint32_t i = 0; i < n; i++) {
    Drange d;
    Slice lo, hi;
    uint32_t dup, nt;
    if (!GetLengthPrefixedSlice(&in, &lo) ||
        !GetLengthPrefixedSlice(&in, &hi) || !GetVarint32(&in, &dup) ||
        !GetVarint32(&in, &nt)) {
      return false;
    }
    d.lower = lo.ToString();
    d.upper = hi.ToString();
    d.dup_group = static_cast<int>(dup) - 1;
    for (uint32_t t = 0; t < nt; t++) {
      Slice tlo, thi;
      if (!GetLengthPrefixedSlice(&in, &tlo) ||
          !GetLengthPrefixedSlice(&in, &thi)) {
        return false;
      }
      d.tranges.push_back(Trange{tlo.ToString(), thi.ToString(), 0});
    }
    next.push_back(std::move(d));
  }
  std::unique_lock<std::shared_mutex> l(mu_);
  dranges_ = std::move(next);
  total_writes_ = 0;
  return true;
}

}  // namespace ltc
}  // namespace nova
