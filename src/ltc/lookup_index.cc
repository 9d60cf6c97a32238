#include "ltc/lookup_index.h"

namespace nova {
namespace ltc {
namespace {

size_t HashKey(const Slice& key) {
  // FNV-1a.
  size_t h = 1469598103934665603ull;
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<uint8_t>(key[i]);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

LookupIndex::Shard& LookupIndex::shard(const Slice& key) const {
  return shards_[HashKey(key) % kShards];
}

void LookupIndex::Update(const Slice& key, uint64_t mid, uint64_t seq) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> l(s.mu);
  Slot& slot = s.map[key.ToString()];
  if (seq >= slot.seq) {
    slot.mid = mid;
    slot.seq = seq;
  }
}

bool LookupIndex::Lookup(const Slice& key, uint64_t* mid) const {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.map.find(key.ToString());
  if (it == s.map.end()) {
    return false;
  }
  *mid = it->second.mid;
  return true;
}

bool LookupIndex::LookupWithSeq(const Slice& key, uint64_t* mid,
                                uint64_t* seq) const {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.map.find(key.ToString());
  if (it == s.map.end()) {
    return false;
  }
  *mid = it->second.mid;
  *seq = it->second.seq;
  return true;
}

void LookupIndex::EraseIf(const Slice& key, uint64_t expected_mid) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.map.find(key.ToString());
  if (it != s.map.end() && it->second.mid == expected_mid) {
    s.map.erase(it);
  }
}

void LookupIndex::UpdateIfIn(const Slice& key,
                             const std::set<uint64_t>& old_mids,
                             uint64_t new_mid) {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> l(s.mu);
  auto it = s.map.find(key.ToString());
  if (it != s.map.end() && old_mids.count(it->second.mid)) {
    it->second.mid = new_mid;
  }
}

size_t LookupIndex::size() const {
  size_t total = 0;
  for (int i = 0; i < kShards; i++) {
    std::lock_guard<std::mutex> l(shards_[i].mu);
    total += shards_[i].map.size();
  }
  return total;
}

void MidTable::SetMemtable(uint64_t mid, MemTableRef mem) {
  std::lock_guard<std::mutex> l(mu_);
  Entry& e = map_[mid];
  e.memtable = std::move(mem);
  e.is_file = false;
}

void MidTable::SetFile(uint64_t mid, uint64_t file_number) {
  std::lock_guard<std::mutex> l(mu_);
  Entry& e = map_[mid];
  e.memtable.reset();
  e.file_number = file_number;
  e.is_file = true;
}

bool MidTable::Get(uint64_t mid, Entry* entry) const {
  std::lock_guard<std::mutex> l(mu_);
  auto it = map_.find(mid);
  if (it == map_.end()) {
    return false;
  }
  *entry = it->second;
  return true;
}

void MidTable::Erase(uint64_t mid) {
  std::lock_guard<std::mutex> l(mu_);
  map_.erase(mid);
}

size_t MidTable::size() const {
  std::lock_guard<std::mutex> l(mu_);
  return map_.size();
}

}  // namespace ltc
}  // namespace nova
