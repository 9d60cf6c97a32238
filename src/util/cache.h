// Charge-based sharded LRU cache (LevelDB-lineage design). Entries are
// arbitrary void* values with an explicit charge; the cache holds at most
// `capacity` total charge per instance, sharded by key hash so concurrent
// lookups on different keys rarely contend on the same mutex. Handles act
// as pins: an entry returned by Lookup/Insert stays alive — even if it is
// evicted or erased concurrently — until every handle to it is Released,
// so in-flight iterators survive capacity thrash and file invalidation.
//
// Admission is scan-resistant (two-queue, RocksDB-midpoint-style): each
// shard keeps two eviction queues. kHot accesses (point gets, reader
// entries) live in the hot queue, capped at hot_fraction of capacity;
// kCold admissions (scans, compactions, streaming) enter the cold queue,
// which is evicted first — so a scan sweeping the file set can only ever
// displace other cold blocks, never the point-get working set. A cold
// entry touched again by a kHot access is promoted; hot overflow demotes
// the oldest hot entries to the cold queue's MRU end (the "midpoint")
// instead of dropping them. hot_fraction >= 1 disables the split —
// classic single-queue LRU, kept as the bench baseline.
//
// The LTC uses one instance per node as the uncompressed (hot-tier)
// data-block cache for the StoC read path plus the backing store for
// TableCache's open readers, and optionally a second instance as the
// compressed block tier (see docs/block_format.md); the baseline and
// tests use private instances.
#ifndef NOVA_UTIL_CACHE_H_
#define NOVA_UTIL_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/slice.h"

namespace nova {

class Cache {
 public:
  virtual ~Cache() = default;

  /// Opaque pin on a cache entry.
  struct Handle {};

  /// Access/admission class for the two-queue policy. kHot is the default
  /// everywhere so callers that never heard of scans behave as before;
  /// scans, compactions and other streaming reads pass kCold.
  enum class Priority { kHot, kCold };

  /// Insert key -> value with the given charge against capacity. The
  /// returned handle pins the entry and must be Released. When the entry
  /// leaves the cache for good, deleter(key, value) reclaims the value
  /// (possibly long after eviction, once the last pin drops).
  /// pri=kCold admits into the cold queue (evicted first; cannot displace
  /// hot entries).
  virtual Handle* Insert(const Slice& key, void* value, size_t charge,
                         void (*deleter)(const Slice& key, void* value),
                         Priority pri = Priority::kHot) = 0;

  /// nullptr on miss; otherwise a pin that must be Released. count=false
  /// leaves the hit/miss counters alone (reader-entry lookups, so the
  /// reported stats reflect data-block traffic only). A kHot lookup that
  /// hits a cold-queue entry promotes it (the two-queue "second access"
  /// rule); a kCold lookup never promotes, so a scan re-reading blocks it
  /// admitted itself cannot smuggle them into the hot queue.
  virtual Handle* Lookup(const Slice& key, bool count = true,
                         Priority pri = Priority::kHot) = 0;

  virtual void Release(Handle* handle) = 0;
  virtual void* Value(Handle* handle) = 0;

  /// Remove the entry (pinned readers keep their pins; later lookups miss).
  virtual void Erase(const Slice& key) = 0;

  /// Remove every entry whose key starts with prefix — file invalidation:
  /// one SSTable's reader and data blocks share a key prefix, so evicting
  /// a compacted-away file is one call.
  virtual void EraseWithPrefix(const Slice& prefix) = 0;

  /// Remove every entry whose key satisfies match. One full sweep of the
  /// cache, whatever the number of victims — batch invalidation (e.g.,
  /// all of a compaction's dead files at once) costs the same as one
  /// EraseWithPrefix, not one sweep per file.
  virtual void EraseMatching(const std::function<bool(const Slice&)>& match)
      = 0;

  /// Total charge of resident entries (pinned entries included).
  virtual size_t TotalCharge() const = 0;
  virtual size_t capacity() const = 0;

  /// Lifetime lookup counters (benchmark hit-rate reporting).
  virtual uint64_t hits() const = 0;
  virtual uint64_t misses() const = 0;
};

/// A Cache with 2^shard_bits independently locked LRU shards.
/// hot_fraction caps the hot queue's share of each shard's capacity
/// (overflow demotes to the cold queue's MRU end); >= 1 disables the
/// two-queue split entirely — classic LRU, priorities ignored.
Cache* NewShardedLRUCache(size_t capacity, int shard_bits = 4,
                          double hot_fraction = 0.75);

}  // namespace nova

#endif  // NOVA_UTIL_CACHE_H_
