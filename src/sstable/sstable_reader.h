// Reads one SSTable through a BlockFetcher. The metadata (index + bloom)
// is memory-resident — the LTC caches it (paper Section 4.1.1) — and data
// blocks are optionally served from a shared charge-based LRU block cache
// (keyed by range/file number/block offset), so a warm get costs no
// fragment fetch at all; a cold get costs one, and none when the bloom
// filter rules the key out. An iterator's data-block miss costs one
// fetch, which for a scan that says how many rows it still wants also
// covers the adjacent blocks those rows may need (see IteratorOptions).
#ifndef NOVA_SSTABLE_SSTABLE_READER_H_
#define NOVA_SSTABLE_SSTABLE_READER_H_

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>

#include "mem/dbformat.h"
#include "sstable/block.h"
#include "sstable/format.h"
#include "util/cache.h"
#include "util/iterator.h"

namespace nova {

/// Cache key for one data block: range id, file number, global offset.
/// TableCache's reader entries use the 12-byte (range, file) prefix of the
/// same layout, so EraseWithPrefix(BlockCachePrefix(...)) invalidates a
/// dead file's reader and every cached block in one sweep.
std::string BlockCachePrefix(uint32_t range_id, uint64_t file_number);
std::string BlockCacheKey(uint32_t range_id, uint64_t file_number,
                          uint64_t offset);

/// Iterator block accounting. Scans share one instance per range, which
/// the RangeEngine rolls into RangeStats; a compaction passes job-private
/// counters so its reads stay out of the scan stats.
struct ReadaheadCounters {
  /// Run blocks fetched ahead of the block that missed, and those of them
  /// the iterator then reached and took from its run.
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> hits{0};
  /// Data blocks the iterator materialized, from any source, and their
  /// stored sizes.
  std::atomic<uint64_t> blocks{0};
  std::atomic<uint64_t> bytes{0};
};

/// IteratorOptions::rows for an iterator that reads every row of its table.
constexpr int kAllRows = std::numeric_limits<int>::max();

/// How one SSTable iterator reads its data blocks.
struct IteratorOptions {
  /// false serves hits from the cache tiers but leaves misses uncached:
  /// compactions stream every block once and must not flush the working
  /// set (nor cache blocks of files they are about to delete).
  bool fill_cache = true;
  /// Rows the caller still wants from this iterator (0 = not known). A
  /// data-block miss fetches the missed block together with the adjacent
  /// uncached blocks of its fragment that this many rows may need, in one
  /// read; 0 fetches the missed block alone. Sweeps over a whole table
  /// pass kAllRows, so each miss fetches the rest of its fragment. See
  /// docs/block_format.md.
  int rows = 0;
  /// Optional sink for the accounting above; must outlive the iterator.
  ReadaheadCounters* counters = nullptr;
};

class SSTableReader {
 public:
  /// fetcher must outlive the reader and any iterator it creates.
  /// block_cache (optional, shared across readers and ranges; keyed by
  /// range_id so per-range file numbers cannot collide) serves repeated
  /// data-block reads from LTC memory instead of StoC round-trips; it must
  /// outlive the reader and any iterator. With a null cache every
  /// ReadBlock fetches from the StoC.
  /// compressed_cache (optional): the compressed block tier. Misses in
  /// block_cache that hit here decompress in LTC memory instead of
  /// costing a StoC round-trip; network fills land in both tiers, so a
  /// block evicted from the small hot tier "falls back" to its compressed
  /// copy rather than being lost.
  SSTableReader(SSTableMetadata meta, BlockFetcher* fetcher,
                Cache* block_cache = nullptr, uint32_t range_id = 0,
                Cache* compressed_cache = nullptr);

  /// True if the bloom filter admits the key (or there is no filter).
  bool KeyMayMatch(const Slice& user_key) const;

  /// Same contract as MemTable::Get: returns true if this table has an
  /// entry (value or tombstone) for the key at/before the snapshot. *seq
  /// (optional) receives the matched entry's sequence number.
  bool Get(const LookupKey& lookup_key, std::string* value, Status* s,
           SequenceNumber* seq = nullptr);

  /// Iterator over all internal keys in the table; scans and compaction
  /// inputs both read through it. Blocks it reads enter the cache tiers
  /// cold (see ReadBlock).
  Iterator* NewIterator(const IteratorOptions& options = {}) const;

  /// Fetch (or serve from a cache tier) the data block at handle: the
  /// point-get path, LookupBlock and then FetchStored + InstallBlock. The
  /// returned shared_ptr pins the cached entry, so a block stays usable
  /// while iterators hold it even if the cache evicts it concurrently.
  /// pri: cache admission class — point gets default to kHot; iterators
  /// pass kCold so a scan or compaction cannot evict the get working set.
  Status ReadBlock(const BlockHandle& handle, std::shared_ptr<Block>* block,
                   bool fill_cache = true,
                   Cache::Priority pri = Cache::Priority::kHot) const;

  /// --- The pieces of ReadBlock (the iterator also uses them) ---

  /// Serve the block from the hot tier, or decode it from the compressed
  /// tier, counting one lookup in each tier asked (unless !fill_cache).
  /// False when neither tier holds it.
  bool LookupBlock(const BlockHandle& handle, std::shared_ptr<Block>* block,
                   bool fill_cache, Cache::Priority pri) const;
  /// Whether either tier holds the block at offset; counts nothing and
  /// promotes nothing.
  bool IsCached(uint64_t offset) const;
  /// The miss path: fetch `size` stored bytes starting at data offset
  /// `offset` in one read. The range must lie inside one fragment.
  Status FetchStored(uint64_t offset, uint64_t size,
                     std::string* stored) const;
  /// Verify and decode one stored block (crc before decompression) and
  /// install it into the cache tiers (uncompressed into the hot tier under
  /// pri, the stored bytes into the compressed tier) when fill_cache, or
  /// hand back a private block.
  Status InstallBlock(std::string stored, uint64_t offset, uint64_t size,
                      bool fill_cache, Cache::Priority pri,
                      std::shared_ptr<Block>* block) const;

  const SSTableMetadata& meta() const { return meta_; }

 private:
  /// The index block is materialized lazily so a bloom-rejected Get never
  /// touches (or allocates) it — bloom-before-index on the read path.
  Block* index_block() const;
  /// Insert an already-decoded block into the hot tier (or wrap it
  /// privately when uncached) and hand back the pin.
  std::shared_ptr<Block> InstallHot(std::string raw, uint64_t offset,
                                    bool fill_cache,
                                    Cache::Priority pri) const;

  SSTableMetadata meta_;
  BlockFetcher* fetcher_;
  Cache* block_cache_;
  Cache* compressed_cache_;
  uint32_t range_id_;
  InternalKeyComparator icmp_;
  mutable std::once_flag index_once_;
  mutable std::unique_ptr<Block> index_block_;
};

}  // namespace nova

#endif  // NOVA_SSTABLE_SSTABLE_READER_H_
