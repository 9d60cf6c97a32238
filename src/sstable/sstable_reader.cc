#include "sstable/sstable_reader.h"

#include "sstable/bloom.h"
#include "util/coding.h"

namespace nova {

namespace {

void DeleteCachedBlock(const Slice& /*key*/, void* value) {
  delete static_cast<Block*>(value);
}

void DeleteCachedStoredBytes(const Slice& /*key*/, void* value) {
  delete static_cast<std::string*>(value);
}

/// A shared_ptr that releases the cache pin (not the block) when dropped;
/// the cache's deleter frees the block once it is evicted and unpinned.
std::shared_ptr<Block> PinnedBlock(Cache* cache, Cache::Handle* handle) {
  Block* block = static_cast<Block*>(cache->Value(handle));
  return std::shared_ptr<Block>(
      block, [cache, handle](Block*) { cache->Release(handle); });
}

}  // namespace

std::string BlockCachePrefix(uint32_t range_id, uint64_t file_number) {
  std::string key;
  PutFixed32(&key, range_id);
  PutFixed64(&key, file_number);
  return key;
}

std::string BlockCacheKey(uint32_t range_id, uint64_t file_number,
                          uint64_t offset) {
  std::string key = BlockCachePrefix(range_id, file_number);
  PutFixed64(&key, offset);
  return key;
}

SSTableReader::SSTableReader(SSTableMetadata meta, BlockFetcher* fetcher,
                             Cache* block_cache, uint32_t range_id,
                             Cache* compressed_cache)
    : meta_(std::move(meta)),
      fetcher_(fetcher),
      block_cache_(block_cache),
      compressed_cache_(compressed_cache),
      range_id_(range_id) {}

Block* SSTableReader::index_block() const {
  std::call_once(index_once_, [this] {
    index_block_ = std::make_unique<Block>(meta_.index_contents);
  });
  return index_block_.get();
}

bool SSTableReader::KeyMayMatch(const Slice& user_key) const {
  if (meta_.bloom.empty()) {
    return true;
  }
  return BloomFilter::KeyMayMatch(user_key, meta_.bloom);
}

Status SSTableReader::ReadBlock(const BlockHandle& handle,
                                std::shared_ptr<Block>* block,
                                bool fill_cache,
                                Cache::Priority pri) const {
  if (LookupBlock(handle, block, fill_cache, pri)) {
    return Status::OK();
  }
  std::string stored;
  Status s = FetchStored(handle.offset, handle.size, &stored);
  if (!s.ok()) {
    return s;
  }
  return InstallBlock(std::move(stored), handle.offset, handle.size,
                      fill_cache, pri, block);
}

bool SSTableReader::LookupBlock(const BlockHandle& handle,
                                std::shared_ptr<Block>* block,
                                bool fill_cache, Cache::Priority pri) const {
  std::string cache_key;
  if (block_cache_ != nullptr || compressed_cache_ != nullptr) {
    cache_key = BlockCacheKey(range_id_, meta_.file_number, handle.offset);
  }
  if (block_cache_ != nullptr) {
    // Compaction streams (fill_cache=false) stay out of the hit/miss
    // stats: they are one-shot reads, not read-path traffic.
    Cache::Handle* h =
        block_cache_->Lookup(cache_key, /*count=*/fill_cache, pri);
    if (h != nullptr) {
      *block = PinnedBlock(block_cache_, h);
      return true;
    }
  }
  if (compressed_cache_ != nullptr) {
    // Hot-tier miss, compressed-tier hit: decompress in place — no StoC
    // round-trip. The decoded block is (re)installed into the hot tier;
    // the compressed copy stays resident until its own LRU retires it.
    Cache::Handle* ch =
        compressed_cache_->Lookup(cache_key, /*count=*/fill_cache, pri);
    if (ch != nullptr) {
      const auto* stored =
          static_cast<const std::string*>(compressed_cache_->Value(ch));
      std::string raw;
      Status ds = DecodeBlock(*stored, &raw);
      compressed_cache_->Release(ch);
      if (ds.ok()) {
        *block = InstallHot(std::move(raw), handle.offset, fill_cache, pri);
        return true;
      }
      // A poisoned tier entry (should not happen — inserts were verified)
      // is dropped and the block refetched rather than surfaced.
      compressed_cache_->Erase(cache_key);
    }
  }
  return false;
}

bool SSTableReader::IsCached(uint64_t offset) const {
  // kCold lookups so probing cannot promote scan blocks into the hot set.
  for (Cache* cache : {block_cache_, compressed_cache_}) {
    if (cache == nullptr) {
      continue;
    }
    Cache::Handle* h =
        cache->Lookup(BlockCacheKey(range_id_, meta_.file_number, offset),
                      /*count=*/false, Cache::Priority::kCold);
    if (h != nullptr) {
      cache->Release(h);
      return true;
    }
  }
  return false;
}

Status SSTableReader::FetchStored(uint64_t offset, uint64_t size,
                                  std::string* stored) const {
  int fragment;
  uint64_t local_offset;
  if (!meta_.Locate(offset, &fragment, &local_offset)) {
    return Status::Corruption("block offset outside fragment map");
  }
  if (size > meta_.fragment_sizes[fragment] - local_offset) {
    return Status::Corruption("block range crosses a fragment boundary");
  }
  // Which replica serves this range is the fetcher's call (power-of-d
  // plus hedging over the StoC client); the reader only names the
  // fragment-relative range. See BlockFetcher in sstable/format.h.
  return fetcher_->Fetch(fragment, local_offset, size, stored);
}

std::shared_ptr<Block> SSTableReader::InstallHot(std::string raw,
                                                 uint64_t offset,
                                                 bool fill_cache,
                                                 Cache::Priority pri) const {
  if (block_cache_ != nullptr && fill_cache) {
    auto* b = new Block(std::move(raw));
    Cache::Handle* h = block_cache_->Insert(
        BlockCacheKey(range_id_, meta_.file_number, offset), b,
        b->size() + sizeof(Block), &DeleteCachedBlock, pri);
    return PinnedBlock(block_cache_, h);
  }
  return std::make_shared<Block>(std::move(raw));
}

Status SSTableReader::InstallBlock(std::string stored, uint64_t offset,
                                   uint64_t size, bool fill_cache,
                                   Cache::Priority pri,
                                   std::shared_ptr<Block>* block) const {
  if (stored.size() != size) {
    return Status::Corruption("short block read");
  }
  std::string raw;
  // crc is checked before the codec ever runs; see DecodeBlock.
  Status s = DecodeBlock(stored, &raw);
  if (!s.ok()) {
    return s;
  }
  if (compressed_cache_ != nullptr && fill_cache) {
    // Both tiers are filled on a network read, so eviction from the small
    // hot tier demotes to the compressed copy instead of dropping the
    // block (RocksDB-style).
    auto* copy = new std::string(std::move(stored));
    size_t charge = copy->size() + sizeof(std::string);
    compressed_cache_->Release(compressed_cache_->Insert(
        BlockCacheKey(range_id_, meta_.file_number, offset), copy, charge,
        &DeleteCachedStoredBytes, pri));
  }
  *block = InstallHot(std::move(raw), offset, fill_cache, pri);
  return Status::OK();
}

bool SSTableReader::Get(const LookupKey& lookup_key, std::string* value,
                        Status* s, SequenceNumber* seq) {
  // Bloom before index: a rejected key never materializes or seeks the
  // index block (ROADMAP read-path follow-on).
  if (!KeyMayMatch(lookup_key.user_key())) {
    return false;
  }
  std::unique_ptr<Iterator> index_iter(index_block()->NewIterator(&icmp_));
  index_iter->Seek(lookup_key.internal_key());
  if (!index_iter->Valid()) {
    return false;
  }
  BlockHandle handle;
  Slice handle_contents = index_iter->value();
  Status hs = handle.DecodeFrom(&handle_contents);
  if (!hs.ok()) {
    *s = hs;
    return true;  // surfaced as an error, not silently missing
  }
  std::shared_ptr<Block> block;
  Status bs = ReadBlock(handle, &block);
  if (!bs.ok()) {
    *s = bs;
    return true;
  }
  std::unique_ptr<Iterator> block_iter(block->NewIterator(&icmp_));
  block_iter->Seek(lookup_key.internal_key());
  if (!block_iter->Valid()) {
    return false;
  }
  ParsedInternalKey parsed;
  if (!ParseInternalKey(block_iter->key(), &parsed)) {
    *s = Status::Corruption("bad internal key in sstable");
    return true;
  }
  if (parsed.user_key != lookup_key.user_key()) {
    return false;
  }
  if (seq != nullptr) {
    *seq = parsed.sequence;
  }
  if (parsed.type == kTypeDeletion) {
    *s = Status::NotFound(Slice());
    return true;
  }
  value->assign(block_iter->value().data(), block_iter->value().size());
  *s = Status::OK();
  return true;
}

namespace {

/// Two-level iterator: walks the index block; materializes one data block
/// at a time through the reader (which consults the cache tiers first).
///
/// A miss reads a *run*: the missed block plus the adjacent uncached
/// blocks after it in the same fragment that the caller's remaining rows
/// may need (IteratorOptions::rows), in one fetch. Only the missed block
/// is installed at once. The others wait in run_ as stored bytes until the
/// iterator reaches them, and then take the same path as any block: the
/// tier lookups (so hit/miss counts stay one per materialized block), the
/// crc check and decode, and the cold install. Blocks it never reaches
/// are dropped with the iterator.
///
/// A Seek at or before the table's first key stands on meta().smallest
/// without reading a block; value() or a move reads it. A merge that
/// fills its rows before this table becomes current never reads it.
class SSTableIterator : public Iterator {
 public:
  SSTableIterator(const SSTableReader* reader,
                  const InternalKeyComparator* icmp, Iterator* index_iter,
                  Iterator* peek_iter, const IteratorOptions& options)
      : reader_(reader),
        icmp_(icmp),
        index_iter_(index_iter),
        peek_iter_(peek_iter),
        options_(options),
        counters_(options.counters != nullptr ? options.counters
                                              : &uncounted_) {}

  bool Valid() const override {
    return deferred_ || (block_iter_ != nullptr && block_iter_->Valid());
  }

  void SeekToFirst() override {
    Reposition(/*forward=*/true);
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (block_iter_) {
      block_iter_->SeekToFirst();
    }
    SkipEmptyBlocksForward();
  }

  void SeekToLast() override {
    Reposition(/*forward=*/false);
    index_iter_->SeekToLast();
    InitDataBlock();
    if (block_iter_) {
      block_iter_->SeekToLast();
    }
    SkipEmptyBlocksBackward();
  }

  void Seek(const Slice& target) override {
    Reposition(/*forward=*/true);
    const InternalKey& first = reader_->meta().smallest;
    if (!first.empty() && icmp_->Compare(target, first.Encode()) <= 0) {
      // The entry Seek would land on is the table's first; defer its read.
      index_iter_->SeekToFirst();
      deferred_ = index_iter_->Valid();
      return;
    }
    index_iter_->Seek(target);
    InitDataBlock();
    if (block_iter_) {
      block_iter_->Seek(target);
    }
    SkipEmptyBlocksForward();
  }

  void Next() override {
    forward_ = true;
    if (!ReadDeferred()) {
      return;
    }
    rows_passed_++;
    block_iter_->Next();
    SkipEmptyBlocksForward();
  }

  void Prev() override {
    forward_ = false;
    if (!ReadDeferred()) {
      return;
    }
    block_iter_->Prev();
    SkipEmptyBlocksBackward();
  }

  Slice key() const override {
    return deferred_ ? reader_->meta().smallest.Encode() : block_iter_->key();
  }

  Slice value() const override {
    // The one accessor that may read: the block a deferred Seek skipped.
    if (!const_cast<SSTableIterator*>(this)->ReadDeferred()) {
      return Slice();
    }
    return block_iter_->value();
  }

  Status status() const override { return status_; }

 private:
  void Reposition(bool forward) {
    forward_ = forward;
    deferred_ = false;
    rows_passed_ = 0;
  }

  /// Read the first block a deferred Seek skipped; returns Valid(). A
  /// failed read leaves the iterator invalid, with the error in status_,
  /// rather than moving on: a merge has already ordered this table by
  /// key() and may be about to take value().
  bool ReadDeferred() {
    if (deferred_) {
      deferred_ = false;
      InitDataBlock();
      if (block_iter_ == nullptr) {
        return false;
      }
      block_iter_->SeekToFirst();
      SkipEmptyBlocksForward();
    }
    return Valid();
  }

  void InitDataBlock() {
    block_iter_.reset();
    block_.reset();
    if (!index_iter_->Valid()) {
      return;
    }
    BlockHandle handle;
    Slice handle_contents = index_iter_->value();
    Status s = handle.DecodeFrom(&handle_contents);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    s = MaterializeBlock(handle);
    if (!s.ok()) {
      status_ = s;
      return;
    }
    block_iter_.reset(block_->NewIterator(icmp_));
    counters_->blocks.fetch_add(1, std::memory_order_relaxed);
    counters_->bytes.fetch_add(handle.size, std::memory_order_relaxed);
  }

  /// Serve the block from the cache tiers, else from the current run, else
  /// by fetching a new run that starts with it.
  Status MaterializeBlock(const BlockHandle& handle) {
    // Iterators admit cold: a scan or compaction sweep stays in the cold
    // queue and cannot evict the point-get working set (see
    // Cache::Priority).
    if (reader_->LookupBlock(handle, &block_, options_.fill_cache,
                             Cache::Priority::kCold)) {
      return Status::OK();
    }
    std::string stored;
    if (RunHolds(handle.offset)) {
      stored = run_.substr(handle.offset - run_offset_, handle.size);
      counters_->hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      // The fetch keeps replica failover and parity reconstruction.
      uint64_t blocks_ahead = 0;
      uint64_t size = RunSize(handle, &blocks_ahead);
      Status s = reader_->FetchStored(handle.offset, size, &stored);
      if (s.ok() && stored.size() != size) {
        s = Status::Corruption("short block read");
      }
      if (!s.ok()) {
        return s;
      }
      counters_->issued.fetch_add(blocks_ahead, std::memory_order_relaxed);
      run_offset_ = handle.offset + handle.size;
      run_ = stored.substr(handle.size);
      stored.resize(handle.size);
    }
    return reader_->InstallBlock(std::move(stored), handle.offset,
                                 handle.size, options_.fill_cache,
                                 Cache::Priority::kCold, &block_);
  }

  /// Whether run_ holds the block starting at offset. Runs end on block
  /// boundaries, so a block that starts inside one ends inside it too.
  bool RunHolds(uint64_t offset) const {
    return offset >= run_offset_ && offset - run_offset_ < run_.size();
  }

  /// Bytes to fetch on a miss at handle (index_iter_'s entry): the block,
  /// then the adjacent blocks after it while they lie in its fragment, no
  /// cache tier holds them, and the rows still wanted may reach them. The
  /// missed block holds at least one wanted row, so the blocks after it
  /// need cover at most rows - 1 rows of the table's average stored row
  /// size. *blocks_ahead receives the number of blocks after the missed
  /// one.
  uint64_t RunSize(const BlockHandle& handle, uint64_t* blocks_ahead) {
    const SSTableMetadata& meta = reader_->meta();
    const uint64_t rows = options_.rows > 0 ? options_.rows : 0;
    const uint64_t wanted = rows > rows_passed_ ? rows - rows_passed_ : 0;
    int fragment;
    uint64_t local_offset;
    if (!forward_ || wanted <= 1 || meta.num_entries == 0 ||
        !meta.Locate(handle.offset, &fragment, &local_offset)) {
      return handle.size;
    }
    const uint64_t budget =
        (wanted - 1) * (meta.data_size / meta.num_entries);
    const uint64_t fragment_end =
        handle.offset - local_offset + meta.fragment_sizes[fragment];
    uint64_t size = handle.size;
    peek_iter_->Seek(index_iter_->key());
    for (peek_iter_->Next();
         peek_iter_->Valid() && size - handle.size < budget;
         peek_iter_->Next()) {
      BlockHandle next;
      Slice contents = peek_iter_->value();
      if (!next.DecodeFrom(&contents).ok() ||
          next.offset != handle.offset + size ||
          next.offset + next.size > fragment_end ||
          reader_->IsCached(next.offset)) {
        break;
      }
      size += next.size;
      (*blocks_ahead)++;
    }
    return size;
  }

  void SkipEmptyBlocksForward() {
    while (block_iter_ == nullptr || !block_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        block_iter_.reset();
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (block_iter_) {
        block_iter_->SeekToFirst();
      }
    }
  }

  void SkipEmptyBlocksBackward() {
    while (block_iter_ == nullptr || !block_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        block_iter_.reset();
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (block_iter_) {
        block_iter_->SeekToLast();
      }
    }
  }

  const SSTableReader* reader_;
  const InternalKeyComparator* icmp_;
  std::unique_ptr<Iterator> index_iter_;
  /// Second cursor over the index block, used to size runs ahead of
  /// index_iter_ without disturbing it; null when this iterator sizes no
  /// runs.
  std::unique_ptr<Iterator> peek_iter_;
  std::shared_ptr<Block> block_;  // pins the cached entry while in use
  std::unique_ptr<Iterator> block_iter_;
  IteratorOptions options_;
  /// options_.counters, or uncounted_ when the caller gave none.
  ReadaheadCounters* counters_;
  ReadaheadCounters uncounted_;
  /// Scan direction, maintained by the movement methods; runs only pay
  /// off while moving forward.
  bool forward_ = true;
  /// Positioned on meta().smallest by Seek, its block not yet read.
  bool deferred_ = false;
  /// Entries stepped past since the last seek; rows - rows_passed_ are
  /// the rows still wanted when sizing a run.
  uint64_t rows_passed_ = 0;
  /// The blocks after the missed one of the last run fetched: stored
  /// bytes of adjacent blocks starting at data offset run_offset_.
  uint64_t run_offset_ = 0;
  std::string run_;
  Status status_;
};

}  // namespace

Iterator* SSTableReader::NewIterator(const IteratorOptions& options) const {
  // The peek cursor exists only when this iterator sizes runs.
  return new SSTableIterator(
      this, &icmp_, index_block()->NewIterator(&icmp_),
      options.rows > 0 ? index_block()->NewIterator(&icmp_) : nullptr,
      options);
}

}  // namespace nova
