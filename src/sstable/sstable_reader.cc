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
      return Status::OK();
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
        return Status::OK();
      }
      // A poisoned tier entry (should not happen — inserts were verified)
      // is dropped and the block refetched rather than surfaced.
      compressed_cache_->Erase(cache_key);
    }
  }
  int fragment;
  uint64_t local_offset;
  if (!meta_.Locate(handle.offset, &fragment, &local_offset)) {
    return Status::Corruption("block offset outside fragment map");
  }
  std::string contents;
  // Which replica serves this range is the fetcher's call (power-of-d
  // plus hedging over the StoC client); the reader only names the
  // fragment-relative range. See BlockFetcher in sstable/format.h.
  Status s = fetcher_->Fetch(fragment, local_offset, handle.size, &contents);
  if (!s.ok()) {
    return s;
  }
  return InstallBlock(std::move(contents), handle.offset, handle.size,
                      fill_cache, pri, block);
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

std::unique_ptr<SSTableReader::PendingBlock> SSTableReader::Prefetch(
    const BlockHandle& handle, ReadaheadCounters* counters) const {
  // Already resident in either tier: the iterator's ReadBlock will hit
  // (decompressing from the compressed tier if need be); nothing to do.
  // kCold lookups so probing cannot promote scan blocks into the hot set.
  for (Cache* cache : {block_cache_, compressed_cache_}) {
    if (cache == nullptr) {
      continue;
    }
    Cache::Handle* h = cache->Lookup(
        BlockCacheKey(range_id_, meta_.file_number, handle.offset),
        /*count=*/false, Cache::Priority::kCold);
    if (h != nullptr) {
      cache->Release(h);
      return nullptr;
    }
  }
  int fragment;
  uint64_t local_offset;
  if (!meta_.Locate(handle.offset, &fragment, &local_offset)) {
    return nullptr;
  }
  auto pending = fetcher_->StartFetch(fragment, local_offset, handle.size);
  if (pending == nullptr) {
    return nullptr;
  }
  if (counters != nullptr) {
    counters->issued.fetch_add(1, std::memory_order_relaxed);
  }
  auto pb = std::make_unique<PendingBlock>();
  pb->offset = handle.offset;
  pb->size = handle.size;
  pb->pending = std::move(pending);
  return pb;
}

Status SSTableReader::FinishPrefetch(PendingBlock* pb,
                                     std::shared_ptr<Block>* block,
                                     bool fill_cache,
                                     ReadaheadCounters* counters) const {
  std::string contents;
  Status s = pb->pending->Wait(&contents);
  if (s.ok()) {
    // Readahead serves iterators, which admit cold (see MaterializeBlock).
    s = InstallBlock(std::move(contents), pb->offset, pb->size, fill_cache,
                     Cache::Priority::kCold, block);
  }
  if (s.ok() && counters != nullptr) {
    counters->hits.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
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
/// at a time through the reader (which consults the block cache first).
/// With readahead_blocks > 0 it keeps that many upcoming data blocks in
/// flight (issued to the StoC asynchronously) while the current block
/// drains, so a forward scan or compaction merge overlaps compute with
/// fragment round-trips.
class SSTableIterator : public Iterator {
 public:
  SSTableIterator(const SSTableReader* reader,
                  const InternalKeyComparator* icmp, Iterator* index_iter,
                  Iterator* peek_iter, const IteratorOptions& options)
      : reader_(reader),
        icmp_(icmp),
        index_iter_(index_iter),
        peek_iter_(peek_iter),
        options_(options) {}

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }

  void SeekToFirst() override {
    forward_ = true;
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (block_iter_) {
      block_iter_->SeekToFirst();
    }
    SkipEmptyBlocksForward();
  }

  void SeekToLast() override {
    forward_ = false;
    index_iter_->SeekToLast();
    InitDataBlock();
    if (block_iter_) {
      block_iter_->SeekToLast();
    }
    SkipEmptyBlocksBackward();
  }

  void Seek(const Slice& target) override {
    forward_ = true;
    index_iter_->Seek(target);
    InitDataBlock();
    if (block_iter_) {
      block_iter_->Seek(target);
    }
    SkipEmptyBlocksForward();
  }

  void Next() override {
    forward_ = true;
    block_iter_->Next();
    SkipEmptyBlocksForward();
  }

  void Prev() override {
    forward_ = false;
    block_iter_->Prev();
    SkipEmptyBlocksBackward();
  }

  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }
  Status status() const override { return status_; }

 private:
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
    if (options_.counters != nullptr) {
      options_.counters->blocks.fetch_add(1, std::memory_order_relaxed);
      options_.counters->bytes.fetch_add(handle.size,
                                         std::memory_order_relaxed);
    }
    IssueReadahead();
  }

  /// Serve the block from a matching in-flight prefetch when one exists
  /// (a readahead hit), falling back to the reader's normal path.
  Status MaterializeBlock(const BlockHandle& handle) {
    for (auto it = prefetched_.begin(); it != prefetched_.end(); ++it) {
      if ((*it)->offset != handle.offset) {
        continue;
      }
      std::unique_ptr<SSTableReader::PendingBlock> pb = std::move(*it);
      prefetched_.erase(it);
      if (reader_
              ->FinishPrefetch(pb.get(), &block_, options_.fill_cache,
                               options_.counters)
              .ok()) {
        return Status::OK();
      }
      break;  // prefetch failed; retry through the synchronous path
    }
    // Iterators admit cold: a scan or compaction sweep stays in the cold
    // queue and cannot evict the point-get working set (see
    // Cache::Priority). The synchronous path keeps replica failover and
    // parity reconstruction.
    return reader_->ReadBlock(handle, &block_, options_.fill_cache,
                              Cache::Priority::kCold);
  }

  /// Keep the next readahead_blocks data blocks in flight. Prefetches
  /// outside that window — blocks the scan has passed, or far-ahead
  /// leftovers after a backward re-seek — are dropped (an abandoned
  /// response is discarded by the RPC layer). Forward scans only: a
  /// backward scan never revisits the blocks ahead of it, so prefetching
  /// there would be pure waste.
  void IssueReadahead() {
    if (options_.readahead_blocks <= 0 || !forward_) {
      return;
    }
    // The window: the next readahead_blocks index entries.
    std::vector<BlockHandle> wanted;
    peek_iter_->Seek(index_iter_->key());
    for (int i = 0; i < options_.readahead_blocks && peek_iter_->Valid();
         i++) {
      peek_iter_->Next();
      if (!peek_iter_->Valid()) {
        break;
      }
      BlockHandle handle;
      Slice contents = peek_iter_->value();
      if (!handle.DecodeFrom(&contents).ok()) {
        break;
      }
      wanted.push_back(handle);
    }
    auto in_window = [&wanted](uint64_t offset) {
      for (const BlockHandle& h : wanted) {
        if (h.offset == offset) {
          return true;
        }
      }
      return false;
    };
    for (auto it = prefetched_.begin(); it != prefetched_.end();) {
      it = in_window((*it)->offset) ? it + 1 : prefetched_.erase(it);
    }
    for (const BlockHandle& handle : wanted) {
      bool in_flight = false;
      for (const auto& pb : prefetched_) {
        in_flight |= pb->offset == handle.offset;
      }
      if (in_flight) {
        continue;
      }
      auto pb = reader_->Prefetch(handle, options_.counters);
      if (pb != nullptr) {
        prefetched_.push_back(std::move(pb));
      }
    }
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
  /// Second cursor over the index block, used to peek ahead of
  /// index_iter_ when issuing readahead without disturbing it; null when
  /// this iterator has readahead disabled.
  std::unique_ptr<Iterator> peek_iter_;
  std::shared_ptr<Block> block_;  // pins the cached entry while in use
  std::unique_ptr<Iterator> block_iter_;
  IteratorOptions options_;
  /// Scan direction, maintained by the movement methods; readahead only
  /// pays off while moving forward.
  bool forward_ = true;
  std::vector<std::unique_ptr<SSTableReader::PendingBlock>> prefetched_;
  Status status_;
};

}  // namespace

Iterator* SSTableReader::NewIterator(const IteratorOptions& options) const {
  // The peek cursor exists only when this iterator actually reads ahead.
  return new SSTableIterator(
      this, &icmp_, index_block()->NewIterator(&icmp_),
      options.readahead_blocks > 0 ? index_block()->NewIterator(&icmp_)
                                   : nullptr,
      options);
}

}  // namespace nova
