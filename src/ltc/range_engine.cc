#include "ltc/range_engine.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <iterator>
#include <thread>

#include "sim/cost_model.h"
#include "sstable/merging_iterator.h"
#include "util/coding.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace nova {
namespace ltc {
namespace {

using Clock = std::chrono::steady_clock;

/// Times Scan re-collects a stretch whose table reads failed before it
/// returns the error.
constexpr int kScanStretchRetries = 3;

uint64_t ElapsedUs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// MANIFEST records as one append: each keeps its own length frame, so a
/// replica reads back record by record.
std::string FrameRecords(const std::vector<std::string>& records) {
  std::string framed;
  for (const std::string& record : records) {
    PutFixed32(&framed, static_cast<uint32_t>(record.size()));
    framed.append(record);
  }
  return framed;
}

/// The records of a MANIFEST replica up to a torn tail, and the version
/// its last one brought the range to.
Status ReadManifestReplica(stoc::StocClient* client, rdma::NodeId stoc,
                           uint64_t file_id, std::vector<std::string>* records,
                           uint64_t* version) {
  std::string contents;
  Status s = client->ReadBlock(stoc, file_id, 0, 0, &contents);
  if (!s.ok()) {
    return s;
  }
  Slice in(contents);
  while (in.size() >= 4) {
    uint32_t len = DecodeFixed32(in.data());
    in.remove_prefix(4);
    if (in.size() < len) {
      break;  // torn tail
    }
    records->emplace_back(in.data(), len);
    in.remove_prefix(len);
  }
  if (records->empty()) {
    return Status::Corruption("empty manifest replica");
  }
  lsm::VersionEdit last;
  s = last.DecodeFrom(records->back());
  *version = last.manifest_version;
  return s;
}

}  // namespace

RangeEngine::RangeEngine(const RangeEngineOptions& options,
                         stoc::StocClient* client,
                         const lsm::PlacementOptions& placement,
                         sim::CpuThrottle* throttle, ThreadPool* flush_pool,
                         ThreadPool* compaction_pool, Cache* block_cache,
                         Cache* compressed_cache)
    : options_(options),
      client_(client),
      throttle_(throttle == nullptr ? sim::CpuThrottle::Unlimited()
                                    : throttle),
      flush_pool_(flush_pool),
      compaction_pool_(compaction_pool),
      block_cache_(block_cache),
      compressed_cache_(compressed_cache),
      compressor_(GetCompressor(options.compression_codec)) {
  options_.manifest_replicas = std::max(1, options_.manifest_replicas);
  drange_ = std::make_unique<DrangeManager>(options_.lower, options_.upper,
                                            options_.drange);
  versions_ = std::make_unique<lsm::VersionSet>(
      options_.lsm, [this](const std::vector<std::string>& records) {
        return ManifestAppend(records);
      });
  table_cache_ = std::make_unique<lsm::TableCache>(
      client_, block_cache_, options_.range_id,
      /*cache_data_blocks=*/block_cache_ != nullptr, compressed_cache_);
  lsm::PlacementOptions popt = placement;
  popt.range_id = options_.range_id;
  placer_ = std::make_unique<lsm::SSTablePlacer>(client_, popt);
  executor_ = std::make_unique<lsm::CompactionExecutor>(
      table_cache_.get(), placer_.get(), throttle_);
  logc_ = std::make_unique<logc::LogClient>(client_, options_.range_id,
                                            options_.log);
  range_index_ =
      std::make_unique<RangeIndex>(options_.lower, options_.upper);
}

/// An SSTable a flush built from memtables, between its arm and its
/// commit.
struct RangeEngine::FlushOutput {
  std::vector<MemTableRef> mems;
  lsm::PendingSSTable pending;
  lsm::FileMetaData meta;  // filled by the commit
  Clock::time_point armed_at;
  uint64_t number = 0;
  uint64_t data_size = 0;
  uint64_t raw_size = 0;

  /// A StoC that died mid-write never acknowledges it.
  bool Overdue(Clock::time_point now) const {
    return now - armed_at >
           std::chrono::milliseconds(lsm::PendingSSTable::kAckTimeoutMs);
  }
  /// Acknowledged, or overdue and to be given up on.
  bool Committable(Clock::time_point now) const {
    return pending.ready() || Overdue(now);
  }
};

RangeEngine::~RangeEngine() {
  stopping_.store(true);
  // Abandoning an armed write may run its acknowledgment callback, which
  // takes flush_mu_: drop the outputs while the members still exist.
  std::vector<std::unique_ptr<FlushOutput>> outputs;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    outputs.swap(flush_outputs_);
  }
}

MemTableRef RangeEngine::NewMemTableLocked(int did) {
  uint64_t mid = next_mid_.fetch_add(1);
  auto mem = std::make_shared<MemTable>(icmp_, mid);
  mem->set_drange_id(did);
  all_memtables_[mid] = mem;
  actives_[did] = mem;
  mid_table_.SetMemtable(mid, mem);
  std::string lo = options_.lower;
  std::string hi = options_.upper;
  if (options_.enable_dranges) {
    auto bounds = drange_->DrangeBounds(did);
    if (!bounds.first.empty() || !bounds.second.empty()) {
      lo = bounds.first;
      hi = bounds.second;
    }
  }
  range_index_->AddMemtable(mid, lo, hi);
  if (options_.log.mode != logc::LogMode::kNone) {
    logc_->CreateLogFile(mid, placer_->options().stocs);
  }
  return mem;
}

void RangeEngine::Bootstrap() {
  // A new range writes its MANIFEST now, so recovery can tell a range it
  // cannot read from an empty one; a range that migrated here writes its
  // own replicas.
  if (manifest_stocs().empty()) {
    MoveManifest();
  }
}

Status RangeEngine::Put(const Slice& key, const Slice& value) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.put_base_us +
                    (options_.enable_lookup_index
                         ? costs.lookup_index_update_us
                         : 0) +
                    (options_.enable_range_index
                         ? costs.range_index_update_us
                         : 0));
  SequenceNumber seq = last_sequence_.fetch_add(1) + 1;
  Status s = RouteAndAppend(seq, kTypeValue, key, value);
  if (s.ok()) {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.puts++;
  }
  return s;
}

Status RangeEngine::Delete(const Slice& key) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.put_base_us);
  SequenceNumber seq = last_sequence_.fetch_add(1) + 1;
  return RouteAndAppend(seq, kTypeDeletion, key, Slice());
}

template <typename Pred>
bool RangeEngine::StallUntil(std::unique_lock<std::mutex>& lk,
                             Pred cleared) {
  if (!cleared() && !stopping_.load()) {
    // The event is counted when the wait starts so a watchdog polling
    // stall_events sees a writer that is parked right now.
    {
      std::lock_guard<std::mutex> sl(stats_mu_);
      stats_.stall_events++;
    }
    auto t0 = Clock::now();
    stall_cv_.wait(lk, [&] { return cleared() || stopping_.load(); });
    uint64_t us = ElapsedUs(t0);
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.stall_us += us;
  }
  return !stopping_.load();
}

Status RangeEngine::RouteAndAppend(SequenceNumber seq, ValueType type,
                                   const Slice& key, const Slice& value) {
  static thread_local Random tl_rng(
      reinterpret_cast<uint64_t>(&tl_rng) ^ 0x1234567);
  const sim::CostModel& costs = sim::DefaultCostModel();
  foreground_writes_.fetch_add(1, std::memory_order_acquire);
  struct WriteGuard {
    std::atomic<int>* n;
    ~WriteGuard() { n->fetch_sub(1, std::memory_order_release); }
  } write_guard{&foreground_writes_};
  // A memtable whose log append failed: the next attempt retires it, so no
  // writer keeps appending to a failing log file.
  MemTableRef unlogged;
  for (int attempt = 0; attempt < 1000; attempt++) {
    if (stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("range decommissioned");
    }
    MemTableRef mem;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (unlogged != nullptr) {
        RetireLocked(std::move(unlogged));
      }
      // Write stall: L0 too large.
      if (!StallUntil(lk, [this] {
            return l0_bytes_.load() < options_.lsm.l0_stop_bytes;
          })) {
        return Status::Unavailable("engine stopping");
      }
      int did;
      if (options_.enable_dranges) {
        did = drange_->RouteWrite(key);
        if (did < 0) {
          return Status::InvalidArgument("key outside range");
        }
      } else {
        did = static_cast<int>(
            tl_rng.Uniform(options_.num_active_memtables));
      }
      // Routing, reorganizations and the creation of actives all hold mu_,
      // so the active found here was registered under the bounds the key
      // was routed by.
      auto it = actives_.find(did);
      if (it != actives_.end() &&
          it->second->ApproximateMemoryUsage() >= options_.memtable_size) {
        RetireLocked(it->second);
        it = actives_.end();
      }
      if (it != actives_.end()) {
        mem = it->second;
      } else if (MemtableBudgetFree()) {
        mem = NewMemTableLocked(did);
      } else {
        // Write stall: all δ memtables in use. The stall releases mu_, so
        // the put routes again.
        if (!StallUntil(lk, [this] { return MemtableBudgetFree(); })) {
          return Status::Unavailable("engine stopping");
        }
        continue;
      }
    }

    // Log record first (durability ordering, Section 2.1/5), then the
    // memtable append. Both happen outside the lifecycle lock. A record
    // that is not in the log is not added: the put retries.
    if (options_.log.mode != logc::LogMode::kNone) {
      throttle_->Charge(costs.log_append_us * options_.log.num_replicas);
      logc::LogRecord rec;
      rec.memtable_id = mem->id();
      rec.sequence = seq;
      rec.type = type;
      rec.key = key.ToString();
      rec.value = value.ToString();
      if (!logc_->Append(mem->id(), rec).ok()) {
        unlogged = std::move(mem);
        continue;
      }
    }
    if (mem->AddIfActive(seq, type, key, value)) {
      if (options_.enable_lookup_index) {
        lookup_index_.Update(key, mem->id(), seq);
      }
      return Status::OK();
    }
    // The memtable retired under us; retry with the new active.
  }
  return Status::Busy("put retry limit exceeded");
}

void RangeEngine::RetireLocked(MemTableRef mem) {
  auto it = actives_.find(mem->drange_id());
  if (it == actives_.end() || it->second != mem) {
    return;  // retired already
  }
  actives_.erase(it);
  mem->MarkImmutable();
  flush_queue_.push_back(std::move(mem));
}

/// The newest version of one key among the tables a Get has probed. A
/// tombstone counts as found: it hides every older version of the key.
struct RangeEngine::NewestVersion {
  bool found = false;
  SequenceNumber seq = 0;
  std::string value;
  Status status;
  /// Why the first table that could not be opened or read failed.
  Status unreadable;

  /// Looks the key up in a memtable or SSTable and keeps the table's
  /// version when it is the newest so far. Returns whether the table holds
  /// a version of the key; a failed read counts as unreadable instead.
  template <typename Table>
  bool Probe(Table* table, const LookupKey& lkey) {
    std::string v;
    Status s;
    SequenceNumber table_seq = 0;
    if (!table->Get(lkey, &v, &s, &table_seq)) {
      return false;
    }
    if (!s.ok() && !s.IsNotFound()) {
      Unreadable(s);
      return false;
    }
    if (!found || table_seq > seq) {
      found = true;
      seq = table_seq;
      value = std::move(v);
      status = s;
    }
    return true;
  }

  void Unreadable(const Status& s) {
    if (unreadable.ok()) {
      unreadable = s;
    }
  }

  /// Whether the version found is the key's newest anywhere, as the lookup
  /// index claims (claimed_seq; 0 = no claim): then no other table holds a
  /// newer one.
  bool Newest(SequenceNumber claimed_seq) const {
    return found && claimed_seq > 0 && seq >= claimed_seq;
  }

  /// An error is an answer: an unreadable table fails the Get unless the
  /// version found is the newest.
  Status Result(std::string* out, SequenceNumber claimed_seq) {
    if (!unreadable.ok() && !Newest(claimed_seq)) {
      return unreadable;
    }
    if (!found) {
      return Status::NotFound("key not found");
    }
    if (status.ok()) {
      *out = std::move(value);
    }
    return status;
  }
};

Status RangeEngine::Get(const Slice& key, std::string* value) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.get_base_us);
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.gets++;
  }
  LookupKey lkey(key, kMaxSequenceNumber);
  // The sequence the lookup index claims for the key's newest version (0
  // when the index is off or has no entry).
  SequenceNumber claimed_seq = 0;
  // Without the index (Challenge 2's ablation) every memtable is probed.
  bool sweep_memtables = !options_.enable_lookup_index;
  if (options_.enable_lookup_index) {
    // A hit may go momentarily stale while a memtable merge retires its
    // mid (the index is rewritten before the old mid is erased), so a
    // stale hit retries; if it stays inconsistent, the memtable sweep
    // below is always correct.
    for (int retry = 0; retry < 3; retry++) {
      sweep_memtables = false;
      uint64_t mid;
      if (!lookup_index_.LookupWithSeq(key, &mid, &claimed_seq)) {
        claimed_seq = 0;
        break;
      }
      MidTable::Entry entry;
      if (!mid_table_.Get(mid, &entry)) {
        sweep_memtables = true;
        continue;  // merge in flight: the index will be re-pointed
      }
      Status result;
      if (!entry.is_file) {
        throttle_->Charge(costs.memtable_probe_us);
        if (entry.memtable->Get(lkey, value, &result)) {
          std::lock_guard<std::mutex> l(stats_mu_);
          stats_.lookup_index_hits++;
          return result;
        }
        sweep_memtables = true;  // slot should have held this key
        continue;
      }
      lsm::FileMetaRef meta = versions_->current()->Find(entry.file_number);
      if (meta == nullptr) {
        // The L0 file was compacted into L1+: self-clean the index.
        lookup_index_.EraseIf(key, mid);
        mid_table_.Erase(mid);
        break;
      }
      lsm::TableCache::Handle handle;
      if (table_cache_->GetReader(meta, &handle).ok()) {
        throttle_->Charge(costs.l0_sstable_probe_us);
        if (handle.reader->Get(lkey, value, &result)) {
          std::lock_guard<std::mutex> l(stats_mu_);
          stats_.lookup_index_hits++;
          return result;
        }
      }
      break;
    }
    std::lock_guard<std::mutex> l(stats_mu_);
    stats_.lookup_index_misses++;
  }
  // The index did not resolve the key, or is off. L0 is probed bloom-first
  // either way: an index miss does not rule out an L0 version (after
  // recovery or migration the index may not cover every L0 key), and an
  // old memtable can coexist with a newer version already flushed to L0.
  NewestVersion newest;
  if (sweep_memtables) {
    ProbeMemtables(lkey, &newest);
  }
  ProbeL0(lkey, &newest);
  if (!newest.Newest(claimed_seq)) {
    // Flushes run in parallel, so a key's versions need not reach the
    // levels in the order they were written: only the index's claim lets a
    // memtable or L0 version stand without them. The levels' version wins
    // when it is newer, a tombstone included.
    SearchLevels(lkey, &newest);
  }
  if (!newest.unreadable.ok()) {
    degraded_gets_.fetch_add(1);
  }
  return newest.Result(value, claimed_seq);
}

void RangeEngine::ProbeMemtables(const LookupKey& lkey,
                                 NewestVersion* newest) {
  std::vector<MemTableRef> mems;
  {
    std::lock_guard<std::mutex> lk(mu_);
    mems.reserve(all_memtables_.size());
    for (auto& [mid, mem] : all_memtables_) {
      mems.push_back(mem);
    }
  }
  const sim::CostModel& costs = sim::DefaultCostModel();
  for (auto& mem : mems) {
    throttle_->Charge(costs.memtable_probe_us);
    newest->Probe(mem.get(), lkey);
  }
}

void RangeEngine::ProbeL0(const LookupKey& lkey, NewestVersion* newest) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  const Slice key = lkey.user_key();
  lsm::VersionRef version = versions_->current();
  for (const auto& f : version->files(0)) {
    if (key.compare(f->smallest.user_key()) < 0 ||
        key.compare(f->largest.user_key()) > 0) {
      continue;
    }
    lsm::TableCache::Handle handle;
    Status s = table_cache_->GetReader(f, &handle);
    if (!s.ok()) {
      newest->Unreadable(s);
      continue;
    }
    if (!handle.reader->KeyMayMatch(key)) {
      continue;  // bloom rejected: skip the index seek and probe charge
    }
    throttle_->Charge(costs.l0_sstable_probe_us);
    newest->Probe(handle.reader, lkey);
  }
}

void RangeEngine::SearchLevels(const LookupKey& lkey, NewestVersion* newest) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  lsm::VersionRef version = versions_->current();
  for (int level = 1; level < version->num_levels(); level++) {
    // Levels are normally sorted and disjoint, but while compactions are
    // in flight a level can transiently hold overlapping files, so probe
    // every overlapping file.
    bool level_has_key = false;
    for (const auto& f : version->OverlappingFiles(level, lkey.user_key(),
                                                   lkey.user_key())) {
      lsm::TableCache::Handle handle;
      Status s = table_cache_->GetReader(f, &handle);
      if (!s.ok()) {
        // Deeper levels may still hold the version the index claims.
        newest->Unreadable(s);
        continue;
      }
      if (!handle.reader->KeyMayMatch(lkey.user_key())) {
        continue;  // bloom filter skip (Section 4.1.1)
      }
      throttle_->Charge(costs.high_level_probe_us);
      if (newest->Probe(handle.reader, lkey)) {
        level_has_key = true;
      }
    }
    if (level_has_key) {
      return;  // deeper levels hold only older versions
    }
  }
}

IteratorOptions RangeEngine::ScanIteratorOptions(int rows) {
  IteratorOptions opt;
  opt.rows = rows;
  opt.counters = &readahead_counters_;
  return opt;
}

Status RangeEngine::Scan(
    const Slice& start_key, int num_records,
    std::vector<std::pair<std::string, std::string>>* out) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.request_dispatch_us + costs.scan_seek_us);

  std::string pos = start_key.ToString();
  std::string last_emitted;
  bool has_last = false;
  int failed_reads = 0;  // consecutive failed attempts at this stretch

  while (static_cast<int>(out->size()) < num_records) {
    // Determine the table set for this stretch of keyspace.
    std::vector<uint64_t> l0_numbers;
    std::string upper;
    std::vector<Iterator*> children;
    std::vector<lsm::TableCache::Handle> pins;
    std::vector<MemTableRef> mem_pins;
    if (options_.enable_range_index) {
      RangeIndex::PartitionView view = range_index_->Collect(pos);
      if (!view.valid) {
        break;
      }
      l0_numbers = std::move(view.l0_files);
      upper = view.upper;
      // Pin the collected memtables. A miss means a flush committed
      // after the collect, so the memtable's keys now live in an L0
      // file the collect did not see — merging this view would silently
      // drop them. Throw the stretch away and re-collect.
      bool stale = false;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (uint64_t mid : view.memtables) {
          auto it = all_memtables_.find(mid);
          if (it == all_memtables_.end()) {
            stale = true;
            break;
          }
          mem_pins.push_back(it->second);
          children.push_back(it->second->NewIterator());
        }
      }
      if (stale) {
        for (Iterator* c : children) {
          delete c;
        }
        continue;
      }
    } else {
      // Ablation: merge everything (Challenge 2's slow scan). Pin under
      // the same lock as the collect so no flush can retire a memtable
      // in between.
      std::lock_guard<std::mutex> lk(mu_);
      for (auto& [mid, mem] : all_memtables_) {
        mem_pins.push_back(mem);
        children.push_back(mem->NewIterator());
      }
      upper = options_.upper;
    }

    // One consistent LSM view for the whole stretch, captured after the
    // memtables are pinned: an L0 number the collect saw that compaction
    // has since retired is covered by this version's deeper levels, and
    // a flush that committed after pinning merely duplicates a pinned
    // memtable (the emit loop dedupes by user key). Mixing the collect's
    // L0 list with a different version's L1 files is how scans used to
    // lose keys mid-compaction.
    lsm::VersionRef version = versions_->current();
    if (!options_.enable_range_index) {
      for (const auto& f : version->files(0)) {
        l0_numbers.push_back(f->number);
      }
    }
    // A table that cannot be opened is as bad as a failed block read: its
    // keys would silently drop out of the merge.
    Status read_status;
    const IteratorOptions table_options =
        ScanIteratorOptions(num_records - static_cast<int>(out->size()));
    auto add_table = [&](const lsm::FileMetaRef& f) {
      lsm::TableCache::Handle handle;
      Status s = table_cache_->GetReader(f, &handle);
      if (s.ok()) {
        pins.push_back(handle);
        children.push_back(handle.reader->NewIterator(table_options));
      } else if (read_status.ok()) {
        read_status = s;
      }
    };
    for (uint64_t number : l0_numbers) {
      lsm::FileMetaRef f = version->Find(number);
      if (f != nullptr) {  // else compacted away; this version's L1+ has it
        add_table(f);
      }
    }
    for (int level = 1; level < version->num_levels(); level++) {
      for (const auto& f : version->OverlappingFiles(level, pos, upper)) {
        add_table(f);
      }
    }
    throttle_->Charge(costs.scan_per_table_us * children.size());

    const size_t stretch_rows = out->size();
    const std::string stretch_last = last_emitted;
    const bool stretch_has_last = has_last;
    std::unique_ptr<Iterator> merged(
        NewMergingIterator(&icmp_, std::move(children)));
    LookupKey lkey(pos, kMaxSequenceNumber);
    merged->Seek(lkey.internal_key());
    while (merged->Valid() && static_cast<int>(out->size()) < num_records) {
      throttle_->Charge(costs.scan_per_record_us);
      ParsedInternalKey parsed;
      if (!ParseInternalKey(merged->key(), &parsed)) {
        return Status::Corruption("bad key during scan");
      }
      if (!upper.empty() && parsed.user_key.compare(upper) >= 0) {
        break;
      }
      if (has_last && parsed.user_key.compare(last_emitted) == 0) {
        merged->Next();  // an older version of an already-handled key
        continue;
      }
      last_emitted.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      if (parsed.type != kTypeDeletion) {
        out->emplace_back(last_emitted, merged->value().ToString());
        if (static_cast<int>(out->size()) >= num_records) {
          break;  // a step past the last row could read a block for nothing
        }
      }
      merged->Next();
    }
    if (read_status.ok()) {
      read_status = merged->status();
    }
    if (!read_status.ok()) {
      // A table iterator skips a block it failed to read, so this
      // stretch may be missing keys. Drop its rows and re-collect it from
      // the current version (a compaction that deleted the inputs under
      // us has installed their replacement by then).
      out->resize(stretch_rows);
      last_emitted = stretch_last;
      has_last = stretch_has_last;
      if (++failed_reads > kScanStretchRetries) {
        return read_status;
      }
      scan_stretch_retries_.fetch_add(1);
      NOVA_WARN("scan retries a stretch after a failed read: %s",
                read_status.ToString().c_str());
      continue;
    }
    failed_reads = 0;
    if (upper.empty()) {
      break;  // end of the keyspace
    }
    if (!options_.enable_range_index) {
      // The ablation merged the whole table set in one pass; stepping to
      // `upper` would re-collect the same set and spin forever whenever
      // the range holds fewer than num_records keys past `pos`.
      break;
    }
    if (upper <= pos) {
      break;  // partition failed to advance; never loop in place
    }
    pos = upper;  // continue in the next partition (Section 4.1.2)
    throttle_->Charge(costs.scan_seek_us);
  }
  return Status::OK();
}

void RangeEngine::MaintenanceTick() {
  // 1. Drange reorganization (Section 4.1).
  if (options_.enable_dranges && drange_->NeedsReorg()) {
    Reorganize();
  }
  // 2. Dispatch queued flushes. First break the parked-small-immutable
  // cycle: Drange merge outputs wait in small_immutables_ for the *next*
  // flush of their Drange to gather them (FlushTask), but when they and
  // the actives together exhaust the δ budget, puts and rotations stall
  // and that next flush never materializes. With the budget at the cap
  // and nothing queued or in flight, force-flush the parked tables —
  // at the cap merge_has_room is false, so FlushTask writes them out as
  // SSTables and frees budget.
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!MemtableBudgetFree() && FlushesIdleLocked()) {
      QueueParkedLocked();
    }
    while (!flush_queue_.empty()) {
      MemTableRef mem = flush_queue_.front();
      flush_queue_.erase(flush_queue_.begin());
      flushes_inflight_++;
      flush_pool_->Submit([this, mem] { FlushTask(mem); });
    }
  }
  // 3. An armed flush SSTable overdue for its acknowledgments commits as
  // failed: its memtables go back to the flush queue.
  bool overdue = false;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    overdue = !flush_outputs_.empty() &&
              flush_outputs_.front()->Overdue(Clock::now());
  }
  if (overdue) {
    OnFlushAcked();
  }
  // 4. Compactions.
  ScheduleCompactions();
  // 5. Retired tables their last reader let go of.
  DeleteRetiredTables();
  // 6. A MANIFEST replica that must move while the range commits nothing:
  // an empty edit moves it, on the flush pool, since this thread holds
  // LtcServer::mu_, which RouteKey takes.
  if (!manifest_move_queued_.load() && ManifestMustMove() &&
      !manifest_move_queued_.exchange(true)) {
    if (!flush_pool_->Submit([this] {
          MoveManifest();
          manifest_move_queued_.store(false);
        })) {
      manifest_move_queued_.store(false);  // the LTC is stopping
    }
  }
}

bool RangeEngine::FlushesIdleLocked() {
  std::lock_guard<std::mutex> l(flush_mu_);
  return flush_queue_.empty() && flushes_inflight_ == 0 &&
         flush_outputs_.empty() && !commit_running_ &&
         unpublished_commits_ == 0;
}

void RangeEngine::Reorganize() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<int> moved = drange_->MaybeReorg();
  if (moved.empty()) {
    return;
  }
  for (auto it = actives_.lower_bound(drange_->num_dranges());
       it != actives_.end(); ++it) {
    moved.push_back(it->first);
  }
  for (int did : moved) {
    auto it = actives_.find(did);
    if (it != actives_.end()) {
      RetireLocked(it->second);
    }
  }
  // Splits are idempotent.
  if (options_.enable_range_index) {
    for (const std::string& b : drange_->Boundaries()) {
      range_index_->SplitAt(b);
    }
  }
}

void RangeEngine::FlushTask(MemTableRef mem) {
  const sim::CostModel& costs = sim::DefaultCostModel();
  throttle_->Charge(costs.flush_per_record_us * mem->num_entries());
  uint64_t unique = mem->CountUniqueKeys();
  int did = mem->drange_id();

  // The merge path keeps the table in memory, so it must leave slack in
  // the δ budget: with θ Dranges each holding an active plus a merged
  // small immutable, merging at the cap would deadlock rotation.
  bool merge_has_room;
  {
    std::lock_guard<std::mutex> lk(mu_);
    merge_has_room = static_cast<int>(all_memtables_.size()) + 1 <
                     options_.max_memtables;
  }
  Status s;
  std::vector<MemTableRef> mems = {mem};
  // Without the lookup index small memtables flush like any other (see
  // RangeEngineOptions::enable_memtable_merge).
  if (options_.enable_memtable_merge && options_.enable_lookup_index &&
      unique > 0 && merge_has_room &&
      unique < static_cast<uint64_t>(options_.unique_key_threshold)) {
    // Small memtable: merge with the Drange's other small immutables
    // instead of writing an SSTable (Section 4.2).
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (uint64_t mid : small_immutables_[did]) {
        auto it = all_memtables_.find(mid);
        if (it != all_memtables_.end()) {
          mems.push_back(it->second);
        }
      }
      small_immutables_[did].clear();
    }
    s = MergeSmallMemtables(mems, did);
  } else if (unique == 0) {
    DropMemtables(mems);
  } else {
    // Armed: the commit retires the memtable and wakes stalled writers.
    s = FlushToSSTable(mems);
  }
  std::lock_guard<std::mutex> lk(mu_);
  if (!s.ok()) {
    NOVA_WARN("flush failed: %s", s.ToString().c_str());
    // Requeue so data is not lost (the merge's gathered tables too).
    flush_queue_.insert(flush_queue_.end(), mems.begin(), mems.end());
  }
  flushes_inflight_--;
}

Status RangeEngine::MergeSmallMemtables(const std::vector<MemTableRef>& mems,
                                        int drange_id) {
  // Merge-iterate the inputs, keep only the newest version per key.
  std::vector<Iterator*> children;
  for (const auto& m : mems) {
    children.push_back(m->NewIterator());
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp_, std::move(children)));

  uint64_t new_mid = next_mid_.fetch_add(1);
  auto new_mem = std::make_shared<MemTable>(icmp_, new_mid);
  new_mem->set_drange_id(drange_id);

  // New log file first so the merged table is as durable as its sources.
  if (options_.log.mode != logc::LogMode::kNone) {
    Status ls = logc_->CreateLogFile(new_mid, placer_->options().stocs);
    if (!ls.ok()) {
      return ls;
    }
  }

  std::string last_key;
  bool has_last = false;
  uint64_t unique = 0;
  merged->SeekToFirst();
  while (merged->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged->key(), &parsed)) {
      return Status::Corruption("bad key during memtable merge");
    }
    if (!has_last || parsed.user_key.compare(last_key) != 0) {
      last_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      unique++;
      new_mem->Add(parsed.sequence, parsed.type, parsed.user_key,
                   merged->value());
      if (options_.log.mode != logc::LogMode::kNone) {
        logc::LogRecord rec;
        rec.memtable_id = new_mid;
        rec.sequence = parsed.sequence;
        rec.type = parsed.type;
        rec.key = last_key;
        rec.value = merged->value().ToString();
        Status ls = logc_->Append(new_mid, rec);
        if (!ls.ok()) {
          // The inputs keep their log files, which hold every record.
          logc_->DeleteLogFile(new_mid);
          return ls;
        }
      }
    }
    merged->Next();
  }
  new_mem->MarkImmutable();

  if (unique >= static_cast<uint64_t>(options_.unique_key_threshold) ||
      new_mem->ApproximateMemoryUsage() >= options_.memtable_size) {
    // Merged result grew past the threshold: flush the inputs for real,
    // through the same pipeline; their SSTable's commit retires them.
    Status fs = FlushToSSTable(mems);
    logc_->DeleteLogFile(new_mid);
    return fs;
  }

  // Install the merged memtable and re-point at it the index slots that
  // name an input. A slot that names another table, or none (a Get dropped
  // it once the key's newest version reached the levels), keeps its claim:
  // an input's older sequence there would let a parked, stale version
  // answer without the levels.
  mid_table_.SetMemtable(new_mid, new_mem);
  {
    std::set<uint64_t> input_mids;
    for (const auto& m : mems) {
      input_mids.insert(m->id());
    }
    std::unique_ptr<Iterator> it(new_mem->NewIterator());
    it->SeekToFirst();
    while (it->Valid()) {
      ParsedInternalKey parsed;
      if (ParseInternalKey(it->key(), &parsed)) {
        lookup_index_.UpdateIfIn(parsed.user_key, input_mids, new_mid);
      }
      it->Next();
    }
  }
  std::string lo = new_mem->SmallestUserKey();
  std::string hi_inclusive = new_mem->LargestUserKey();
  range_index_->AddMemtable(new_mid, lo, hi_inclusive + std::string(1, '\0'));
  {
    std::lock_guard<std::mutex> lk(mu_);
    all_memtables_[new_mid] = new_mem;
    // Append (not assign): a concurrent merge on the same Drange may have
    // installed its own table between our gather and now.
    small_immutables_[drange_id].push_back(new_mid);
  }
  DropMemtables(mems);
  std::lock_guard<std::mutex> l(stats_mu_);
  stats_.memtable_merges++;
  return Status::OK();
}

void RangeEngine::DropMemtables(const std::vector<MemTableRef>& mems) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& m : mems) {
      all_memtables_.erase(m->id());
    }
  }
  // One StoC DeleteFile per log replica: outside mu_.
  for (const auto& m : mems) {
    mid_table_.Erase(m->id());
    range_index_->RemoveMemtable(m->id());
    logc_->DeleteLogFile(m->id());
  }
  stall_cv_.notify_all();
}

Status RangeEngine::FlushToSSTable(const std::vector<MemTableRef>& mems) {
  std::vector<Iterator*> children;
  for (const auto& m : mems) {
    children.push_back(m->NewIterator());
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp_, std::move(children)));

  SSTableBuilderOptions bopt;
  bopt.compressor = compressor_;
  SSTableBuilder builder(bopt);
  std::string last_key;
  bool has_last = false;
  merged->SeekToFirst();
  while (merged->Valid()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(merged->key(), &parsed)) {
      return Status::Corruption("bad key during flush");
    }
    // Retain only the newest version of each key (Section 4.2).
    if (!has_last || parsed.user_key.compare(last_key) != 0) {
      last_key.assign(parsed.user_key.data(), parsed.user_key.size());
      has_last = true;
      builder.Add(merged->key(), merged->value());
    }
    merged->Next();
  }

  auto output = std::make_unique<FlushOutput>();
  output->mems = mems;
  output->number = versions_->NewFileNumber();
  // From here until its commit or cleanup, the number's pieces may be on
  // the StoCs while no version lists them.
  HoldNumbers(output->number, 1);
  lsm::PlacementOptions popt = placer_->options();
  auto built = builder.Finish(output->number, popt.rho);
  output->data_size = built.data.size();
  output->raw_size = built.raw_bytes;
  Status s = placer_->StartWrite(std::move(built), &output->pending,
                                 kMaxFlushWritesPerStoc);
  if (!s.ok()) {
    ReleaseNumbers(output->number);
    return s;
  }
  output->armed_at = Clock::now();
  // The callback may run before the output is listed; the commit it starts
  // then misses this output, so a listing that finds it acknowledged
  // starts one itself.
  output->pending.OnReady([this] { OnFlushAcked(); });
  bool ready = false;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    ready = output->pending.ready();
    flush_outputs_.push_back(std::move(output));
  }
  if (ready) {
    OnFlushAcked();
  }
  return Status::OK();
}

void RangeEngine::OnFlushAcked() {
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    if (commit_running_) {
      return;  // it starts the next batch after its MANIFEST append
    }
    commit_running_ = true;
  }
  // Ahead of queued builds: a commit frees memtables, a build only queues
  // another write.
  if (!flush_pool_->Submit([this] { CommitFlushes(); }, /*first=*/true)) {
    std::lock_guard<std::mutex> l(flush_mu_);
    commit_running_ = false;  // the LTC is stopping
  }
}

void RangeEngine::CommitFlushes() {
  std::vector<std::unique_ptr<FlushOutput>> batch;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    Clock::time_point now = Clock::now();
    for (auto it = flush_outputs_.begin(); it != flush_outputs_.end();) {
      if ((*it)->Committable(now)) {
        batch.push_back(std::move(*it));
        it = flush_outputs_.erase(it);
      } else {
        ++it;
      }
    }
    if (batch.empty()) {
      commit_running_ = false;
      return;
    }
    unpublished_commits_++;
  }
  CommitBatch(std::move(batch));
}

void RangeEngine::CommitBatch(
    std::vector<std::unique_ptr<FlushOutput>> batch) {
  lsm::VersionEdit edit;
  std::vector<FlushOutput*> written;
  std::vector<FlushOutput*> failed;
  for (auto& out : batch) {
    // Acknowledged, or overdue and given up on: nothing waits here.
    Status s = out->pending.Wait(&out->meta, /*timeout_ms=*/0);
    if (s.ok()) {
      edit.new_files.emplace_back(0, out->meta);
      written.push_back(out.get());
    } else {
      NOVA_WARN("flush write failed: %s", s.ToString().c_str());
      failed.push_back(out.get());
    }
  }
  if (!written.empty()) {
    if (options_.enable_dranges) {
      edit.drange_state = drange_->Serialize();
    }
    versions_->SetLastSequence(last_sequence_.load());
    Status s = versions_->LogAndApply(&edit);
    if (s.ok()) {
      l0_bytes_.store(versions_->current()->LevelBytes(0));
    } else {
      NOVA_WARN("flush commit failed: %s", s.ToString().c_str());
      failed.insert(failed.end(), written.begin(), written.end());
      written.clear();
    }
  }
  // The MANIFEST append is done: SSTables acknowledged meanwhile commit
  // in the next batch, on another pool thread, while this one publishes.
  bool more = false;
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    commit_running_ = false;
    Clock::time_point now = Clock::now();
    for (const auto& out : flush_outputs_) {
      more = more || out->Committable(now);
    }
  }
  if (more) {
    OnFlushAcked();
  }
  // A failed flush leaves nothing behind, like a failed compaction: the
  // pieces that landed are deleted and the memtables flush again under a
  // new number.
  for (FlushOutput* out : failed) {
    placer_->Delete(out->meta);
  }

  // Redirect each SSTable's mids to it and publish it in the range index,
  // then retire the memtables.
  for (FlushOutput* out : written) {
    for (const auto& m : out->mems) {
      mid_table_.SetFile(m->id(), out->number);
    }
    {
      std::lock_guard<std::mutex> cl(compaction_mu_);
      for (const auto& m : out->mems) {
        file_to_mids_[out->number].push_back(m->id());
      }
    }
    range_index_->AddL0File(out->number,
                            out->meta.smallest.user_key().ToString(),
                            out->meta.largest.user_key().ToString());
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (FlushOutput* out : written) {
      for (const auto& m : out->mems) {
        all_memtables_.erase(m->id());
        range_index_->RemoveMemtable(m->id());
      }
    }
    for (FlushOutput* out : failed) {
      flush_queue_.insert(flush_queue_.end(), out->mems.begin(),
                          out->mems.end());
    }
  }
  for (FlushOutput* out : written) {
    for (const auto& m : out->mems) {
      logc_->DeleteLogFile(m->id());
    }
  }
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    for (FlushOutput* out : written) {
      stats_.flushes++;
      stats_.sstable_stored_bytes += out->data_size;
      stats_.sstable_raw_bytes += out->raw_size;
    }
  }
  for (auto& out : batch) {
    ReleaseNumbers(out->number);
  }
  {
    std::lock_guard<std::mutex> l(flush_mu_);
    unpublished_commits_--;
  }
  stall_cv_.notify_all();
}

void RangeEngine::HoldNumbers(uint64_t first, uint64_t count) {
  std::lock_guard<std::mutex> l(numbers_mu_);
  unpublished_numbers_[first] = count;
}

void RangeEngine::ReleaseNumbers(uint64_t first) {
  std::lock_guard<std::mutex> l(numbers_mu_);
  unpublished_numbers_.erase(first);
}

void RangeEngine::ScheduleCompactions() {
  std::lock_guard<std::mutex> cl(compaction_mu_);
  if (compactions_inflight_ >= options_.max_parallel_compactions) {
    return;
  }
  lsm::VersionRef v = versions_->current();
  std::vector<lsm::CompactionJob> jobs = lsm::CompactionPicker::Pick(
      *versions_, v,
      options_.max_parallel_compactions - compactions_inflight_);
  for (auto& job : jobs) {
    bool busy = false;
    for (const auto& f : job.inputs) {
      if (compacting_files_.count(f->number)) busy = true;
    }
    for (const auto& f : job.inputs_next) {
      if (compacting_files_.count(f->number)) busy = true;
    }
    // Defer jobs whose key range overlaps an in-flight compaction: two
    // concurrent jobs over overlapping ranges would emit overlapping
    // SSTables into the same sorted level.
    std::string job_lo, job_hi;
    auto extend_hull = [&](const std::vector<lsm::FileMetaRef>& files) {
      for (const auto& f : files) {
        std::string lo = f->smallest.user_key().ToString();
        std::string hi = f->largest.user_key().ToString();
        if (job_lo.empty() || lo < job_lo) job_lo = lo;
        if (job_hi.empty() || hi > job_hi) job_hi = hi;
      }
    };
    extend_hull(job.inputs);
    extend_hull(job.inputs_next);
    for (const auto& [lo, hi] : inflight_hulls_) {
      if (job_lo <= hi && lo <= job_hi) busy = true;
    }
    if (busy) {
      continue;
    }
    if (job.input_level == 0 && options_.enable_dranges) {
      job.boundaries = drange_->Boundaries();
    }
    job.max_output_bytes = options_.max_sstable_size;
    // The output codec travels with the job too: an offloaded StoC must
    // write blocks this LTC can read back.
    job.compression_codec = options_.compression_codec;
    uint64_t estimate =
        job.total_input_bytes() / std::max<uint64_t>(1, job.max_output_bytes) +
        job.boundaries.size() + 4;
    job.first_output_number = versions_->ReserveFileNumbers(estimate);
    HoldNumbers(job.first_output_number, estimate);
    for (const auto& f : job.inputs) {
      compacting_files_.insert(f->number);
    }
    for (const auto& f : job.inputs_next) {
      compacting_files_.insert(f->number);
    }
    compactions_inflight_++;
    inflight_hulls_.emplace_back(job_lo, job_hi);
    Clock::time_point queued_at = Clock::now();
    compaction_pool_->Submit([this, job = std::move(job), job_lo, job_hi,
                              queued_at]() mutable {
      // Finished only once the job let go of its inputs, so a quiescent
      // range holds no retired table of its own.
      RunCompaction(std::move(job), ElapsedUs(queued_at));
      std::lock_guard<std::mutex> cl(compaction_mu_);
      compactions_inflight_--;
      for (size_t i = 0; i < inflight_hulls_.size(); i++) {
        if (inflight_hulls_[i].first == job_lo &&
            inflight_hulls_[i].second == job_hi) {
          inflight_hulls_.erase(inflight_hulls_.begin() + i);
          break;
        }
      }
    });
  }
}

void RangeEngine::RunCompaction(lsm::CompactionJob job, uint64_t queue_us) {
  lsm::CompactionResult result;
  // An offloaded job (Section 4.3 "Offloading") goes to the StoC the
  // placement rule picks and runs here when the offload fails, so it
  // completes exactly once wherever it ran.
  std::vector<rdma::NodeId> target;
  if (options_.offload_compaction) {
    target = placer_->PickStocs(1);
  }
  bool offloaded = false;
  if (!target.empty()) {
    std::string resp;
    Status os = client_->Compaction(target[0], job.Serialize(), &resp);
    if (os.ok() && resp.empty()) {
      // The StoC took the RPC but its handler failed.
      os = Status::IOError("StoC returned no compaction result");
    }
    if (os.ok()) {
      os = result.Deserialize(resp);
    }
    offloaded = os.ok();
    if (!offloaded) {
      NOVA_WARN("compaction offload to stoc %d failed (%s); retrying locally",
                static_cast<int>(target[0]), os.ToString().c_str());
      result = lsm::CompactionResult();
    }
  }
  const bool fell_back = !target.empty() && !offloaded;
  Status s = offloaded ? Status::OK() : executor_->Run(job, &result);
  if (s.ok() && !ApplyCompactionResult(job, result).ok()) {
    // The edit published nothing: the outputs go like a failed flush's.
    for (const auto& out : result.outputs) {
      placer_->Delete(out);
    }
  } else if (!s.ok()) {
    NOVA_WARN("compaction failed: %s", s.ToString().c_str());
  }
  // The outputs are in the version now, or were deleted.
  ReleaseNumbers(job.first_output_number);
  {
    std::lock_guard<std::mutex> sl(stats_mu_);
    stats_.compaction_offloads += offloaded ? 1 : 0;
    stats_.compaction_offload_failures += fell_back ? 1 : 0;
    stats_.compaction_local_fallbacks += fell_back ? 1 : 0;
    stats_.compaction_queue_us += queue_us;
    stats_.compaction_prefetches += result.prefetches;
    stats_.compaction_bytes_read += result.bytes_read;
    stats_.compaction_bytes_written += result.bytes_written;
    stats_.sstable_stored_bytes += result.bytes_written;
    stats_.sstable_raw_bytes += result.raw_bytes_written;
  }
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    for (const auto& f : job.inputs) {
      compacting_files_.erase(f->number);
    }
    for (const auto& f : job.inputs_next) {
      compacting_files_.erase(f->number);
    }
  }
  // l0_bytes_ was lowered outside mu_ (ApplyCompactionResult), so without
  // this empty critical section the notify can land in the window between
  // a stalled writer's predicate check and its block — and if this was
  // the last scheduled compaction nothing ever notifies again (all the
  // writers are stalled, so the flush queue stays empty). Taking mu_
  // orders the store before either the writer's re-check or its block.
  { std::lock_guard<std::mutex> lk(mu_); }
  stall_cv_.notify_all();
}

Status RangeEngine::ApplyCompactionResult(
    const lsm::CompactionJob& job, const lsm::CompactionResult& result) {
  lsm::VersionEdit edit;
  for (const auto& f : job.inputs) {
    edit.deleted_files.emplace_back(job.input_level, f->number);
  }
  for (const auto& f : job.inputs_next) {
    edit.deleted_files.emplace_back(job.output_level, f->number);
  }
  for (const auto& out : result.outputs) {
    edit.new_files.emplace_back(job.output_level, out);
  }
  // Retired before the version drops them, so IsFileNumberLive never
  // misses them.
  {
    std::lock_guard<std::mutex> l(numbers_mu_);
    for (const auto* files : {&job.inputs, &job.inputs_next}) {
      retired_.insert(retired_.end(), files->begin(), files->end());
    }
  }
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    NOVA_WARN("compaction apply failed: %s", s.ToString().c_str());
    // The version still holds the inputs: un-retire them, or a retry would
    // retire them twice.
    std::lock_guard<std::mutex> l(numbers_mu_);
    for (const auto* files : {&job.inputs, &job.inputs_next}) {
      for (const auto& f : *files) {
        retired_.erase(std::find(retired_.begin(), retired_.end(), f));
      }
    }
    return s;
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));

  // Lookup-index upkeep (Section 4.1.1): keys whose MIDToTable entries
  // pointed at a compacted L0 file now resolve through the levels.
  if (job.input_level == 0) {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    for (const auto& f : job.inputs) {
      auto it = file_to_mids_.find(f->number);
      if (it != file_to_mids_.end()) {
        for (uint64_t mid : it->second) {
          mid_table_.Erase(mid);
        }
        file_to_mids_.erase(it);
      }
      range_index_->RemoveL0File(f->number);
    }
  }
  std::lock_guard<std::mutex> l(stats_mu_);
  stats_.compactions++;
  return Status::OK();
}

std::vector<rdma::NodeId> RangeEngine::manifest_stocs() {
  std::lock_guard<std::mutex> l(manifest_mu_);
  std::vector<rdma::NodeId> stocs;
  for (const ManifestReplica& r : manifest_) {
    stocs.push_back(r.stoc);
  }
  return stocs;
}

bool RangeEngine::IsManifestReplica(rdma::NodeId stoc, uint64_t file_id) {
  std::lock_guard<std::mutex> l(manifest_mu_);
  return std::any_of(manifest_.begin(), manifest_.end(),
                     [&](const ManifestReplica& r) {
                       return r.stoc == stoc && r.file_id == file_id;
                     });
}

bool RangeEngine::ManifestMustMove() {
  std::vector<rdma::NodeId> list = placer_->options().stocs;
  std::vector<rdma::NodeId> held = manifest_stocs();
  return std::any_of(held.begin(), held.end(), [&](rdma::NodeId stoc) {
    return std::find(list.begin(), list.end(), stoc) == list.end();
  });
}

void RangeEngine::MoveManifest() {
  lsm::VersionEdit edit;
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    NOVA_WARN("manifest move failed: %s", s.ToString().c_str());
  }
}

Status RangeEngine::ManifestAppend(const std::vector<std::string>& records) {
  Status s = util::FailPoint::Check("ltc.manifest_append");
  if (!s.ok()) {
    return s;
  }
  std::string batch = FrameRecords(records);
  std::vector<rdma::NodeId> list = placer_->options().stocs;
  std::vector<ManifestReplica> current;
  {
    std::lock_guard<std::mutex> l(manifest_mu_);
    current = manifest_;
  }
  std::vector<ManifestReplica> kept;
  std::vector<ManifestReplica> failed;  // its append failed
  std::vector<ManifestReplica> left;    // its StoC left the list
  for (const ManifestReplica& r : current) {
    stoc::StocBlockHandle handle;
    if (std::find(list.begin(), list.end(), r.stoc) == list.end()) {
      left.push_back(r);
    } else if (client_->AppendBlock(r.stoc, r.file_id, batch, &handle).ok()) {
      kept.push_back(r);
    } else {
      failed.push_back(r);
    }
  }
  size_t wanted = static_cast<size_t>(options_.manifest_replicas);
  if (kept.size() < wanted) {
    // A range's first replicas go where an SSTable would (under power-of-d,
    // the least loaded StoCs probed); a replacement takes any routable
    // StoC of the list that holds none.
    std::string fresh;
    for (rdma::NodeId stoc : placer_->PickStocs(
             kept.empty() ? static_cast<int>(wanted) : INT_MAX)) {
      if (kept.size() >= wanted) {
        break;
      }
      if (std::any_of(kept.begin(), kept.end(), [&](const ManifestReplica& r) {
            return r.stoc == stoc;
          })) {
        continue;
      }
      // A file number of its own, listed before its first byte lands: a
      // sweep never takes the new replica for a stale one, and no stale
      // file shares its id.
      ManifestReplica r{stoc, stoc::MakeFileId(
                                  options_.range_id,
                                  static_cast<uint32_t>(
                                      versions_->NewFileNumber()),
                                  stoc::FileKind::kManifest, 0)};
      {
        std::lock_guard<std::mutex> l(manifest_mu_);
        manifest_ = kept;
        manifest_.push_back(r);
      }
      if (fresh.empty()) {
        fresh = FrameRecords({SnapshotRecord()}) + batch;
      }
      stoc::StocBlockHandle handle;
      if (client_->AppendBlock(stoc, r.file_id, fresh, &handle).ok()) {
        kept.push_back(r);
      }
    }
  }
  {
    std::lock_guard<std::mutex> l(manifest_mu_);
    manifest_ = kept;
  }
  // A replica whose append failed is never appended to again, since the
  // append may have landed and a failed batch must never replay: it goes.
  // One whose StoC left the list goes once the batch landed elsewhere;
  // until then it holds the range's last state. A dead StoC's copy goes to
  // the sweep when the StoC returns.
  if (!kept.empty()) {
    failed.insert(failed.end(), left.begin(), left.end());
  }
  for (const ManifestReplica& r : failed) {
    client_->DeleteFile(r.stoc, r.file_id, /*in_memory=*/false);
  }
  if (kept.empty()) {
    return Status::IOError("no manifest replica reachable");
  }
  return Status::OK();
}

Status RangeEngine::RecoverFromManifest(int recovery_threads) {
  // The newest replica's records, and every replica at its version (one
  // per StoC); older ones are stale.
  std::vector<std::string> newest;
  uint64_t newest_version = 0;
  std::vector<ManifestReplica> at_newest;
  std::vector<std::pair<rdma::NodeId, std::vector<uint64_t>>> listings;
  for (rdma::NodeId stoc : placer_->options().stocs) {
    std::vector<uint64_t> files;
    if (!client_->ListFiles(stoc, &files).ok()) {
      continue;
    }
    for (uint64_t file_id : files) {
      if (stoc::FileIdRange(file_id) != options_.range_id ||
          stoc::FileIdKind(file_id) != stoc::FileKind::kManifest) {
        continue;
      }
      std::vector<std::string> records;
      uint64_t version = 0;
      if (!ReadManifestReplica(client_, stoc, file_id, &records, &version)
               .ok()) {
        continue;
      }
      if (newest.empty() || version > newest_version) {
        newest = std::move(records);
        newest_version = version;
        at_newest.clear();
      }
      if (version == newest_version &&
          (at_newest.empty() || at_newest.back().stoc != stoc)) {
        at_newest.push_back({stoc, file_id});
      }
    }
    listings.emplace_back(stoc, std::move(files));
  }
  if (newest.empty()) {
    return Status::IOError("no manifest replica of range " +
                           std::to_string(options_.range_id) + " answered");
  }
  Status s = versions_->Recover(newest);
  if (!s.ok()) {
    return s;
  }
  at_newest.resize(std::min(at_newest.size(),
                            static_cast<size_t>(options_.manifest_replicas)));
  {
    std::lock_guard<std::mutex> l(manifest_mu_);
    manifest_ = at_newest;
  }
  // The sweep deletes the stale replicas, and the pieces the recovered
  // version does not name: never committed, or retired and never deleted.
  // GcStocFiles sweeps a StoC that is down now once it returns.
  for (const auto& [stoc, files] : listings) {
    SweepStocFiles(stoc, files);
  }
  return InstallRecoveredState(recovery_threads);
}

void RangeEngine::SweepStocFiles(rdma::NodeId stoc,
                                 const std::vector<uint64_t>& files) {
  for (uint64_t file_id : files) {
    stoc::FileKind kind = stoc::FileIdKind(file_id);
    if (stoc::FileIdRange(file_id) != options_.range_id ||
        kind == stoc::FileKind::kLog) {
      continue;
    }
    // A new file under this number would append behind these bytes
    // (BlockStore::Append extends a file) and read as garbage.
    uint32_t number = stoc::FileIdNumber(file_id);
    versions_->MarkFileNumberUsed(number);
    bool live = kind == stoc::FileKind::kManifest
                    ? IsManifestReplica(stoc, file_id)
                    : IsFileNumberLive(number);
    if (!live) {
      client_->DeleteFile(stoc, file_id, /*in_memory=*/false);
    }
  }
}

Status RangeEngine::InstallRecoveredState(int recovery_threads) {
  last_sequence_.store(versions_->last_sequence());
  std::string dstate = versions_->drange_state();
  if (!dstate.empty()) {
    drange_->Deserialize(dstate);
  }
  l0_bytes_.store(versions_->current()->LevelBytes(0));
  // Rebuild the range index from the recovered Dranges and L0 files
  // (Section 4.5).
  if (options_.enable_range_index) {
    for (const std::string& b : drange_->Boundaries()) {
      range_index_->SplitAt(b);
    }
    lsm::VersionRef v = versions_->current();
    for (const auto& f : v->files(0)) {
      range_index_->AddL0File(f->number, f->smallest.user_key().ToString(),
                              f->largest.user_key().ToString());
    }
  }

  std::map<uint64_t, std::vector<logc::LogRecord>> by_memtable;
  std::map<uint64_t, std::vector<stoc::InMemFileHandle>> handles;
  Status s = logc::LogClient::FetchAllLogRecords(
      client_, placer_->options().stocs, options_.range_id, &by_memtable,
      &handles);
  if (!s.ok()) {
    return s;
  }
  // Adopt the surviving log files so flushing the rebuilt memtables can
  // reclaim their StoC memory.
  for (auto& [file_id, replicas] : handles) {
    logc_->Adopt(stoc::FileIdNumber(file_id), std::move(replicas));
  }
  std::vector<std::pair<uint64_t, std::vector<logc::LogRecord>*>> work;
  for (auto& [mid, recs] : by_memtable) {
    work.emplace_back(mid, &recs);
  }
  // Reserve every logged mid before the first rebuilt memtable is queued:
  // the maintenance thread may flush it and merge it into a fresh mid
  // while later workers are still installing theirs, and a fresh mid
  // equal to a logged one would replace that memtable and its log file.
  if (!work.empty()) {
    next_mid_.store(std::max(next_mid_.load(), work.back().first + 1));
  }
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> max_seq{last_sequence_.load()};
  const sim::CostModel& costs = sim::DefaultCostModel();
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= work.size()) {
        return;
      }
      auto [mid, recs] = work[i];
      auto mem = std::make_shared<MemTable>(icmp_, mid);
      mem->set_drange_id(-1);
      for (const auto& rec : *recs) {
        throttle_->Charge(costs.flush_per_record_us);
        mem->Add(rec.sequence, rec.type, rec.key, rec.value);
        if (options_.enable_lookup_index) {
          lookup_index_.Update(rec.key, mid, rec.sequence);
        }
        uint64_t prev = max_seq.load();
        while (rec.sequence > prev &&
               !max_seq.compare_exchange_weak(prev, rec.sequence)) {
        }
      }
      mem->MarkImmutable();
      mid_table_.SetMemtable(mid, mem);
      std::string lo = mem->SmallestUserKey();
      std::string hi = mem->LargestUserKey();
      if (options_.enable_range_index && !lo.empty()) {
        range_index_->AddMemtable(mid, lo, hi + std::string(1, '\0'));
      }
      std::lock_guard<std::mutex> lk(mu_);
      all_memtables_[mid] = mem;
      flush_queue_.push_back(mem);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < std::max(1, recovery_threads); t++) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
  last_sequence_.store(max_seq.load());

  // Rebuild lookup-index entries for keys living in L0 SSTables. Without
  // this, a rebuilt memtable holding an *old* version of a key would win
  // index lookups over a newer version that was flushed before the crash.
  // Each L0 file gets a synthetic mid so MIDToTable resolves to it and
  // compaction upkeep retires the entries normally.
  if (options_.enable_lookup_index) {
    lsm::VersionRef v = versions_->current();
    // Keys whose newest version was compacted into L1+ before the crash
    // must not be claimed by an older memtable/L0 version: live operation
    // leaves such keys with a dangling index slot that still carries the
    // newest seq, and Get uses that claimed seq to route down to the
    // levels. Recreate the same shape here by claiming every L1+ key
    // under one sentinel mid that is never registered in MIDToTable —
    // a hit on it fails to resolve and falls through to SearchLevels.
    // L0 is indexed last so an L0 copy at the same seq wins the slot
    // (>= guard) and keeps the resolvable fast path.
    uint64_t levels_mid = next_mid_.fetch_add(1);
    for (int level = v->num_levels() - 1; level >= 0; level--) {
      for (const auto& f : v->files(level)) {
        lsm::TableCache::Handle handle;
        if (!table_cache_->GetReader(f, &handle).ok()) {
          continue;
        }
        uint64_t mid = levels_mid;
        if (level == 0) {
          mid = next_mid_.fetch_add(1);
          mid_table_.SetFile(mid, f->number);
          std::lock_guard<std::mutex> cl(compaction_mu_);
          file_to_mids_[f->number].push_back(mid);
        }
        std::unique_ptr<Iterator> it(
            handle.reader->NewIterator(ScanIteratorOptions(kAllRows)));
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
          throttle_->Charge(costs.flush_per_record_us);
          ParsedInternalKey parsed;
          if (ParseInternalKey(it->key(), &parsed)) {
            lookup_index_.Update(parsed.user_key, mid, parsed.sequence);
          }
        }
      }
    }
  }
  return Status::OK();
}

std::string RangeEngine::SnapshotRecord() {
  lsm::VersionEdit snapshot;
  snapshot.manifest_version = versions_->manifest_version();
  lsm::VersionRef v = versions_->current();
  for (int level = 0; level < v->num_levels(); level++) {
    for (const auto& f : v->files(level)) {
      snapshot.new_files.emplace_back(level, *f);
    }
  }
  snapshot.last_sequence = last_sequence_.load();
  snapshot.next_file_number = versions_->NewFileNumber() + 1;
  snapshot.drange_state = drange_->Serialize();
  std::string out;
  snapshot.EncodeTo(&out);
  return out;
}

Status RangeEngine::InstallFromMigrationState(const Slice& state,
                                              int recovery_threads) {
  Status s = versions_->Recover({state.ToString()});
  if (!s.ok()) {
    return s;
  }
  return InstallRecoveredState(recovery_threads);
}

void RangeEngine::BeginDecommission() {
  stopping_.store(true);
  // Same lost-wakeup pairing as FinishCompaction: stopping_ is stored
  // outside mu_, and a writer blocking on stall_cv_ must not miss the
  // only notify that will ever release it.
  { std::lock_guard<std::mutex> lk(mu_); }
  stall_cv_.notify_all();
}

void RangeEngine::FlushAllMemtables() {
  std::lock_guard<std::mutex> lk(mu_);
  // An empty active may have a put in flight, logged to the list the
  // active was created under: retired, it sends that put to a new active.
  for (auto it = actives_.begin(); it != actives_.end();) {
    RetireLocked((it++)->second);  // erases its entry
  }
  QueueParkedLocked();
}

void RangeEngine::QueueParkedLocked() {
  for (auto& [did, mids] : small_immutables_) {
    for (uint64_t mid : mids) {
      auto it = all_memtables_.find(mid);
      if (it != all_memtables_.end()) {
        flush_queue_.push_back(it->second);
      }
    }
    mids.clear();
  }
}

void RangeEngine::WaitForQuiescence(bool flush_all) {
  for (;;) {
    MaintenanceTick();
    bool idle;
    {
      std::lock_guard<std::mutex> lk(mu_);
      idle = FlushesIdleLocked();
    }
    if (idle && stopping_.load()) {
      // Decommission (migration/removal): writers that entered
      // RouteAndAppend before stopping_ was set may still have log
      // appends in flight; hand off only after they have returned.
      idle = foreground_writes_.load(std::memory_order_acquire) == 0;
    }
    if (idle) {
      std::lock_guard<std::mutex> cl(compaction_mu_);
      idle = compactions_inflight_ == 0;
    }
    if (idle) {
      idle = DeleteRetiredTables();
    }
    if (idle) {
      idle = !manifest_move_queued_.load() && !ManifestMustMove();
    }
    if (idle && flush_all) {
      lsm::VersionRef v = versions_->current();
      idle = lsm::CompactionPicker::Pick(*versions_, v, 1).empty();
    }
    if (idle) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string RangeEngine::DebugMaintenanceState() {
  std::string out;
  char buf[256];
  {
    std::lock_guard<std::mutex> lk(mu_);
    snprintf(buf, sizeof(buf),
             "flush_queue=%zu inflight_flushes=%d memtables=%zu",
             flush_queue_.size(), flushes_inflight_, all_memtables_.size());
    out += buf;
    {
      std::lock_guard<std::mutex> l(flush_mu_);
      snprintf(buf, sizeof(buf), " armed_flushes=%zu committing=%d/%d",
               flush_outputs_.size(), commit_running_, unpublished_commits_);
      out += buf;
    }
    out += " actives=[";
    for (const auto& [did, mem] : actives_) {
      snprintf(buf, sizeof(buf), "%d:%llu ", did,
               (unsigned long long)mem->num_entries());
      out += buf;
    }
    out += "] small=[";
    for (const auto& [did, mids] : small_immutables_) {
      snprintf(buf, sizeof(buf), "%d:%zu ", did, mids.size());
      out += buf;
    }
    out += "] mems=[";
    for (const auto& [mid, mem] : all_memtables_) {
      snprintf(buf, sizeof(buf), "%llu:%llu%s ",
               (unsigned long long)mid, (unsigned long long)mem->num_entries(),
               mem->immutable() ? "i" : "");
      out += buf;
    }
    out += "]";
  }
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    snprintf(buf, sizeof(buf),
             " inflight_compactions=%d compacting_files=%zu hulls=%zu",
             compactions_inflight_, compacting_files_.size(),
             inflight_hulls_.size());
    out += buf;
  }
  return out;
}

RangeStats RangeEngine::stats() const {
  RangeStats out;
  {
    std::lock_guard<std::mutex> l(stats_mu_);
    out = stats_;
  }
  out.readahead_issued =
      readahead_counters_.issued.load(std::memory_order_relaxed);
  out.readahead_hits =
      readahead_counters_.hits.load(std::memory_order_relaxed);
  return out;
}

bool RangeEngine::IsFileNumberLive(uint64_t number) {
  // In this order: a commit publishes a number before it releases it, and
  // a compaction retires a number before the version drops it.
  {
    std::lock_guard<std::mutex> l(numbers_mu_);
    auto it = unpublished_numbers_.upper_bound(number);
    if (it != unpublished_numbers_.begin() &&
        number - std::prev(it)->first < std::prev(it)->second) {
      return true;
    }
  }
  if (versions_->current()->Find(number) != nullptr) {
    return true;
  }
  std::lock_guard<std::mutex> l(numbers_mu_);
  return std::any_of(retired_.begin(), retired_.end(),
                     [number](const lsm::FileMetaRef& f) {
                       return f->number == number;
                     });
}

bool RangeEngine::DeleteRetiredTables() {
  // Read before the retired list: a compaction retires its inputs before
  // it publishes the version without them.
  lsm::VersionRef v = versions_->current();
  std::vector<lsm::FileMetaRef> dead;
  {
    std::lock_guard<std::mutex> l(numbers_mu_);
    if (deleting_retired_) {
      return false;
    }
    // A number goes once every retired metadata of it is unheld.
    std::set<uint64_t> held;
    for (const auto& f : retired_) {
      if (f.use_count() > 1) {
        held.insert(f->number);
      }
    }
    for (const auto& f : retired_) {
      if (held.count(f->number) == 0) {
        dead.push_back(f);
      }
    }
    if (dead.empty()) {
      return true;
    }
    deleting_retired_ = true;
  }
  auto task = [this, v, dead] {
    // A number still in the version (metadata a repair swapped out) has
    // nothing of its own to delete. No reader is left to put a deleted
    // table's blocks back in the cache.
    std::vector<uint64_t> numbers;
    for (const auto& f : dead) {
      if (v->Find(f->number) == nullptr) {
        placer_->Delete(*f);
        numbers.push_back(f->number);
      }
    }
    table_cache_->Evict(numbers);
    std::lock_guard<std::mutex> l(numbers_mu_);
    for (const auto& f : dead) {
      retired_.erase(std::find(retired_.begin(), retired_.end(), f));
    }
    deleting_retired_ = false;
  };
  if (!compaction_pool_->Submit(task)) {
    std::lock_guard<std::mutex> l(numbers_mu_);
    deleting_retired_ = false;  // the LTC is stopping
  }
  return false;
}

Status RangeEngine::SwapFileMeta(const lsm::FileMetaData& updated) {
  // Claim the file number in compacting_files_ so no compaction starts on
  // it while the swap's manifest append is in flight; conversely, a file
  // already claimed by a compaction returns Busy — by the time the repair
  // manager retries, the compaction has either retired the file (repair is
  // moot) or released it.
  {
    std::lock_guard<std::mutex> cl(compaction_mu_);
    if (compacting_files_.count(updated.number)) {
      return Status::Busy("file is being compacted");
    }
    compacting_files_.insert(updated.number);
  }
  struct Unclaim {
    RangeEngine* e;
    uint64_t number;
    ~Unclaim() {
      std::lock_guard<std::mutex> cl(e->compaction_mu_);
      e->compacting_files_.erase(number);
    }
  } unclaim{this, updated.number};
  // Locate the file's level; compactions cannot move it while we hold the
  // claim, so the snapshot stays accurate through LogAndApply.
  int level = -1;
  lsm::FileMetaRef old = versions_->current()->Find(updated.number, &level);
  if (old == nullptr) {
    return Status::NotFound("file no longer live");
  }
  lsm::VersionEdit edit;
  edit.deleted_files.emplace_back(level, updated.number);
  edit.new_files.emplace_back(level, updated);
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    return s;
  }
  // Retired, the old metadata keeps the number live for its readers
  // should a compaction retire the new one. New opens see the new one.
  {
    std::lock_guard<std::mutex> l(numbers_mu_);
    retired_.push_back(std::move(old));
  }
  table_cache_->Evict({updated.number});
  return Status::OK();
}

std::string RangeEngine::DebugLookupState(const Slice& key) {
  char buf[256];
  uint64_t mid = 0, iseq = 0;
  if (!lookup_index_.LookupWithSeq(key, &mid, &iseq)) {
    return "no-index-entry";
  }
  MidTable::Entry entry;
  if (!mid_table_.Get(mid, &entry)) {
    snprintf(buf, sizeof(buf), "mid=%llu iseq=%llu midtable-missing",
             (unsigned long long)mid, (unsigned long long)iseq);
    return buf;
  }
  if (entry.is_file) {
    snprintf(buf, sizeof(buf), "mid=%llu iseq=%llu file=%llu l0=%d",
             (unsigned long long)mid, (unsigned long long)iseq,
             (unsigned long long)entry.file_number,
             versions_->current()->Find(entry.file_number) != nullptr);
    return buf;
  }
  LookupKey lkey(key, kMaxSequenceNumber);
  std::string v;
  Status s;
  SequenceNumber seq = 0;
  bool found = entry.memtable->Get(lkey, &v, &s, &seq);
  snprintf(buf, sizeof(buf),
           "mid=%llu iseq=%llu memtable found=%d seq=%llu val=%.12s "
           "drange=%d entries=%llu",
           (unsigned long long)mid, (unsigned long long)iseq, found,
           (unsigned long long)seq, v.c_str(), entry.memtable->drange_id(),
           (unsigned long long)entry.memtable->num_entries());
  return buf;
}

std::string RangeEngine::DebugFindNewest(const Slice& key) {
  LookupKey lkey(key, kMaxSequenceNumber);
  char buf[256];
  NewestVersion newest;
  std::string where = "nowhere";
  // Probes one table; true when it holds the newest version so far.
  auto took_newest = [&](auto* table) {
    SequenceNumber before = newest.seq;
    return newest.Probe(table, lkey) && newest.seq > before;
  };
  std::vector<std::pair<uint64_t, MemTableRef>> mems;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& [m, mem] : all_memtables_) {
      mems.emplace_back(m, mem);
    }
  }
  for (auto& [m, mem] : mems) {
    if (took_newest(mem.get())) {
      snprintf(buf, sizeof(buf), "memtable mid=%llu seq=%llu im=%d dr=%d",
               (unsigned long long)m, (unsigned long long)newest.seq,
               mem->immutable(), mem->drange_id());
      where = buf;
    }
  }
  lsm::VersionRef version = versions_->current();
  for (int level = 0; level < version->num_levels(); level++) {
    for (const auto& f : version->files(level)) {
      lsm::TableCache::Handle handle;
      if (!table_cache_->GetReader(f, &handle).ok()) continue;
      if (took_newest(handle.reader)) {
        snprintf(buf, sizeof(buf), "L%d file=%llu seq=%llu", level,
                 (unsigned long long)f->number,
                 (unsigned long long)newest.seq);
        where = buf;
      }
    }
  }
  return where;
}

int RangeEngine::num_memtables() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(all_memtables_.size());
}

}  // namespace ltc
}  // namespace nova
