// RangeEngine: one application range's LSM-tree at an LTC (paper
// Section 4). It ties together every Nova-LSM mechanism:
//   * θ Dranges, each with an active memtable; a minor or major
//     reorganization retires the actives of the Dranges it moved;
//   * the lookup index (key -> memtable | L0 SSTable via MIDToTable) and
//     the range index (keyspace partitions -> overlapping tables);
//   * flushing with the small-memtable merge policy (< ~100 unique keys
//     are re-logged into a fresh memtable instead of hitting disk);
//   * write stalls when all δ memtables are in use or L0 exceeds its
//     limit (Challenge 1), with stall time accounted for the benchmarks;
//   * disjoint parallel L0 compactions split at Drange boundaries,
//     executed locally or offloaded to a StoC of the placement list;
//   * crash recovery from the replicated MANIFEST + log records, and
//     range migration between LTCs (Sections 4.5, 8.2.6, 9).
//
// Thread model: client worker threads call Put/Get/Scan/Delete; the
// owning LtcServer drives MaintenanceTick() from its maintenance thread
// and provides shared flush/compaction pools.
#ifndef NOVA_LTC_RANGE_ENGINE_H_
#define NOVA_LTC_RANGE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "logc/log_client.h"
#include "lsm/compaction.h"
#include "lsm/table_io.h"
#include "lsm/version.h"
#include "ltc/drange.h"
#include "ltc/lookup_index.h"
#include "ltc/range_index.h"
#include "mem/memtable.h"
#include "sim/cpu_throttle.h"
#include "util/compressor.h"
#include "util/thread_pool.h"

namespace nova {
namespace ltc {

/// SSTable flush writes in flight per StoC, over all of the LTC's ranges
/// (StocClient write slots): each disk has its next write queued, and a
/// MANIFEST append queues behind at most this many fragment writes.
constexpr int kMaxFlushWritesPerStoc = 2;

struct RangeEngineOptions {
  uint32_t range_id = 0;
  std::string lower;
  std::string upper;  // empty = unbounded

  DrangeOptions drange;
  /// false => the paper's Nova-LSM-R ablation: writes pick a random
  /// active memtable, L0 SSTables span the whole keyspace.
  bool enable_dranges = true;
  bool enable_lookup_index = true;
  bool enable_range_index = true;
  /// Merge immutable memtables with < unique_key_threshold unique keys
  /// instead of flushing them (Section 4.2; off in Nova-LSM-R/S). Needs
  /// enable_lookup_index: a merged memtable waits in memory outside the
  /// flush order, so it can hold versions older than ones compacted into
  /// L1+ meanwhile, and only the index's claimed sequence sends a Get on
  /// to the levels.
  bool enable_memtable_merge = true;
  int unique_key_threshold = 100;

  size_t memtable_size = 256 << 10;  // τ
  int max_memtables = 32;            // δ
  /// Active memtables when Dranges are disabled (Nova-R); with Dranges,
  /// the number of Dranges (θ, plus duplicates) governs actives.
  int num_active_memtables = 8;  // α

  lsm::LsmOptions lsm;
  logc::LogOptions log;
  /// Codec data blocks are written with. kNoCompression stores every
  /// block raw (still with the codec/length/crc trailer).
  CompressionCodec compression_codec = kNovaLzCompression;
  uint64_t max_sstable_size = 512 << 10;
  int max_parallel_compactions = 4;
  /// Offload compaction jobs to StoCs (Section 4.3): each job goes to the
  /// StoC the placement rule picks (SSTablePlacer::PickStocs) and runs on
  /// the LTC when the offload fails.
  bool offload_compaction = false;
  /// Replicas of the MANIFEST file, each on a StoC of the placement list.
  int manifest_replicas = 1;
};

struct RangeStats {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t stall_us = 0;
  uint64_t stall_events = 0;
  uint64_t flushes = 0;
  uint64_t memtable_merges = 0;
  uint64_t compactions = 0;
  uint64_t lookup_index_hits = 0;
  uint64_t lookup_index_misses = 0;
  /// Data-block cache counters. The cache tiers are node-wide, so only
  /// LtcServer::TotalStats() fills these; per-range numbers stay zero.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_cache_bytes = 0;
  /// Compressed-tier counters (same ownership rule as the hot tier).
  uint64_t block_cache_compressed_hits = 0;
  uint64_t block_cache_compressed_misses = 0;
  uint64_t block_cache_compressed_bytes = 0;
  /// Compression accounting: stored (possibly compressed) vs raw bytes of
  /// every SSTable this range built (flushes + compactions, including
  /// offloaded ones). raw/stored = the achieved compression ratio.
  uint64_t sstable_stored_bytes = 0;
  uint64_t sstable_raw_bytes = 0;
  /// StoC wire traffic (StocClient byte counters; shared-client rule as
  /// pod_reads — filled once by LtcServer::TotalStats).
  uint64_t bytes_over_wire = 0;
  /// Scan and log-rebuild run counters: data blocks a run fetched ahead
  /// of the block that missed, and those of them the iterator reached.
  uint64_t readahead_issued = 0;
  uint64_t readahead_hits = 0;
  /// Compaction pipeline accounting (includes offloaded jobs, which
  /// report their numbers back in the CompactionResult): data blocks the
  /// input iterators' runs fetched ahead of a missed block, input/output
  /// bytes moved, and total time jobs spent queued between scheduling and
  /// execution start.
  uint64_t compaction_prefetches = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t compaction_queue_us = 0;
  /// Offload outcomes: jobs completed on a StoC, offload attempts that
  /// failed, and failed offloads retried (successfully or not) locally.
  uint64_t compaction_offloads = 0;
  uint64_t compaction_offload_failures = 0;
  uint64_t compaction_local_fallbacks = 0;
  /// Read-path replica selection (StocClient counters). Like the cache
  /// tiers, the client is node-wide: per-range numbers stay zero and
  /// LtcServer::TotalStats() reports the shared client once.
  uint64_t pod_reads = 0;
  uint64_t hedged_issued = 0;
  uint64_t hedged_won = 0;
  /// Repair accounting (ISSUE 9; filled by ltc::RepairManager through
  /// LtcServer::TotalStats — per-range numbers stay zero).
  /// degraded_fragments is a gauge: fragment/parity/meta replicas whose
  /// StoC is currently dead and which have not been re-replicated yet.
  uint64_t degraded_fragments = 0;
  uint64_t repaired_fragments = 0;
  uint64_t repaired_bytes = 0;
  /// Wall time from a death verdict to the scan that found the node's
  /// files fully re-replicated (the measured repair window).
  uint64_t repair_us = 0;

  /// The single roll-up used by LtcServer and Cluster TotalStats — new
  /// fields only need to be added here.
  RangeStats& operator+=(const RangeStats& o) {
    puts += o.puts;
    gets += o.gets;
    stall_us += o.stall_us;
    stall_events += o.stall_events;
    flushes += o.flushes;
    memtable_merges += o.memtable_merges;
    compactions += o.compactions;
    lookup_index_hits += o.lookup_index_hits;
    lookup_index_misses += o.lookup_index_misses;
    block_cache_hits += o.block_cache_hits;
    block_cache_misses += o.block_cache_misses;
    block_cache_bytes += o.block_cache_bytes;
    block_cache_compressed_hits += o.block_cache_compressed_hits;
    block_cache_compressed_misses += o.block_cache_compressed_misses;
    block_cache_compressed_bytes += o.block_cache_compressed_bytes;
    sstable_stored_bytes += o.sstable_stored_bytes;
    sstable_raw_bytes += o.sstable_raw_bytes;
    bytes_over_wire += o.bytes_over_wire;
    readahead_issued += o.readahead_issued;
    readahead_hits += o.readahead_hits;
    compaction_prefetches += o.compaction_prefetches;
    compaction_bytes_read += o.compaction_bytes_read;
    compaction_bytes_written += o.compaction_bytes_written;
    compaction_queue_us += o.compaction_queue_us;
    compaction_offloads += o.compaction_offloads;
    compaction_offload_failures += o.compaction_offload_failures;
    compaction_local_fallbacks += o.compaction_local_fallbacks;
    pod_reads += o.pod_reads;
    hedged_issued += o.hedged_issued;
    hedged_won += o.hedged_won;
    degraded_fragments += o.degraded_fragments;
    repaired_fragments += o.repaired_fragments;
    repaired_bytes += o.repaired_bytes;
    repair_us += o.repair_us;
    return *this;
  }
};

class RangeEngine {
 public:
  /// placement: the range's one StoC list, which the cluster keeps current
  /// (SSTablePlacer::UpdateStocs), and how it places SSTables. New log
  /// files, log recovery, MANIFEST replicas and offloaded compactions all
  /// read the list as it is when they run.
  /// block_cache / compressed_cache: the LTC's node-wide hot and
  /// compressed block tiers, shared by every range (null = tier off).
  RangeEngine(const RangeEngineOptions& options, stoc::StocClient* client,
              const lsm::PlacementOptions& placement,
              sim::CpuThrottle* throttle, ThreadPool* flush_pool,
              ThreadPool* compaction_pool, Cache* block_cache,
              Cache* compressed_cache);
  ~RangeEngine();

  RangeEngine(const RangeEngine&) = delete;
  RangeEngine& operator=(const RangeEngine&) = delete;

  /// Unless the range holds its MANIFEST replicas already, write them. Call
  /// once before use: after recovering or installing the range's state when
  /// it moves here. (Each Drange's active memtable is created by the first
  /// put that routes to it.)
  void Bootstrap();

  Status Put(const Slice& key, const Slice& value);
  Status Delete(const Slice& key);
  /// Get and Scan take no snapshot: each reads a key's newest version
  /// when it reaches the key, the one version a flush, memtable merge or
  /// compaction keeps.
  Status Get(const Slice& key, std::string* value);
  /// Appends records from start_key onward until *out holds num_records
  /// entries in total (so Cluster::Scan's hops across ranges compose) or
  /// this range's keyspace is exhausted. Read committed: a key written
  /// while the scan runs may show its old or its new version.
  Status Scan(const Slice& start_key, int num_records,
              std::vector<std::pair<std::string, std::string>>* out);

  /// Drive reorganizations, flush dispatch, and compaction scheduling.
  /// Non-blocking; called periodically by the LtcServer.
  void MaintenanceTick();

  /// Block until no flushes or compactions are in flight, nothing is
  /// queued and no MANIFEST replica must move (tests / orderly shutdown /
  /// graceful StoC removal).
  void WaitForQuiescence(bool flush_all = false);

  /// Retire every active memtable and queue every parked merged one, so
  /// each is flushed or merged again (a merge logs to the placement list
  /// as it is now). Used by tests, benchmarks and graceful StoC removal.
  void FlushAllMemtables();

  /// Stop accepting writes (reads keep working); used by migration so the
  /// extracted state cannot be invalidated by concurrent puts.
  void BeginDecommission();

  // --- Recovery & migration (Sections 4.5, 8.2.6) ---

  /// The current version as one record: every file as a new file, the
  /// last sequence, next file number, Drange state and MANIFEST version.
  /// It is everything a destination LTC needs (log records stay on the
  /// StoCs), and the first record of a new MANIFEST replica.
  std::string SnapshotRecord();
  /// Install migrated metadata and rebuild memtables from log records
  /// using `recovery_threads` parallel workers.
  Status InstallFromMigrationState(const Slice& state, int recovery_threads);
  /// Full crash recovery: reads every MANIFEST file of the range that a
  /// placement StoC lists, replays the one whose last record has the
  /// highest version and adopts the replicas at that version; then the
  /// sweep and the log replay. Fails when no replica answers: a range
  /// writes its MANIFEST when it is created.
  Status RecoverFromManifest(int recovery_threads);

  RangeStats stats() const;
  DrangeManager* dranges() { return drange_.get(); }
  lsm::VersionSet* versions() { return versions_.get(); }
  lsm::TableCache* table_cache() { return table_cache_.get(); }
  Cache* block_cache() { return block_cache_; }
  /// The one rule for SSTable pieces: a piece of this range's SSTable
  /// `number` may be deleted only when this is false. A number is live
  /// while a flush or compaction holds it (HoldNumbers), while the current
  /// version names it, and while it is retired (out of the version, or
  /// metadata a repair swapped out) and its pieces are not deleted yet.
  bool IsFileNumberLive(uint64_t number);
  /// The one sweep of a StoC's files, for recovery and GC (Section 9: the
  /// owning LTC decides): given the listing of a StoC's files, deletes
  /// each piece of this range's SSTables there whose number is not live
  /// and each MANIFEST file that is not one of the range's replicas, and
  /// never hands out the number of any such file again.
  void SweepStocFiles(rdma::NodeId stoc, const std::vector<uint64_t>& files);
  /// Delete, on a compaction pool thread, the pieces and cached blocks of
  /// the retired tables that nothing else holds (no VersionRef, FileMetaRef
  /// or compaction job). Returns whether no batch is running or due.
  bool DeleteRetiredTables();
  /// Atomically replace the placement metadata of a live SSTable (same
  /// file number, same key range — only BlockLocations change). Used by
  /// the repair manager after re-replicating fragments away from a dead
  /// StoC. Returns Busy if the file is being compacted (the caller
  /// retries on its next scan: the compaction either keeps the file,
  /// making the swap valid later, or retires it, making repair moot) and
  /// NotFound if the file is no longer live.
  Status SwapFileMeta(const lsm::FileMetaData& updated);
  LookupIndex* lookup_index() { return &lookup_index_; }
  RangeIndex* range_index() { return range_index_.get(); }
  lsm::SSTablePlacer* placer() { return placer_.get(); }
  /// The StoCs holding this range's MANIFEST replicas.
  std::vector<rdma::NodeId> manifest_stocs();
  const RangeEngineOptions& options() const { return options_; }
  int num_memtables();
  uint64_t l0_bytes() const { return l0_bytes_.load(); }
  /// For fault-injection tests: how many Gets met a table they could not
  /// open or read.
  uint64_t degraded_gets() const { return degraded_gets_.load(); }
  /// How many times a Scan re-collected a stretch after a failed read.
  uint64_t scan_stretch_retries() const {
    return scan_stretch_retries_.load();
  }

  /// Diagnostic: where does the lookup index say `key` lives, and what is
  /// the newest sequence actually present there (tests/debugging).
  std::string DebugLookupState(const Slice& key);
  /// Diagnostic: one-line snapshot of the background machinery (flush
  /// queue, in-flight work, memtable census) for stuck-state triage.
  std::string DebugMaintenanceState();
  /// Diagnostic: exhaustively locate the newest version of key.
  std::string DebugFindNewest(const Slice& key);

 private:
  /// A new active memtable for Drange did, registered in the range index
  /// under the Drange's bounds. Requires mu_.
  MemTableRef NewMemTableLocked(int did);
  /// Route a put to its Drange's active memtable, creating or retiring it
  /// there under the same hold of mu_ (handles the stalls), then log the
  /// record and add it to the memtable.
  Status RouteAndAppend(SequenceNumber seq, ValueType type, const Slice& key,
                        const Slice& value);
  /// The one way an active memtable retires: it stops taking writes and
  /// goes to the flush queue, unless it is no longer its Drange's active.
  /// Requires mu_.
  void RetireLocked(MemTableRef mem);
  /// A Drange reorganization as one step under mu_ (Section 4.1): retire
  /// the actives of the Dranges it moved, and of the Drange ids a major
  /// reorganization dropped, and split the range index at the new bounds.
  /// No put routes by the new bounds into a memtable registered under the
  /// old ones.
  void Reorganize();
  /// Write stall (Challenge 1): block on stall_cv_ until cleared() holds or
  /// the engine is stopping, counting the event and its wait time.
  /// Returns false when the engine is stopping.
  template <typename Pred>
  bool StallUntil(std::unique_lock<std::mutex>& lk, Pred cleared);
  /// True while the δ memtable budget has room. Requires mu_.
  bool MemtableBudgetFree() const {
    return static_cast<int>(all_memtables_.size()) < options_.max_memtables;
  }
  /// The flush pipeline (paper Section 4.4: an LTC flushes into the disk
  /// bandwidth of many StoCs at once). A flush thread builds a memtable's
  /// SSTable, arms its writes and returns; the SSTable commits once its
  /// last append is acknowledged, through this range's one commit in
  /// flight, which takes every acknowledged SSTable into one LogAndApply.
  struct FlushOutput;
  void FlushTask(MemTableRef mem);
  /// Build the memtables' SSTable and arm its writes (at most
  /// kMaxFlushWritesPerStoc in flight per StoC across the LTC). Once
  /// armed, the SSTable owns the memtables: its commit retires them, a
  /// failure deletes its pieces and requeues them.
  Status FlushToSSTable(const std::vector<MemTableRef>& mems);
  /// An armed SSTable was acknowledged (or overdue): start the range's
  /// commit unless one is forming or appending its batch. Any thread,
  /// never blocks.
  void OnFlushAcked();
  /// The commit: one LogAndApply batch of every acknowledged or overdue
  /// SSTable. Once its MANIFEST append is done, the next batch may start
  /// on another pool thread while this one publishes.
  void CommitFlushes();
  void CommitBatch(std::vector<std::unique_ptr<FlushOutput>> batch);
  /// No flush queued, running, armed or committing. Requires mu_.
  bool FlushesIdleLocked();
  /// File numbers handed out whose SSTables are not in the version.
  void HoldNumbers(uint64_t first, uint64_t count);
  void ReleaseNumbers(uint64_t first);
  /// Merge small memtables into a fresh one (re-logging its records).
  Status MergeSmallMemtables(const std::vector<MemTableRef>& mems,
                             int drange_id);
  /// Drop memtables that leave without an SSTable (empty, or merged), with
  /// their index entries and log files, and wake stalled writers.
  void DropMemtables(const std::vector<MemTableRef>& mems);
  /// Move every parked merged memtable (small_immutables_) to the flush
  /// queue. Requires mu_.
  void QueueParkedLocked();
  void ScheduleCompactions();
  /// queue_us: time the job waited between scheduling and pool pickup.
  void RunCompaction(lsm::CompactionJob job, uint64_t queue_us);
  Status ApplyCompactionResult(const lsm::CompactionJob& job,
                               const lsm::CompactionResult& result);
  /// One MANIFEST replica: a file of this range, under a file number of
  /// its own, on a StoC of the placement list.
  struct ManifestReplica {
    rdma::NodeId stoc;
    uint64_t file_id;
  };
  /// One append per MANIFEST replica carrying every record of a
  /// group-committed batch (lsm::ManifestSink). The LogAndApply leader
  /// runs it, so appends never overlap. A replica whose StoC left the
  /// placement list or whose append failed is replaced: a new replica on
  /// a routable StoC of the list that holds none is one SnapshotRecord,
  /// then the batch. A range's first replicas are placed as an SSTable's
  /// pieces would be (SSTablePlacer::PickStocs).
  Status ManifestAppend(const std::vector<std::string>& records);
  /// A replica sits on a StoC that left the placement list. (A range short
  /// of replicas for another reason tops them up at its next commit.)
  bool ManifestMustMove();
  /// Commit an empty edit: its MANIFEST append moves the replicas.
  void MoveManifest();
  bool IsManifestReplica(rdma::NodeId stoc, uint64_t file_id);
  /// The newest version of a key (a tombstone included) among the tables
  /// probed so far: Get's one selection rule.
  struct NewestVersion;
  /// Probe every memtable, snapshotted under mu_.
  void ProbeMemtables(const LookupKey& lkey, NewestVersion* newest);
  /// Probe the L0 SSTables whose key range and bloom filter admit the key.
  void ProbeL0(const LookupKey& lkey, NewestVersion* newest);
  /// Probe L1 and deeper, stopping at the first level that holds a
  /// version of the key.
  void SearchLevels(const LookupKey& lkey, NewestVersion* newest);
  /// Adopt what versions_->Recover restored (last sequence, Drange state,
  /// L0 bytes, range-index partitions), then rebuild the memtables and
  /// the lookup index from the log records.
  Status InstallRecoveredState(int recovery_threads);
  /// How scans and log rebuilds iterate SSTables: counted into
  /// readahead_counters_, with the rows the caller still wants (kAllRows
  /// for a whole-table sweep; see IteratorOptions::rows).
  IteratorOptions ScanIteratorOptions(int rows);

  RangeEngineOptions options_;
  stoc::StocClient* client_;
  sim::CpuThrottle* throttle_;
  ThreadPool* flush_pool_;
  ThreadPool* compaction_pool_;

  InternalKeyComparator icmp_;
  std::unique_ptr<DrangeManager> drange_;
  std::unique_ptr<lsm::VersionSet> versions_;
  Cache* block_cache_;
  Cache* compressed_cache_;
  /// Resolved from options_.compression_codec (null = store raw).
  const Compressor* compressor_ = nullptr;
  std::unique_ptr<lsm::TableCache> table_cache_;
  std::unique_ptr<lsm::SSTablePlacer> placer_;
  std::unique_ptr<lsm::CompactionExecutor> executor_;
  std::unique_ptr<logc::LogClient> logc_;
  LookupIndex lookup_index_;
  MidTable mid_table_;
  std::unique_ptr<RangeIndex> range_index_;

  std::atomic<uint64_t> last_sequence_{0};
  std::atomic<uint64_t> next_mid_{1};
  std::atomic<uint64_t> l0_bytes_{0};

  // Memtable lifecycle. mu_ guards the maps below, routing and Drange
  // reorganizations; individual memtable writes use the memtable's own
  // lock.
  std::mutex mu_;
  std::condition_variable stall_cv_;
  std::map<int, MemTableRef> actives_;             // by drange id
  std::map<uint64_t, MemTableRef> all_memtables_;  // by mid
  std::vector<MemTableRef> flush_queue_;
  std::map<int, std::vector<uint64_t>> small_immutables_;  // drange -> mids
  /// FlushTasks dispatched and not finished.
  int flushes_inflight_ = 0;

  /// Armed flush SSTables in arm order; whether a commit is forming or
  /// appending its batch (one MANIFEST append per range at a time); and
  /// batches taken but not yet published. Acknowledgment callbacks take
  /// flush_mu_ on xchg threads, so it is never held across an RPC, nor
  /// while an output is destroyed, and never taken before mu_.
  std::mutex flush_mu_;
  std::vector<std::unique_ptr<FlushOutput>> flush_outputs_;
  bool commit_running_ = false;
  int unpublished_commits_ = 0;
  /// What IsFileNumberLive counts besides the version: first held number
  /// -> count, and the retired tables until their pieces are deleted.
  std::mutex numbers_mu_;
  std::map<uint64_t, uint64_t> unpublished_numbers_;
  std::vector<lsm::FileMetaRef> retired_;
  bool deleting_retired_ = false;

  // Compaction bookkeeping.
  std::mutex compaction_mu_;
  std::set<uint64_t> compacting_files_;
  /// Key-range hulls of in-flight compactions; a new job overlapping any
  /// hull is deferred so concurrent jobs cannot emit overlapping files
  /// into the same level (reorgs shift Drange boundaries over time, so
  /// L0 groups from different epochs may overlap).
  std::vector<std::pair<std::string, std::string>> inflight_hulls_;
  int compactions_inflight_ = 0;
  /// L0 file number -> the mids flushed into it (for index upkeep when the
  /// file is compacted away).
  std::map<uint64_t, std::vector<uint64_t>> file_to_mids_;

  mutable std::mutex stats_mu_;
  RangeStats stats_;
  ReadaheadCounters readahead_counters_;
  std::atomic<uint64_t> degraded_gets_{0};
  std::atomic<uint64_t> scan_stretch_retries_{0};
  /// Guards manifest_ only: never held across an RPC, so the maintenance
  /// tick never waits on a MANIFEST append.
  std::mutex manifest_mu_;
  std::vector<ManifestReplica> manifest_;
  /// An empty edit that moves the replicas is queued on the flush pool.
  std::atomic<bool> manifest_move_queued_{false};
  std::atomic<bool> stopping_{false};
  /// Writers currently inside RouteAndAppend. A decommission must drain
  /// these before the range is handed off (see WaitForQuiescence): their
  /// log appends may still be landing at the StoCs, and a record arriving
  /// after the destination replayed the log files would be acknowledged
  /// here yet invisible there.
  std::atomic<int> foreground_writes_{0};
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_RANGE_ENGINE_H_
