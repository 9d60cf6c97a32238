// SSTable I/O over StoCs:
//  * StocBlockFetcher — reads a fragment range, failing over across
//    replicas and, when all replicas of a fragment are down, rebuilding
//    the fragment from the other fragments + the parity block (the paper's
//    Hybrid availability, Sections 3.1/4.4.1).
//  * TableCache — LTC-side cache of SSTableMetadata (index + bloom) and
//    open readers, keyed by file number (Section 4.1.1: "LTC caches them
//    in its memory"). Readers live in a sharded, charge-bounded LRU
//    (util/cache.h) — optionally the same instance that caches data
//    blocks — so concurrent gets on different files do not serialize on
//    one mutex and open readers are evicted under memory pressure instead
//    of accumulating forever.
//  * SSTablePlacer — writes the ρ fragments in parallel with R replicas
//    each, replicated metadata blocks and an optional parity block
//    (Section 4.4, Figure 9/10). One PickStocs call per SSTable orders
//    the StoCs, at random or by power-of-d on each StoC's disk load
//    (stoc::StocStats::disk_load_us: estimated service time of its
//    accepted and unfinished disk work plus its recent busy time), and
//    every piece takes its StoC from that order by the one placement rule
//    (lsm::PickPieceStoc, which repair uses too): first a StoC that holds
//    no piece of the SSTable.
#ifndef NOVA_LSM_TABLE_IO_H_
#define NOVA_LSM_TABLE_IO_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "lsm/file_meta.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "stoc/stoc_client.h"
#include "util/cache.h"
#include "util/random.h"

namespace nova {
namespace lsm {

/// XOR data into the front of *acc. The parity block is the XOR of every
/// data fragment zero-padded to the longest, so this one loop builds it
/// and recovers a lost fragment (parity XOR every other fragment).
void XorInto(std::string* acc, const Slice& data);

class StocBlockFetcher : public BlockFetcher {
 public:
  /// Keeps its own copy of meta: a reader parked in the TableCache must
  /// not keep a retired SSTable live (RangeEngine::IsFileNumberLive).
  StocBlockFetcher(stoc::StocClient* client, const FileMetaData& meta)
      : client_(client), meta_(meta) {}

  Status Fetch(int fragment, uint64_t offset, uint64_t size,
               std::string* out) override;

  /// Number of reads that had to be served by parity reconstruction.
  uint64_t degraded_reads() const { return degraded_reads_; }

 private:
  Status ReadFragment(int fragment, uint64_t offset, uint64_t size,
                      std::string* out);
  Status ReconstructFromParity(int fragment, std::string* full_fragment);

  stoc::StocClient* client_;
  const FileMetaData meta_;
  std::atomic<uint64_t> degraded_reads_{0};
};

class TableCache {
 public:
  /// Capacity of the private reader cache created when no shared cache is
  /// given (readers are small: metadata only).
  static constexpr size_t kDefaultReaderCacheBytes = 64 << 20;

  /// cache (optional): the sharded LRU backing the reader entries — at an
  /// LTC, the node-wide block cache, so readers and data blocks share one
  /// charge budget. When null, a private reader-only cache is created.
  /// cache_data_blocks: opened readers also consult `cache` for data
  /// blocks in ReadBlock (the StoC read-path block cache).
  /// compressed_cache (optional): the compressed block tier handed to
  /// every reader (see SSTableReader); invalidation sweeps it alongside
  /// the hot tier.
  explicit TableCache(stoc::StocClient* client, Cache* cache = nullptr,
                      uint32_t range_id = 0, bool cache_data_blocks = false,
                      Cache* compressed_cache = nullptr);
  ~TableCache();

  /// A pinned reader: keeps the underlying reader (and its fetcher) alive
  /// even if the entry is evicted concurrently (e.g., by memory pressure
  /// while a scan is mid-flight).
  struct Handle {
    std::shared_ptr<void> pin;
    SSTableReader* reader = nullptr;
  };

  /// Returns a cached (or freshly opened) pinned reader for the file.
  Status GetReader(const FileMetaRef& meta, Handle* handle);

  /// Drop the files' readers and every cached data block of the files,
  /// in one sweep of each cache tier (a repair swap and the deletion of
  /// retired tables invalidate through this).
  void Evict(const std::vector<uint64_t>& numbers);
  /// Resident (not yet reclaimed) reader entries opened by this cache.
  size_t size() const;

  Cache* cache() { return cache_; }

 private:
  struct Entry;
  static void DeleteEntry(const Slice& key, void* value);

  stoc::StocClient* client_;
  std::shared_ptr<std::atomic<size_t>> live_readers_;
  std::unique_ptr<Cache> owned_cache_;
  Cache* cache_;
  Cache* compressed_cache_;
  uint32_t range_id_;
  bool cache_data_blocks_;
};

struct PlacementOptions {
  /// Candidate StoCs; mutated by elasticity (add/remove StoC).
  std::vector<rdma::NodeId> stocs;
  /// Maximum scatter width ρ.
  int rho = 1;
  /// Use power-of-d (d = 2ρ) on disk load; otherwise random.
  bool power_of_d = true;
  /// Replication degree R for data fragments (1 = no replication).
  int num_data_replicas = 1;
  /// Metadata block replicas (Hybrid uses 3; small blocks).
  int num_meta_replicas = 1;
  /// Construct one parity block over the data fragments (Hybrid).
  bool use_parity = false;
  uint32_t range_id = 0;
};

class SSTablePlacer;

/// An SSTable whose scatter writes are in flight. StartWrite placed every
/// piece, filled in its location, and ran phases 1-2 of the Figure-10 flow
/// for it (buffer-grant RPC + one-sided data write); Wait drains the flush
/// acknowledgments and clears the location of every piece whose append
/// failed. The compaction executor keeps a small bound of these armed so
/// the merge loop never blocks on a StoC flush; a flush arms one and
/// commits it from OnReady. Dropping an unwaited one abandons its appends
/// safely (each PendingAppend reaps its completion token).
class PendingSSTable {
 public:
  /// How long Wait waits for the acknowledgments by default; a flush that
  /// commits from OnReady gives up on an SSTable after this long too.
  static constexpr int kAckTimeoutMs = 30000;

  PendingSSTable();
  ~PendingSSTable();
  PendingSSTable(PendingSSTable&&) noexcept;
  PendingSSTable& operator=(PendingSSTable&&) noexcept;

  bool valid() const { return state_ != nullptr; }
  /// True once every append's acknowledgment (or failure) landed, so Wait
  /// returns without blocking; never blocks.
  bool ready() const;
  /// Run fn once ready() holds: at once if it does, otherwise on the
  /// thread that delivers the last acknowledgment (see
  /// stoc::PendingAppend::OnReady; fn must not block). At most one fn.
  void OnReady(std::function<void()> fn);
  /// Collect every flush acknowledgment and fill *out, waiting at most
  /// timeout_ms for the whole batch. Call at most once; the pending state
  /// is consumed.
  Status Wait(FileMetaData* out, int timeout_ms = kAckTimeoutMs);

 private:
  friend class SSTablePlacer;
  struct Acks;
  struct State;
  std::unique_ptr<State> state_;
};

class SSTablePlacer {
 public:
  /// options are read under a lock on each write, so elasticity can mutate
  /// them (via UpdateStocs) while the system runs.
  SSTablePlacer(stoc::StocClient* client, const PlacementOptions& options);

  Status Write(SSTableBuilder::Result&& built, FileMetaData* out);

  /// Async half of Write: pick placements, issue and arm every append,
  /// and hand back the in-flight SSTable without waiting for flush acks.
  /// StartWrite + PendingSSTable::Wait == Write.
  ///
  /// max_writes_per_stoc > 0 bounds the writes in flight per StoC through
  /// the client's write slots: placement puts the data pieces (fragment
  /// replicas and parity) on StoCs with a free slot when there are such,
  /// reserves one slot on each of their StoCs, and the pending SSTable
  /// frees a StoC's slot once that StoC acknowledged its data pieces. A
  /// placement that lost a slot to another write places again at once;
  /// one that found no room waits for a release and places again, for at
  /// most PendingSSTable::kAckTimeoutMs (then Busy).
  Status StartWrite(SSTableBuilder::Result&& built, PendingSSTable* pending,
                    int max_writes_per_stoc = 0);

  /// Delete every StoC file of an SSTable: its fragment replicas, metadata
  /// replicas and parity block. Best effort; locations a failed write
  /// never filled in are skipped.
  void Delete(const FileMetaData& meta);

  void UpdateStocs(const std::vector<rdma::NodeId>& stocs);
  PlacementOptions options() const;

  /// Pick min(count, candidates) distinct StoCs, routable ones only
  /// unless none is, using the configured policy: at random, or the least
  /// loaded first of d random candidates (d = 2*count when 0, at least
  /// count). Asked for every candidate, it returns them all in random
  /// order without a probe (repair orders its targets so). With
  /// max_writes_per_stoc > 0, StoCs holding that many write slots come
  /// after every StoC with a free one.
  std::vector<rdma::NodeId> PickStocs(int count, int d = 0,
                                      int max_writes_per_stoc = 0);

 private:
  stoc::StocClient* client_;
  mutable std::mutex mu_;
  PlacementOptions options_;
  /// Seeded from the range id, so the ranges of one LTC do not all sample
  /// the same candidates at the same flush count.
  Random rng_;
};

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_TABLE_IO_H_
