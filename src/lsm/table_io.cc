#include "lsm/table_io.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "stoc/stoc_common.h"
#include "util/coding.h"
#include "util/logging.h"
#include "util/retry.h"

namespace nova {
namespace lsm {

void XorInto(std::string* acc, const Slice& data) {
  size_t n = std::min(acc->size(), data.size());
  for (size_t i = 0; i < n; i++) {
    (*acc)[i] ^= data[i];
  }
}

Status StocBlockFetcher::ReadFragment(int fragment, uint64_t offset,
                                      uint64_t size, std::string* out) {
  // Power-of-d replica selection + hedging live in the client: the read
  // goes to the least-loaded replicas, stragglers are hedged, and the
  // remaining candidates serve as failover.
  std::vector<stoc::GatherRead::Target> targets;
  targets.reserve(meta_.fragments[fragment].size());
  for (const BlockLocation& loc : meta_.fragments[fragment]) {
    targets.push_back({loc.stoc_id, loc.file_id});
  }
  return client_->ReadReplicated(targets, offset, size, out);
}

Status StocBlockFetcher::ReconstructFromParity(int fragment,
                                               std::string* full_fragment) {
  if (!meta_.parity.valid()) {
    return Status::Unavailable("fragment lost and no parity block");
  }
  // Parity is the XOR of all fragments zero-padded to the longest one.
  // Gather the parity block and every surviving fragment in one parallel
  // batch (replica failover included) — the degraded read costs one
  // round-trip-ish, not |fragments| serial ones.
  std::vector<stoc::GatherRead> reads;
  reads.emplace_back();
  reads.back().replicas.push_back(
      {meta_.parity.stoc_id, meta_.parity.file_id});
  for (int f = 0; f < static_cast<int>(meta_.fragments.size()); f++) {
    if (f == fragment) {
      continue;
    }
    reads.emplace_back();
    reads.back().size = meta_.fragment_sizes[f];
    for (const BlockLocation& loc : meta_.fragments[f]) {
      reads.back().replicas.push_back({loc.stoc_id, loc.file_id});
    }
  }
  Status s = client_->GatherReads(&reads);
  if (!s.ok()) {
    if (!reads[0].status.ok()) {
      return reads[0].status;  // the parity block itself is gone
    }
    return Status::Unavailable("second fragment loss; parity insufficient");
  }
  std::string acc = std::move(reads[0].data);
  for (size_t i = 1; i < reads.size(); i++) {
    XorInto(&acc, reads[i].data);
  }
  acc.resize(meta_.fragment_sizes[fragment]);
  *full_fragment = std::move(acc);
  degraded_reads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status StocBlockFetcher::Fetch(int fragment, uint64_t offset, uint64_t size,
                               std::string* out) {
  if (fragment < 0 || fragment >= static_cast<int>(meta_.fragments.size())) {
    return Status::InvalidArgument("no such fragment");
  }
  Status s = ReadFragment(fragment, offset, size, out);
  if (s.ok()) {
    return s;
  }
  // Degraded mode: rebuild the whole fragment, then slice.
  std::string full;
  Status rs = ReconstructFromParity(fragment, &full);
  if (!rs.ok()) {
    return rs;
  }
  if (offset + size > full.size()) {
    return Status::InvalidArgument("read past reconstructed fragment");
  }
  out->assign(full.data() + offset, size);
  return Status::OK();
}

/// One open reader, stored as a cache entry under the file's 12-byte
/// (range, file) key — the prefix of its data blocks' keys.
struct TableCache::Entry {
  std::unique_ptr<StocBlockFetcher> fetcher;
  std::unique_ptr<SSTableReader> reader;
  std::shared_ptr<std::atomic<size_t>> live_readers;

  ~Entry() {
    if (live_readers != nullptr) {
      live_readers->fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

void TableCache::DeleteEntry(const Slice& /*key*/, void* value) {
  delete static_cast<Entry*>(value);
}

namespace {
void DeleteCachedMetadata(const Slice& /*key*/, void* value) {
  delete static_cast<std::string*>(value);
}
}  // namespace

TableCache::TableCache(stoc::StocClient* client, Cache* cache,
                       uint32_t range_id, bool cache_data_blocks,
                       Cache* compressed_cache)
    : client_(client),
      live_readers_(std::make_shared<std::atomic<size_t>>(0)),
      compressed_cache_(compressed_cache),
      range_id_(range_id),
      cache_data_blocks_(cache_data_blocks) {
  if (cache == nullptr) {
    owned_cache_.reset(NewShardedLRUCache(kDefaultReaderCacheBytes));
    cache = owned_cache_.get();
  }
  cache_ = cache;
}

TableCache::~TableCache() {
  if (owned_cache_ == nullptr) {
    // Shared caches outlive us: drop this range's readers and blocks so a
    // departed range does not squat on the node-wide charge budget.
    std::string range_prefix;
    PutFixed32(&range_prefix, range_id_);
    cache_->EraseWithPrefix(range_prefix);
    if (compressed_cache_ != nullptr) {
      compressed_cache_->EraseWithPrefix(range_prefix);
    }
  }
}

Status TableCache::GetReader(const FileMetaRef& meta, Handle* handle) {
  std::string key = BlockCachePrefix(range_id_, meta->number);
  Cache::Handle* h = cache_->Lookup(key, /*count=*/false);
  if (h == nullptr) {
    // The compressed tier keeps the encoded metadata block under the
    // reader's own key (block keys always append an offset, so the bare
    // prefix cannot collide): a reader evicted from the hot tier reopens
    // without a StoC round trip. Uncounted, like the hot-tier lookup
    // above, so the tier's stats reflect data-block traffic only.
    std::string encoded;
    bool cached = false;
    if (compressed_cache_ != nullptr) {
      Cache::Handle* ch = compressed_cache_->Lookup(key, /*count=*/false);
      if (ch != nullptr) {
        encoded = *static_cast<const std::string*>(
            compressed_cache_->Value(ch));
        compressed_cache_->Release(ch);
        cached = true;
      }
    }
    if (!cached) {
      // Fetch the metadata block via power-of-d replica selection (the
      // replicas are equivalent, so the least-loaded wins). Concurrent
      // misses on the same file may both open it; the loser's entry is
      // displaced and reclaimed once its pins drop.
      std::vector<stoc::GatherRead::Target> targets;
      targets.reserve(meta->meta_replicas.size());
      for (const BlockLocation& loc : meta->meta_replicas) {
        targets.push_back({loc.stoc_id, loc.file_id});
      }
      Status s = client_->ReadReplicated(targets, 0, 0, &encoded);
      if (!s.ok()) {
        return s;
      }
      if (compressed_cache_ != nullptr) {
        auto* copy = new std::string(encoded);
        compressed_cache_->Release(compressed_cache_->Insert(
            key, copy, copy->size() + sizeof(std::string),
            &DeleteCachedMetadata));
      }
    }
    SSTableMetadata table_meta;
    Status s = table_meta.DecodeFrom(encoded);
    if (!s.ok()) {
      return s;
    }
    auto* entry = new Entry;
    entry->fetcher = std::make_unique<StocBlockFetcher>(client_, *meta);
    entry->reader = std::make_unique<SSTableReader>(
        std::move(table_meta), entry->fetcher.get(),
        cache_data_blocks_ ? cache_ : nullptr, range_id_,
        cache_data_blocks_ ? compressed_cache_ : nullptr);
    entry->live_readers = live_readers_;
    live_readers_->fetch_add(1, std::memory_order_relaxed);
    size_t charge = sizeof(Entry) + sizeof(SSTableReader) +
                    entry->reader->meta().index_contents.size() +
                    entry->reader->meta().bloom.size();
    h = cache_->Insert(key, entry, charge, &DeleteEntry);
  }
  auto* entry = static_cast<Entry*>(cache_->Value(h));
  Cache* cache = cache_;
  handle->pin = std::shared_ptr<void>(
      static_cast<void*>(entry), [cache, h](void*) { cache->Release(h); });
  handle->reader = entry->reader.get();
  return Status::OK();
}

void TableCache::Evict(const std::vector<uint64_t>& numbers) {
  if (numbers.empty()) {
    return;
  }
  std::set<uint64_t> dead(numbers.begin(), numbers.end());
  std::string range_prefix;
  PutFixed32(&range_prefix, range_id_);
  // The match runs per resident entry under the shard lock: decode the
  // file number in place rather than allocating a prefix string.
  auto match = [&](const Slice& key) {
    return key.size() >= range_prefix.size() + 8 &&
           memcmp(key.data(), range_prefix.data(), range_prefix.size()) ==
               0 &&
           dead.count(DecodeFixed64(key.data() + range_prefix.size())) > 0;
  };
  cache_->EraseMatching(match);
  if (compressed_cache_ != nullptr) {
    compressed_cache_->EraseMatching(match);
  }
}

size_t TableCache::size() const {
  return live_readers_->load(std::memory_order_relaxed);
}

SSTablePlacer::SSTablePlacer(stoc::StocClient* client,
                             const PlacementOptions& options)
    : client_(client), options_(options), rng_(0x9d1ace + options.range_id) {}

void SSTablePlacer::UpdateStocs(const std::vector<rdma::NodeId>& stocs) {
  std::lock_guard<std::mutex> l(mu_);
  options_.stocs = stocs;
}

PlacementOptions SSTablePlacer::options() const {
  std::lock_guard<std::mutex> l(mu_);
  return options_;
}

std::vector<rdma::NodeId> SSTablePlacer::PickStocs(int count, int d,
                                                   int max_writes_per_stoc) {
  PlacementOptions opt = options();
  std::vector<rdma::NodeId> candidates = opt.stocs;
  // Membership exclusion (ISSUE 9): never place new blocks on
  // suspect/dead StoCs while any healthy candidate exists — a placement
  // there either fails outright or produces a replica the repair manager
  // immediately has to re-replicate.
  std::vector<rdma::NodeId> healthy;
  healthy.reserve(candidates.size());
  for (rdma::NodeId n : candidates) {
    if (client_->IsRoutable(n)) {
      healthy.push_back(n);
    }
  }
  if (!healthy.empty()) {
    candidates = std::move(healthy);
  }
  int n = static_cast<int>(candidates.size());
  count = std::min(count, n);
  // Power-of-d asks d random StoCs for their disk load and takes the
  // `count` least loaded (paper Section 4.4). Asked for every candidate,
  // or placing at random, it probes none.
  bool probe = opt.power_of_d && count < n;
  if (d <= 0) {
    d = 2 * count;
  }
  d = probe ? std::min(std::max(count, d), n) : count;
  // StoCs without a free write slot go last: the draw below takes the
  // first `roomy` candidates before any other.
  int roomy = n;
  if (max_writes_per_stoc > 0) {
    roomy = static_cast<int>(
        std::stable_partition(candidates.begin(), candidates.end(),
                              [&](rdma::NodeId c) {
                                return client_->writes_in_flight(c) <
                                       max_writes_per_stoc;
                              }) -
        candidates.begin());
  }
  {
    // mu_ guards the RNG only. Never hold it across the probe RPCs:
    // UpdateStocs (the KillStoc path) must not block behind a probe
    // waiting on a StoC that just died.
    std::lock_guard<std::mutex> l(mu_);
    for (int i = 0; i < d; i++) {
      int end = i < roomy ? roomy : n;
      std::swap(candidates[i], candidates[i + rng_.Uniform(end - i)]);
    }
  }
  candidates.resize(d);
  if (probe) {
    struct Load {
      bool full;
      uint64_t us;
      rdma::NodeId stoc;
    };
    std::vector<Load> loads;
    for (int i = 0; i < d; i++) {
      stoc::StocStats stats;
      // Unreachable StoCs sort last.
      uint64_t load = std::numeric_limits<uint64_t>::max();
      if (client_->GetStats(candidates[i], &stats, /*timeout_ms=*/100).ok()) {
        load = stats.disk_load_us;
      }
      loads.push_back({i >= roomy, load, candidates[i]});
    }
    // Stable sort on (full, load) alone: ties keep the shuffled order. A
    // plain sort would tie-break on NodeId and collapse power-of-d to
    // "always the lowest-numbered StoCs" whenever the cluster is idle.
    std::stable_sort(loads.begin(), loads.end(),
                     [](const Load& a, const Load& b) {
                       return a.full != b.full ? b.full : a.us < b.us;
                     });
    for (int i = 0; i < d; i++) {
      candidates[i] = loads[i].stoc;
    }
  }
  candidates.resize(count);
  return candidates;
}

/// The acknowledgments an in-flight SSTable still waits for, counted by
/// the appends' completion callbacks (which may outlive the
/// PendingSSTable, hence shared). It frees a StoC's write slot once that
/// StoC acknowledged every data piece it holds, and runs the OnReady
/// callback after the last acknowledgment.
struct PendingSSTable::Acks {
  stoc::StocClient* client = nullptr;
  std::mutex mu;
  size_t unacked = 0;
  /// Reserved StoC -> its data pieces not yet acknowledged.
  std::map<rdma::NodeId, int> slot_pieces;
  std::function<void()> on_ready;

  void Acked(rdma::NodeId stoc, bool data_piece) {
    bool release = false;
    std::function<void()> fn;
    {
      std::lock_guard<std::mutex> l(mu);
      auto it = slot_pieces.find(stoc);
      if (data_piece && it != slot_pieces.end() && --it->second == 0) {
        slot_pieces.erase(it);
        release = true;
      }
      if (--unacked == 0) {
        fn = std::move(on_ready);
      }
    }
    if (release) {
      client->ReleaseWrite(stoc);
    }
    if (fn) {
      fn();
    }
  }
};

/// Everything an in-flight SSTable write owns until its flush acks drain:
/// the built data, parity and metadata (append slices point into them),
/// the armed appends in ForEachPiece order, and the FileMetaData with
/// every location filled in.
struct PendingSSTable::State {
  std::string data;
  std::string parity;
  std::string meta_encoded;
  std::vector<stoc::PendingAppend> appends;
  FileMetaData meta;
  std::shared_ptr<Acks> acks = std::make_shared<Acks>();
};

PendingSSTable::PendingSSTable() = default;
PendingSSTable::~PendingSSTable() = default;
PendingSSTable::PendingSSTable(PendingSSTable&&) noexcept = default;
PendingSSTable& PendingSSTable::operator=(PendingSSTable&&) noexcept =
    default;

bool PendingSSTable::ready() const {
  return state_ != nullptr &&
         std::all_of(state_->appends.begin(), state_->appends.end(),
                     [](const stoc::PendingAppend& a) { return a.ready(); });
}

void PendingSSTable::OnReady(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> l(state_->acks->mu);
    if (state_->acks->unacked > 0) {
      state_->acks->on_ready = std::move(fn);
      return;
    }
  }
  fn();
}

Status PendingSSTable::Wait(FileMetaData* out, int timeout_ms) {
  if (state_ == nullptr) {
    return Status::InvalidArgument("no write in flight");
  }
  std::unique_ptr<State> st = std::move(state_);
  Status first_error;
  // One deadline spans the whole ack drain: a wedged StoC costs the batch
  // a single budget, not 30 s per outstanding append.
  util::Deadline deadline = util::Deadline::After(timeout_ms);
  size_t i = 0;
  ForEachPiece(st->meta, [&](PieceKind, int, BlockLocation& loc) {
    stoc::StocBlockHandle handle;
    Status s = st->appends[i++].Wait(
        &handle, static_cast<int>(deadline.remaining_ms()));
    if (!s.ok()) {
      if (first_error.ok()) {
        first_error = s;
      }
      loc = BlockLocation{};  // keep draining so no ack is orphaned
    }
  });
  *out = std::move(st->meta);
  return first_error;
}

void SSTablePlacer::Delete(const FileMetaData& meta) {
  ForEachPiece(meta, [this](PieceKind, int, const BlockLocation& loc) {
    client_->DeleteFile(loc.stoc_id, loc.file_id, /*in_memory=*/false);
  });
}

Status SSTablePlacer::Write(SSTableBuilder::Result&& built,
                            FileMetaData* out) {
  PendingSSTable pending;
  Status s = StartWrite(std::move(built), &pending);
  if (!s.ok()) {
    return s;
  }
  return pending.Wait(out);
}

Status SSTablePlacer::StartWrite(SSTableBuilder::Result&& built,
                                 PendingSSTable* pending,
                                 int max_writes_per_stoc) {
  PlacementOptions opt = options();
  if (opt.stocs.empty()) {
    return Status::InvalidArgument("no stocs configured");
  }

  auto state = std::make_unique<PendingSSTable::State>();
  state->data = std::move(built.data);  // the append slices point into this
  FileMetaData* out = &state->meta;

  // The builder already split the data at block boundaries into the
  // fragment count the caller requested.
  const SSTableMetadata& tmeta = built.meta;
  int nfrags = tmeta.num_fragments();

  out->number = tmeta.file_number;
  out->data_size = state->data.size();
  out->smallest = tmeta.smallest;
  out->largest = tmeta.largest;
  out->fragment_sizes = tmeta.fragment_sizes;

  // One StoC order for every piece: R replicas of each fragment, the
  // metadata replicas and the parity block, on distinct StoCs when there
  // are enough (with as many pieces as StoCs the order is random).
  // Power-of-d probes two candidates per fragment replica and metadata
  // replica; the parity block takes the next least loaded.
  int replicas = std::max(1, opt.num_data_replicas);
  int meta_replicas = std::max(1, opt.num_meta_replicas);
  bool parity = opt.use_parity && nfrags >= 1;
  int probed = nfrags * replicas + meta_replicas;
  std::vector<rdma::NodeId> order;
  auto place = [&](PieceKind kind, int fragment, stoc::FileKind file_kind,
                   int index, BlockLocation* loc) {
    int32_t stoc = PickPieceStoc(*out, kind, fragment, order);
    // No StoC free of the piece's other copies (more replicas than
    // StoCs): share one so the flush still lands.
    loc->stoc_id = stoc >= 0 ? stoc : order.front();
    loc->file_id = stoc::MakeFileId(
        opt.range_id, static_cast<uint32_t>(tmeta.file_number), file_kind,
        static_cast<uint8_t>(index));
  };
  // A bounded write places again until every StoC of its data pieces has
  // a free slot: at once when another write took or freed a slot since it
  // looked (it lost a race, and another StoC may have room), otherwise
  // after the next release.
  util::Deadline deadline =
      util::Deadline::After(PendingSSTable::kAckTimeoutMs);
  std::vector<rdma::NodeId> data_stocs;
  for (;;) {
    uint64_t slot_changes = client_->write_slot_changes();
    order = PickStocs(probed + (parity ? 1 : 0), /*d=*/2 * probed,
                      max_writes_per_stoc);
    if (order.empty()) {
      return Status::Unavailable("no stocs reachable");
    }
    out->fragments.assign(nfrags, std::vector<BlockLocation>(replicas));
    out->meta_replicas.assign(std::min<size_t>(meta_replicas, order.size()),
                              BlockLocation{});
    out->parity = BlockLocation{};
    for (int f = 0; f < nfrags; f++) {
      for (int r = 0; r < replicas; r++) {
        place(PieceKind::kFragment, f, stoc::FileKind::kData, f * 8 + r,
              &out->fragments[f][r]);
      }
    }
    for (size_t r = 0; r < out->meta_replicas.size(); r++) {
      place(PieceKind::kMeta, -1, stoc::FileKind::kMeta, static_cast<int>(r),
            &out->meta_replicas[r]);
    }
    if (parity) {
      place(PieceKind::kParity, -1, stoc::FileKind::kParity, 0,
            &out->parity);
    }
    if (max_writes_per_stoc <= 0) {
      break;
    }
    data_stocs.clear();
    ForEachPiece(*out, [&](PieceKind kind, int, const BlockLocation& loc) {
      if (kind != PieceKind::kMeta) {
        data_stocs.push_back(loc.stoc_id);
      }
    });
    if (client_->TryReserveWrites(data_stocs, max_writes_per_stoc)) {
      break;
    }
    if (deadline.expired()) {
      return Status::Busy("no StoC has a free SSTable write slot");
    }
    client_->WaitForWriteSlotChange(slot_changes,
                                    static_cast<int>(deadline.remaining_ms()));
  }
  for (rdma::NodeId stoc : data_stocs) {
    state->acks->slot_pieces[stoc]++;
  }
  state->acks->client = client_;

  std::vector<Slice> fragment_data;
  uint64_t offset = 0;
  uint64_t longest = 0;
  for (uint64_t size : tmeta.fragment_sizes) {
    fragment_data.emplace_back(state->data.data() + offset, size);
    offset += size;
    longest = std::max(longest, size);
  }
  // Parity block over the fragments (Hybrid availability): XOR of all
  // fragments zero-padded to the longest.
  if (parity) {
    state->parity.assign(longest, '\0');
    for (const Slice& fragment : fragment_data) {
      XorInto(&state->parity, fragment);
    }
  }
  // Metadata block (index + bloom); small, so replication is cheap and
  // lets reads use any replica (Section 3.1).
  tmeta.EncodeTo(&state->meta_encoded);

  // One async batch for the whole SSTable (the point of scattering: the
  // write uses the disk bandwidth of ρ StoCs at once). AsyncAppendBlock
  // queues each buffer-grant RPC; Arm() collects each grant and starts the
  // one-sided data write (both cheap). The slow part — every StoC
  // flushing its blocks — stays in flight until PendingSSTable::Wait
  // collects the acknowledgments, so a pipelined caller can keep merging
  // (or building the next output) meanwhile.
  std::vector<PieceKind> kinds;
  ForEachPiece(*out, [&](PieceKind kind, int fragment,
                         const BlockLocation& loc) {
    Slice data = kind == PieceKind::kFragment ? fragment_data[fragment]
                 : kind == PieceKind::kMeta   ? Slice(state->meta_encoded)
                                              : Slice(state->parity);
    state->appends.push_back(
        client_->AsyncAppendBlock(loc.stoc_id, loc.file_id, data));
    kinds.push_back(kind);
  });
  for (stoc::PendingAppend& a : state->appends) {
    a.Arm();  // failures surface again in Wait()
  }
  std::shared_ptr<PendingSSTable::Acks> acks = state->acks;
  acks->unacked = state->appends.size();
  for (size_t i = 0; i < state->appends.size(); i++) {
    state->appends[i].OnReady(
        [acks, stoc = state->appends[i].stoc(),
         data_piece = kinds[i] != PieceKind::kMeta] {
          acks->Acked(stoc, data_piece);
        });
  }
  pending->state_ = std::move(state);
  return Status::OK();
}

}  // namespace lsm
}  // namespace nova
