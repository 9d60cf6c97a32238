#include "lsm/compaction.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "sim/cost_model.h"
#include "sstable/merging_iterator.h"
#include "util/coding.h"
#include "util/logging.h"

namespace nova {
namespace lsm {
namespace {

bool Overlaps(const FileMetaData& a, const FileMetaData& b) {
  return a.smallest.user_key().compare(b.largest.user_key()) <= 0 &&
         b.smallest.user_key().compare(a.largest.user_key()) <= 0;
}

/// Union-find over file indices.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

std::string CompactionJob::Serialize() const {
  std::string out;
  PutVarint32(&out, input_level);
  PutVarint32(&out, output_level);
  PutVarint32(&out, static_cast<uint32_t>(inputs.size()));
  for (const auto& f : inputs) {
    f->EncodeTo(&out);
  }
  PutVarint32(&out, static_cast<uint32_t>(inputs_next.size()));
  for (const auto& f : inputs_next) {
    f->EncodeTo(&out);
  }
  PutVarint32(&out, static_cast<uint32_t>(boundaries.size()));
  for (const auto& b : boundaries) {
    PutLengthPrefixedSlice(&out, b);
  }
  PutVarint64(&out, max_output_bytes);
  PutVarint32(&out, is_last_level ? 1 : 0);
  PutVarint64(&out, first_output_number);
  PutVarint32(&out, static_cast<uint32_t>(std::max(0, compression_codec)));
  return out;
}

Status CompactionJob::Deserialize(Slice input) {
  uint32_t in_level, out_level, n_in, n_next, n_bounds, last;
  if (!GetVarint32(&input, &in_level) || !GetVarint32(&input, &out_level) ||
      !GetVarint32(&input, &n_in)) {
    return Status::Corruption("bad compaction job");
  }
  input_level = in_level;
  output_level = out_level;
  inputs.clear();
  for (uint32_t i = 0; i < n_in; i++) {
    auto meta = std::make_shared<FileMetaData>();
    Status s = meta->DecodeFrom(&input);
    if (!s.ok()) {
      return s;
    }
    inputs.push_back(std::move(meta));
  }
  if (!GetVarint32(&input, &n_next)) {
    return Status::Corruption("bad compaction job next");
  }
  inputs_next.clear();
  for (uint32_t i = 0; i < n_next; i++) {
    auto meta = std::make_shared<FileMetaData>();
    Status s = meta->DecodeFrom(&input);
    if (!s.ok()) {
      return s;
    }
    inputs_next.push_back(std::move(meta));
  }
  if (!GetVarint32(&input, &n_bounds)) {
    return Status::Corruption("bad compaction job bounds");
  }
  boundaries.clear();
  for (uint32_t i = 0; i < n_bounds; i++) {
    Slice b;
    if (!GetLengthPrefixedSlice(&input, &b)) {
      return Status::Corruption("bad boundary");
    }
    boundaries.push_back(b.ToString());
  }
  uint32_t codec;
  if (!GetVarint64(&input, &max_output_bytes) ||
      !GetVarint32(&input, &last) ||
      !GetVarint64(&input, &first_output_number) ||
      !GetVarint32(&input, &codec)) {
    return Status::Corruption("bad compaction job tail");
  }
  is_last_level = last != 0;
  compression_codec = static_cast<int>(codec);
  return Status::OK();
}

std::string CompactionResult::Serialize() const {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(outputs.size()));
  for (const auto& f : outputs) {
    f.EncodeTo(&out);
  }
  PutVarint64(&out, records_in);
  PutVarint64(&out, records_out);
  PutVarint64(&out, prefetches);
  PutVarint64(&out, bytes_read);
  PutVarint64(&out, bytes_written);
  PutVarint64(&out, raw_bytes_written);
  return out;
}

Status CompactionResult::Deserialize(Slice input) {
  uint32_t n;
  if (!GetVarint32(&input, &n)) {
    return Status::Corruption("bad compaction result");
  }
  outputs.clear();
  for (uint32_t i = 0; i < n; i++) {
    FileMetaData meta;
    Status s = meta.DecodeFrom(&input);
    if (!s.ok()) {
      return s;
    }
    outputs.push_back(std::move(meta));
  }
  if (!GetVarint64(&input, &records_in) ||
      !GetVarint64(&input, &records_out) ||
      !GetVarint64(&input, &prefetches) ||
      !GetVarint64(&input, &bytes_read) ||
      !GetVarint64(&input, &bytes_written) ||
      !GetVarint64(&input, &raw_bytes_written)) {
    return Status::Corruption("bad compaction result tail");
  }
  return Status::OK();
}

double CompactionPicker::Score(const VersionSet& vs, const Version& v,
                               int level) {
  uint64_t expected = vs.ExpectedLevelBytes(level);
  if (expected == 0) {
    return 0;
  }
  return static_cast<double>(v.LevelBytes(level)) /
         static_cast<double>(expected);
}

std::vector<CompactionJob> CompactionPicker::Pick(const VersionSet& vs,
                                                  VersionRef v,
                                                  int max_jobs) {
  // Last level never compacts further.
  int best_level = -1;
  double best_score = 1.0;
  for (int level = 0; level + 1 < v->num_levels(); level++) {
    double score = Score(vs, *v, level);
    if (score > best_score) {
      best_score = score;
      best_level = level;
    }
  }
  std::vector<CompactionJob> jobs;
  if (best_level < 0) {
    return jobs;
  }
  const int next_level = best_level + 1;
  const auto& level_files = v->files(best_level);
  const auto& next_files = v->files(next_level);

  if (best_level == 0) {
    // Connected components over combined L0 ∪ L1 overlap (Dranges make L0
    // groups mutually exclusive so components ≈ one per Drange).
    size_t n0 = level_files.size();
    size_t n1 = next_files.size();
    UnionFind uf(n0 + n1);
    for (size_t i = 0; i < n0; i++) {
      for (size_t j = i + 1; j < n0; j++) {
        if (Overlaps(*level_files[i], *level_files[j])) {
          uf.Union(i, j);
        }
      }
      for (size_t j = 0; j < n1; j++) {
        if (Overlaps(*level_files[i], *next_files[j])) {
          uf.Union(i, n0 + j);
        }
      }
    }
    std::map<size_t, CompactionJob> by_root;
    for (size_t i = 0; i < n0; i++) {
      by_root[uf.Find(i)].inputs.push_back(level_files[i]);
    }
    for (size_t j = 0; j < n1; j++) {
      auto it = by_root.find(uf.Find(n0 + j));
      if (it != by_root.end()) {
        it->second.inputs_next.push_back(next_files[j]);
      }
    }
    // Largest components first: they gate the write stall.
    std::vector<CompactionJob> all;
    for (auto& [root, job] : by_root) {
      job.input_level = 0;
      job.output_level = 1;
      job.is_last_level = (next_level == v->num_levels() - 1) &&
                          v->files(next_level).empty();
      all.push_back(std::move(job));
    }
    std::sort(all.begin(), all.end(),
              [](const CompactionJob& a, const CompactionJob& b) {
                return a.total_input_bytes() > b.total_input_bytes();
              });
    for (auto& job : all) {
      if (static_cast<int>(jobs.size()) >= max_jobs) {
        break;
      }
      jobs.push_back(std::move(job));
    }
    return jobs;
  }

  // Levels >= 1: one job per input file with unclaimed next-level overlap.
  std::set<uint64_t> claimed_next;
  for (const auto& f : level_files) {
    if (static_cast<int>(jobs.size()) >= max_jobs) {
      break;
    }
    std::vector<FileMetaRef> overlap;
    bool conflict = false;
    for (const auto& nf : next_files) {
      if (Overlaps(*f, *nf)) {
        if (claimed_next.count(nf->number)) {
          conflict = true;
          break;
        }
        overlap.push_back(nf);
      }
    }
    if (conflict) {
      continue;
    }
    CompactionJob job;
    job.input_level = best_level;
    job.output_level = next_level;
    job.inputs = {f};
    job.inputs_next = overlap;
    job.is_last_level = next_level == v->num_levels() - 1;
    for (const auto& nf : overlap) {
      claimed_next.insert(nf->number);
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

CompactionExecutor::CompactionExecutor(TableCache* cache,
                                       SSTablePlacer* placer,
                                       sim::CpuThrottle* throttle)
    : cache_(cache),
      placer_(placer),
      throttle_(throttle == nullptr ? sim::CpuThrottle::Unlimited()
                                    : throttle) {}

Status CompactionExecutor::Run(const CompactionJob& job,
                               CompactionResult* result) {
  InternalKeyComparator icmp;
  // Stage 1: stream, don't cache. A compaction reads every input block
  // once and then deletes the file, so filling the cache tiers would
  // evict the read-path working set for nothing. Asking for every row
  // makes each miss fetch the rest of its fragment in one read.
  // Job-private counters keep compaction reads out of the scan stats.
  ReadaheadCounters counters;
  IteratorOptions iter_options;
  iter_options.fill_cache = false;
  iter_options.rows = kAllRows;
  iter_options.counters = &counters;
  // The pins keep every input's reader alive until the merge is gone.
  std::vector<TableCache::Handle> pins;
  std::vector<Iterator*> children;
  for (const auto* files : {&job.inputs, &job.inputs_next}) {
    for (const auto& f : *files) {
      TableCache::Handle handle;
      Status s = cache_->GetReader(f, &handle);
      if (!s.ok()) {
        for (Iterator* child : children) {
          delete child;
        }
        return s;
      }
      pins.push_back(handle);
      children.push_back(handle.reader->NewIterator(iter_options));
    }
  }

  const sim::CostModel& costs = sim::DefaultCostModel();
  // Each input block costs compaction_read_block_us; the iterators count
  // blocks as they read them, and every merge step charges the new ones
  // (one Charge per block: a single Charge may not exceed the burst).
  uint64_t charged_blocks = 0;
  auto charge_reads = [&] {
    uint64_t blocks = counters.blocks.load(std::memory_order_relaxed);
    for (; charged_blocks < blocks; charged_blocks++) {
      throttle_->Charge(costs.compaction_read_block_us);
    }
  };

  std::unique_ptr<Iterator> merged(NewMergingIterator(&icmp, children));
  merged->SeekToFirst();
  charge_reads();
  uint64_t next_number = job.first_output_number;
  std::unique_ptr<SSTableBuilder> builder;
  size_t boundary_idx = 0;
  std::string current_user_key;
  bool has_current = false;

  PlacementOptions popt = placer_->options();
  SSTableBuilderOptions bopt;
  bopt.compressor = job.compression_codec > 0
                        ? GetCompressor(static_cast<uint8_t>(
                              job.compression_codec))
                        : nullptr;

  // Stage 3: finished outputs are armed through StartWrite and their
  // flush acks collected while the merge continues; only when
  // kMaxInflightOutputs batches are already in flight does the merge wait
  // for the oldest. Every output lands in result->outputs, a failed write
  // too: Wait hands back the pieces that did land, so a failed job can
  // delete them.
  std::deque<PendingSSTable> armed;
  auto drain_oldest = [&]() -> Status {
    FileMetaData out;
    Status ws = armed.front().Wait(&out);
    armed.pop_front();
    if (ws.ok()) {
      result->bytes_written += out.data_size;
    }
    result->outputs.push_back(std::move(out));
    return ws;
  };
  auto finish_output = [&]() -> Status {
    if (builder == nullptr || builder->empty()) {
      builder.reset();
      return Status::OK();
    }
    auto built = builder->Finish(next_number++, popt.rho);
    builder.reset();
    result->raw_bytes_written += built.raw_bytes;
    throttle_->Charge(costs.compaction_write_sstable_us);
    PendingSSTable pending;
    Status ws = placer_->StartWrite(std::move(built), &pending);
    if (!ws.ok()) {
      return ws;
    }
    armed.push_back(std::move(pending));
    return armed.size() > kMaxInflightOutputs ? drain_oldest() : Status::OK();
  };

  // A failed input read ends the merge, so no further output is armed.
  Status s = merged->status();
  while (s.ok() && merged->Valid()) {
    Slice ikey = merged->key();
    ParsedInternalKey parsed;
    if (!ParseInternalKey(ikey, &parsed)) {
      s = Status::Corruption("bad key during compaction");
      break;
    }
    result->records_in++;
    throttle_->Charge(costs.compaction_per_record_us);

    bool drop = false;
    if (has_current &&
        Slice(current_user_key).compare(parsed.user_key) == 0) {
      // Older version of a key we already emitted.
      drop = true;
    } else {
      current_user_key.assign(parsed.user_key.data(),
                              parsed.user_key.size());
      has_current = true;
      if (parsed.type == kTypeDeletion && job.is_last_level) {
        drop = true;  // tombstone at the bottom: nothing below to mask
      }
    }
    if (!drop) {
      // Split at Drange boundaries so parallel L0 jobs stay disjoint and
      // at the size cap.
      bool crossed = false;
      while (boundary_idx < job.boundaries.size() &&
             parsed.user_key.compare(job.boundaries[boundary_idx]) >= 0) {
        boundary_idx++;
        crossed = true;
      }
      if (builder != nullptr &&
          (crossed || builder->EstimatedSize() >= job.max_output_bytes)) {
        s = finish_output();
        if (!s.ok()) {
          break;
        }
      }
      if (builder == nullptr) {
        builder = std::make_unique<SSTableBuilder>(bopt);
      }
      builder->Add(ikey, merged->value());
      result->records_out++;
    }
    merged->Next();
    charge_reads();
    s = merged->status();
  }
  if (s.ok()) {
    s = finish_output();
  }
  // Collect every output still in flight, even after an error, so that a
  // failed job can delete all it wrote: otherwise each retry of the same
  // inputs would leave another set of files behind on the StoCs.
  while (!armed.empty()) {
    Status ds = drain_oldest();
    if (s.ok()) {
      s = ds;
    }
  }
  if (!s.ok()) {
    for (const FileMetaData& out : result->outputs) {
      placer_->Delete(out);
    }
    result->outputs.clear();
  }
  result->prefetches = counters.issued.load(std::memory_order_relaxed);
  result->bytes_read = counters.bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace lsm
}  // namespace nova
