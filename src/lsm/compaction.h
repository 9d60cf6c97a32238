// Compaction picking and execution (paper Sections 2.1, 4.3).
//
// Picking: choose the level with the highest ratio of actual to expected
// size, then split its work into *disjoint* jobs that can run in parallel:
// L0 SSTables produced by different Dranges are mutually exclusive, so L0
// jobs are the connected components of key-range overlap among {L0 files}
// ∪ {their overlapping L1 files}. Higher levels produce one job per input
// file whose next-level overlap is unclaimed.
//
// Execution is a three-stage pipeline on the async StoC I/O layer:
//   1. fetch — each input file is read through the same SSTable iterator
//      scans use (SSTableReader::NewIterator), opened without filling the
//      cache tiers and asking for all its rows, so each miss fetches the
//      rest of the missed block's fragment in one StoC read: a job reads
//      each input fragment once. The read goes through
//      StocBlockFetcher::Fetch, which keeps replica failover and parity
//      reconstruction;
//   2. merge — the k-way merge keeps only the newest version of each user
//      key (dropping tombstones at the bottom level) and splits outputs at
//      Drange boundaries and the max SSTable size;
//   3. emit — finished outputs are armed through SSTablePlacer::StartWrite
//      (AsyncAppendBlock fan-out) and their flush acknowledgments are
//      collected in the background of further merging, bounded by a small
//      in-flight window.
// A job that fails deletes every output it wrote, so a retry of the same
// inputs leaks nothing. Jobs serialize so an LTC can offload them to a
// StoC (Section 4.3 "Offloading") which runs the same executor against
// its own StoC client.
#ifndef NOVA_LSM_COMPACTION_H_
#define NOVA_LSM_COMPACTION_H_

#include <functional>
#include <string>
#include <vector>

#include "lsm/table_io.h"
#include "lsm/version.h"
#include "sim/cpu_throttle.h"

namespace nova {
namespace lsm {

struct CompactionJob {
  int input_level = 0;
  int output_level = 1;
  std::vector<FileMetaRef> inputs;       // files at input_level
  std::vector<FileMetaRef> inputs_next;  // overlapping files at output_level
  /// Upper bounds (user keys) at which outputs must split so L0 outputs
  /// respect Drange boundaries (Section 4.3).
  std::vector<std::string> boundaries;
  uint64_t max_output_bytes = 512 << 10;
  /// Tombstones can be dropped when compacting into the last level.
  bool is_last_level = false;
  /// Pre-allocated file-number block for the outputs (offloaded StoCs
  /// cannot mint numbers themselves).
  uint64_t first_output_number = 0;
  /// Codec id (CompressionCodec) the output builders compress data blocks
  /// with; 0 = store raw. Serialized so an offloaded StoC writes outputs
  /// in the same format the scheduling LTC expects to read back.
  int compression_codec = 0;

  uint64_t total_input_bytes() const {
    uint64_t n = 0;
    for (const auto& f : inputs) n += f->data_size;
    for (const auto& f : inputs_next) n += f->data_size;
    return n;
  }

  std::string Serialize() const;
  Status Deserialize(Slice input);
};

struct CompactionResult {
  std::vector<FileMetaData> outputs;
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  /// Pipeline accounting, reported back to the scheduling LTC even for
  /// offloaded jobs: data blocks the input iterators fetched ahead of a
  /// missed block in their runs, input data-block bytes read, and output
  /// bytes written.
  uint64_t prefetches = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// What bytes_written would have been with every output block stored
  /// raw; raw/written is the compaction's compression ratio.
  uint64_t raw_bytes_written = 0;

  std::string Serialize() const;
  Status Deserialize(Slice input);
};

class CompactionPicker {
 public:
  /// Jobs for the most oversized level of v (empty when nothing to do).
  /// At most max_jobs are returned, disjoint by construction.
  static std::vector<CompactionJob> Pick(const VersionSet& vs, VersionRef v,
                                         int max_jobs);

  /// Score of a level (actual/expected size); compaction triggers > 1.
  static double Score(const VersionSet& vs, const Version& v, int level);
};

class CompactionExecutor {
 public:
  CompactionExecutor(TableCache* cache, SSTablePlacer* placer,
                     sim::CpuThrottle* throttle);

  /// Outputs armed through SSTablePlacer::StartWrite while the merge
  /// continues; the next output only waits when this many flush batches
  /// are already in flight.
  static constexpr int kMaxInflightOutputs = 2;

  /// The throttle is charged compaction_read_block_us per input data
  /// block read, whether fetched, taken from a run or served from a cache
  /// tier. On error no output is left on any StoC and result->outputs is
  /// empty.
  Status Run(const CompactionJob& job, CompactionResult* result);

 private:
  TableCache* cache_;
  SSTablePlacer* placer_;
  sim::CpuThrottle* throttle_;
};

}  // namespace lsm
}  // namespace nova

#endif  // NOVA_LSM_COMPACTION_H_
