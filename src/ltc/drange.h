// Dynamic ranges (paper Section 4.1, Definitions 4.1-4.4).
//
// A range's keyspace is carved into θ Dranges, each holding up to γ
// Tranges that count the writes they receive. The manager:
//  * routes each write to the Drange containing its key (duplicated
//    point-Dranges pick a member at random, reducing write contention on
//    one hot key);
//  * performs *minor* reorganizations — shuffling edge Tranges of an
//    overloaded Drange to its neighbors — when a Drange's write share
//    exceeds 1/θ + ε;
//  * performs *major* reorganizations — rebuilding all Dranges/Tranges
//    from sampled write frequencies, duplicating Dranges that are single
//    hot points — when minor ones cannot balance the load.
// The manager starts with one Drange covering the whole range; the first
// major reorganization (triggered once enough samples accumulate)
// constructs the θ-way partition, matching the paper's "constructs them
// dynamically at runtime".
#ifndef NOVA_LTC_DRANGE_H_
#define NOVA_LTC_DRANGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/slice.h"

namespace nova {
namespace ltc {

struct DrangeOptions {
  int theta = 8;    // Dranges per range
  int gamma = 4;    // Tranges per Drange
  /// Minor reorg triggers when a Drange's write share > 1/θ + ε.
  double epsilon = 0.04;
  /// Major reorg triggers when the share exceeds 1/θ by this factor and a
  /// minor reorg cannot fix it (e.g. a single hot Trange).
  double major_factor = 2.0;
  /// Writes sampled into the frequency reservoir (1 in sample_rate).
  int sample_rate = 8;
  size_t reservoir_size = 4096;
  /// Writes that must be observed before the first major reorg.
  uint64_t warmup_writes = 1024;
  /// Freeze after the first major reorg (the paper's Nova-LSM-S variant).
  bool static_after_first_major = false;
};

class DrangeManager {
 public:
  /// Manages [lower, upper); upper empty = unbounded above.
  DrangeManager(std::string lower, std::string upper,
                const DrangeOptions& options);

  /// Record a write and return the Drange index to append to.
  int RouteWrite(const Slice& key);

  int num_dranges() const;
  /// [lower, upper) of Drange i.
  std::pair<std::string, std::string> DrangeBounds(int i) const;

  /// True when the hottest Drange's share exceeds 1/θ + ε.
  bool NeedsReorg() const;
  /// Perform a minor (or, if needed, major) reorganization. Returns the
  /// indices of Dranges whose boundaries changed, or empty if nothing
  /// changed. The caller retires exactly their active memtables, and after
  /// a major reorganization those of the indices it dropped, so each
  /// Drange's next memtable takes its new bounds (Section 4.1).
  std::vector<int> MaybeReorg();

  /// Sorted interior boundaries (Drange upper bounds, deduplicated) —
  /// exactly what parallel L0 compaction splits on (Section 4.3) and what
  /// the range index refines itself with.
  std::vector<std::string> Boundaries() const;

  /// Standard deviation of per-Drange write shares (paper Section 8.2.1's
  /// load-imbalance metric).
  double LoadImbalance() const;

  uint64_t num_minor_reorgs() const { return minor_reorgs_.load(); }
  uint64_t num_major_reorgs() const { return major_reorgs_.load(); }
  int num_duplicated_dranges() const;

  /// Serialization for the MANIFEST / migration (Section 4.5).
  std::string Serialize() const;
  bool Deserialize(const Slice& input);

 private:
  struct Trange {
    std::string lower;
    std::string upper;  // empty = +inf
    uint64_t writes = 0;
  };
  struct Drange {
    std::string lower;
    std::string upper;
    std::vector<Trange> tranges;
    /// >= 0 for duplicated point-Dranges; members share the group id.
    int dup_group = -1;
    uint64_t writes = 0;
  };

  bool KeyInDrange(const Drange& d, const Slice& key) const;
  int FindDrangeLocked(const Slice& key) const;
  void MinorReorgLocked(int hot, std::vector<int>* changed);
  void MajorReorgLocked(std::vector<int>* changed);
  double MaxShareLocked(int* hot_index) const;

  std::string lower_;
  std::string upper_;
  DrangeOptions options_;

  mutable std::shared_mutex mu_;
  std::vector<Drange> dranges_;
  uint64_t total_writes_ = 0;
  std::vector<std::string> reservoir_;
  uint64_t sample_counter_ = 0;
  bool frozen_ = false;
  mutable std::mutex rng_mu_;
  Random rng_{0xd7a93e};

  std::atomic<uint64_t> minor_reorgs_{0};
  std::atomic<uint64_t> major_reorgs_{0};
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_DRANGE_H_
