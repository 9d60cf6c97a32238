// LtcServer: one LSM-tree Component node hosting ω ranges (paper
// Section 3). Client worker threads call Put/Get/Scan/Delete, which route
// by key to the owning RangeEngine; a maintenance thread drives every
// range's reorganizations, flush dispatch, and compaction scheduling; the
// shared flush/compaction pools mirror the paper's dedicated thread
// groups; the RPC endpoint's xchg threads carry all StoC traffic.
#ifndef NOVA_LTC_LTC_SERVER_H_
#define NOVA_LTC_LTC_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ltc/range_engine.h"
#include "ltc/repair_manager.h"
#include "rdma/rpc.h"
#include "stoc/stoc_client.h"

namespace nova {
namespace ltc {

struct LtcServerOptions {
  rdma::NodeId node = 0;
  /// 0 = unlimited (unit tests); otherwise virtual CPU us/sec.
  double cpu_rate_us_per_sec = 0;
  int num_xchg_threads = 2;
  int num_flush_threads = 4;
  int num_compaction_threads = 4;
  int maintenance_interval_us = 1000;
  /// One data-block cache shared by all ranges on this LTC (StoC read
  /// path, charge-bounded sharded LRU). 0 = no data-block caching.
  size_t block_cache_bytes = 0;
  /// Compressed-block tier shared by all ranges: verbatim stored bytes
  /// kept after (or instead of) the uncompressed hot tier, served by
  /// decompressing in LTC memory rather than a StoC round-trip. 0 = no
  /// compressed tier.
  size_t compressed_cache_bytes = 0;
  /// Hot-tier fraction of block_cache_bytes for the two-queue
  /// scan-resistant admission policy (see NewShardedLRUCache); >= 1
  /// disables the split (classic LRU, the A/B baseline).
  double cache_hot_fraction = 0.75;
  /// Read-path power-of-d: replicas a multi-replica StoC read fans out
  /// to, first success winning (paper §4/§6 component selection applied
  /// to reads). Applies to the StoC client every range shares.
  int read_replica_d = 2;
  /// Hedge straggling StoC reads to the next-least-loaded replica after
  /// a p99-derived delay.
  bool read_hedging = true;
  /// Automatic re-replication of fragments lost to dead StoCs (ISSUE 9).
  /// Only meaningful once the cluster wires a Membership into the StoC
  /// client; without one the repair scan is a no-op.
  RepairOptions repair;
};

class LtcServer {
 public:
  LtcServer(rdma::RdmaFabric* fabric, const LtcServerOptions& options);
  ~LtcServer();

  LtcServer(const LtcServer&) = delete;
  LtcServer& operator=(const LtcServer&) = delete;

  void Start();
  void Stop();

  /// Create a range on this LTC that places under `placement` (see
  /// RangeEngine). The caller bootstraps it, after recovering or
  /// installing its state when the range moves here.
  RangeEngine* AddRange(const RangeEngineOptions& options,
                        const lsm::PlacementOptions& placement);
  /// Detach a range (migration source): it stops receiving requests from
  /// this server but stays alive (retired) so racing operations holding a
  /// pointer cannot use freed memory, and it deletes its retired tables
  /// once those operations let go of them. Returns the detached engine.
  RangeEngine* DetachRange(uint32_t range_id);

  RangeEngine* GetRange(uint32_t range_id);
  std::vector<RangeEngine*> ranges();
  /// The range whose [lower, upper) contains key; nullptr if none here.
  RangeEngine* RouteKey(const Slice& key);

  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value);
  Status Delete(const Slice& key);
  /// Scans only the range holding start_key; Cluster::Scan moves on to
  /// the next range.
  Status Scan(const Slice& start_key, int num_records,
              std::vector<std::pair<std::string, std::string>>* out);

  rdma::NodeId node() const { return options_.node; }
  sim::CpuThrottle* throttle() { return throttle_.get(); }
  stoc::StocClient* stoc_client() { return stoc_client_.get(); }
  rdma::RpcEndpoint* endpoint() { return endpoint_.get(); }
  ThreadPool* flush_pool() { return flush_pool_.get(); }
  ThreadPool* compaction_pool() { return compaction_pool_.get(); }
  /// Node-wide data-block cache (nullptr when block_cache_bytes == 0).
  Cache* block_cache() { return block_cache_.get(); }
  /// Node-wide compressed tier (nullptr when compressed_cache_bytes == 0).
  Cache* compressed_cache() { return compressed_cache_.get(); }
  RepairManager* repair_manager() { return repair_manager_.get(); }

  /// Aggregate stats over all ranges.
  RangeStats TotalStats();

 private:
  void MaintenanceLoop();

  rdma::RdmaFabric* fabric_;
  LtcServerOptions options_;
  std::unique_ptr<sim::CpuThrottle> throttle_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<stoc::StocClient> stoc_client_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<Cache> compressed_cache_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<ThreadPool> compaction_pool_;
  std::unique_ptr<RepairManager> repair_manager_;

  std::mutex mu_;
  std::map<uint32_t, std::unique_ptr<RangeEngine>> ranges_;
  std::vector<std::unique_ptr<RangeEngine>> retired_ranges_;

  std::atomic<bool> running_{false};
  std::thread maintenance_thread_;
};

}  // namespace ltc
}  // namespace nova

#endif  // NOVA_LTC_LTC_SERVER_H_
