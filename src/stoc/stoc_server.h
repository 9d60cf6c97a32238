// The Storage Component (StoC), paper Section 6: a simple server that
// stores, retrieves and manages variable-sized blocks of append-only files
// over RDMA.
//
//  * In-memory StoC files (Section 6.1): sets of contiguous registered
//    memory regions. Clients append with one-sided RDMA WRITE and fetch
//    with one-sided RDMA READ — only open/extend/delete involve this
//    server's CPU. Used by LogC for log-record availability.
//  * Persistent StoC files (Section 6.2, Figure 10): a client asks for a
//    buffer (kOpAllocBlock), RDMA-WRITEs the block with immediate data =
//    the buffer id, the StoC flushes the buffer to its disk and completes
//    the client's token with the resulting StocBlockHandle.
//  * Compaction offloading (Section 4.3): kOpCompaction requests run on a
//    dedicated pool through an injected handler (wired to the LSM
//    compaction executor by the cluster harness, keeping stoc free of a
//    dependency on lsm).
//
// Thread model (Section 3.2): xchg threads poll the RPC endpoint and
// handle only cheap operations inline; storage threads perform device I/O;
// compaction threads run offloaded compactions.
#ifndef NOVA_STOC_STOC_SERVER_H_
#define NOVA_STOC_STOC_SERVER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rdma/rpc.h"
#include "sim/cpu_throttle.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"
#include "stoc/stoc_client.h"
#include "stoc/stoc_common.h"
#include "util/random.h"
#include "util/slab_allocator.h"
#include "util/thread_pool.h"

namespace nova {
namespace stoc {

struct StocServerOptions {
  int num_xchg_threads = 2;
  int num_storage_threads = 2;
  int num_compaction_threads = 2;
  /// 0 = unlimited CPU (unit tests); otherwise virtual us/sec.
  double cpu_rate_us_per_sec = 0;
  /// OS page-cache model: probability a read block is cached is
  /// min(1, page_cache_bytes / stored bytes). 0 disables the model.
  uint64_t page_cache_bytes = 0;
  /// RDMA-registered memory managed by the slab allocator (paper Sec. 7).
  size_t slab_bytes = 128 << 20;
  size_t slab_page_bytes = 2 << 20;
};

class StocServer {
 public:
  /// device and store are owned by the caller (the "hardware" of the node;
  /// they survive a crash/restart of this server object).
  StocServer(rdma::RdmaFabric* fabric, rdma::NodeId node,
             SimulatedDevice* device, BlockStore* store,
             const StocServerOptions& options = {});
  ~StocServer();

  StocServer(const StocServer&) = delete;
  StocServer& operator=(const StocServer&) = delete;

  void Start();
  void Stop();

  /// Handler for offloaded compaction payloads; returns the serialized
  /// response. Runs on this StoC's compaction pool.
  using CompactionHandler =
      std::function<std::string(rdma::NodeId src, const Slice& payload)>;
  void set_compaction_handler(CompactionHandler handler) {
    compaction_handler_ = std::move(handler);
  }

  rdma::NodeId node() const { return node_; }
  rdma::RpcEndpoint* endpoint() { return endpoint_.get(); }
  /// This StoC's own client over its endpoint: StoC-to-StoC copies and
  /// offloaded compactions reach the other StoCs through it.
  StocClient* client() { return client_.get(); }
  sim::CpuThrottle* throttle() { return throttle_.get(); }
  SimulatedDevice* device() { return device_; }
  BlockStore* store() { return store_; }

  uint64_t cache_hits() const { return cache_hits_.load(); }
  uint64_t cache_misses() const { return cache_misses_.load(); }
  size_t num_in_memory_files();

 private:
  struct Region {
    uint32_t mr_id = 0;
    char* buf = nullptr;
    uint64_t size = 0;
  };
  struct InMemFile {
    std::vector<Region> regions;
    uint64_t region_size = 0;
  };
  struct PendingBlock {
    uint64_t file_id = 0;
    uint64_t token = 0;
    rdma::NodeId client = -1;
    uint64_t size = 0;
    char* buf = nullptr;
  };

  void HandleRequest(rdma::NodeId src, uint64_t req_id, const Slice& payload);
  void HandleWriteImm(rdma::NodeId src, uint32_t imm);

  std::string DoOpenInMemFile(Slice payload);
  std::string DoExtendInMemFile(Slice payload);
  std::string DoDeleteFile(Slice payload);
  std::string DoAllocBlock(rdma::NodeId src, Slice payload);
  void DoReadBlock(rdma::NodeId src, uint64_t req_id, Slice payload);
  std::string DoNicAppend(Slice payload);
  std::string DoStats();
  std::string DoQueryLogFiles(Slice payload);
  std::string DoListFiles();
  void DoCopyFileTo(rdma::NodeId src, uint64_t req_id, Slice payload);

  /// Disk work: a read or append accepted for a storage thread counts its
  /// estimated device service time in queued_work_us_ until the device
  /// finishes it. AcceptDiskWork returns the amount to hand back.
  uint64_t AcceptDiskWork(uint64_t bytes);
  void FinishDiskWork(uint64_t us);

  /// Allocate + register one region; returns nullopt-style failure via ok.
  bool AllocRegion(uint64_t size, Region* region);
  void FreeRegion(const Region& region);

  rdma::RdmaFabric* fabric_;
  rdma::NodeId node_;
  SimulatedDevice* device_;
  BlockStore* store_;
  StocServerOptions options_;

  std::unique_ptr<sim::CpuThrottle> throttle_;
  std::unique_ptr<SlabAllocator> slab_;
  std::unique_ptr<rdma::RpcEndpoint> endpoint_;
  std::unique_ptr<StocClient> client_;
  std::unique_ptr<ThreadPool> storage_pool_;
  std::unique_ptr<ThreadPool> compaction_pool_;
  CompactionHandler compaction_handler_;

  std::mutex mu_;
  std::map<uint64_t, InMemFile> in_memory_files_;
  std::map<uint32_t, PendingBlock> pending_blocks_;
  std::atomic<uint32_t> next_mr_id_{1};

  std::mutex rng_mu_;
  Random rng_{0x5706c};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  /// Estimated service time of the disk work accepted and not finished,
  /// including requests still waiting for a storage thread; with the
  /// device's recent busy time it makes up the disk load DoStats reports.
  std::atomic<uint64_t> queued_work_us_{0};
  std::atomic<bool> started_{false};
};

}  // namespace stoc
}  // namespace nova

#endif  // NOVA_STOC_STOC_SERVER_H_
