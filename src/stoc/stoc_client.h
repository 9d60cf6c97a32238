// Client library for talking to StoCs (used by LTCs, LogC, the compaction
// executor, and StoCs themselves during StoC-to-StoC copies). Implements
// the append flow of Figure 10 and the one-sided in-memory file protocol
// of Section 6.1 on top of the shared RpcEndpoint.
#ifndef NOVA_STOC_STOC_CLIENT_H_
#define NOVA_STOC_STOC_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "coord/membership.h"
#include "rdma/rpc.h"
#include "stoc/stoc_common.h"
#include "util/histogram.h"

namespace nova {
namespace stoc {

struct StocStats {
  /// Disk load in us of device service time: the estimated service time
  /// (seek + bytes/bandwidth) of every read and append the StoC accepted
  /// and has not finished, whether it waits for a storage thread or sits
  /// at the device, plus the device's busy time over about the last
  /// 250 ms (decayed). Power-of-d placement ranks StoCs by it: unlike a
  /// count of requests at the device, it grows with queued bytes, sees
  /// past the storage threads, and remembers a StoC that just drained a
  /// burst.
  uint64_t disk_load_us = 0;
  uint64_t stored_bytes = 0;
};

/// Read-path replica selection and hedging (the paper's power-of-d
/// component selection, §4/§6, extended from placement to reads).
struct ReadPolicy {
  /// Candidates issued up front when a read has >1 replica: the d
  /// least-loaded by (outstanding requests, latency EWMA); first success
  /// wins, the losers are cancelled. 1 = pick the single least-loaded.
  int replica_d = 2;
  /// Speculatively re-issue a straggling read to the next-least-loaded
  /// replica once it has been outstanding longer than the hedge delay.
  bool hedge = true;
  /// Floor for the hedge delay; also used verbatim until the latency
  /// histogram holds hedge_min_samples observations to trust a p99.
  uint64_t hedge_min_delay_us = 2000;
  int hedge_min_samples = 64;
};

class StocClient;

/// Client-side load tracking for one StoC: outstanding read RPCs plus an
/// EWMA of observed read latency. Shared with in-flight PendingReads so a
/// read completing after the client rebalances still settles its StoC.
struct StocLoad {
  std::atomic<int> outstanding{0};
  std::atomic<uint64_t> ewma_us{0};
  /// Lifetime reads issued to this StoC (tests pin replica selection).
  std::atomic<uint64_t> issued{0};
  /// Test hook: bias added to outstanding when ranking replicas, so load
  /// can be injected deterministically without real in-flight reads.
  std::atomic<int> rank_bias{0};
};

/// An in-flight ReadBlock. Wait() parses the StoC response frame.
/// Move-only: the read owns one unit of its StoC's outstanding-load count
/// until it is waited, cancelled, or dropped.
class PendingRead {
 public:
  PendingRead() = default;
  ~PendingRead() { Settle(false); }
  PendingRead(PendingRead&& o) noexcept { *this = std::move(o); }
  PendingRead& operator=(PendingRead&& o) noexcept;
  PendingRead(const PendingRead&) = delete;
  PendingRead& operator=(const PendingRead&) = delete;

  bool valid() const { return future_.valid(); }
  /// True once the response (or a failure) landed; never blocks.
  bool ready() const { return future_.ready(); }
  Status Wait(std::string* out, int timeout_ms = 30000);
  /// Withdraw a losing duplicated/hedged attempt: the late response is
  /// dropped and the StoC's load count is released now. Safe when the
  /// completion already landed (it is simply discarded).
  void Cancel();

 private:
  friend class StocClient;
  /// Release the outstanding-load unit; feed the latency sample into the
  /// EWMA/histogram only when the read completed successfully.
  void Settle(bool record_latency);

  rdma::Future future_;
  std::shared_ptr<StocLoad> load_;
  StocClient* client_ = nullptr;
  rdma::NodeId stoc_ = -1;
  uint64_t start_us_ = 0;
  bool settled_ = false;
};

/// An in-flight AppendBlock following the Figure-10 flow. The block data
/// slice must stay valid until Arm() returns. Typical batch usage:
/// AsyncAppendBlock all, Arm() all (each waits only the short buffer-grant
/// RPC, then issues the one-sided data write), Wait() all — the slow StoC
/// flushes then overlap across the whole batch.
class PendingAppend {
 public:
  PendingAppend() = default;
  /// Dropping an append that was never driven to completion withdraws its
  /// flush-token slot so the endpoint's waiter map cannot grow unbounded.
  ~PendingAppend() { Abandon(); }
  PendingAppend(PendingAppend&& o) noexcept { *this = std::move(o); }
  PendingAppend& operator=(PendingAppend&& o) noexcept;
  PendingAppend(const PendingAppend&) = delete;
  PendingAppend& operator=(const PendingAppend&) = delete;

  bool valid() const { return client_ != nullptr; }
  rdma::NodeId stoc() const { return stoc_; }
  /// Step 2: collect the buffer grant and issue the one-sided RDMA WRITE
  /// of the data (immediate data = buffer id). Call exactly once.
  Status Arm();
  /// True once an armed append's flush acknowledgment (or a failure)
  /// landed, so Wait returns without blocking; never blocks.
  bool ready() const;
  /// Run fn once ready() holds (see rdma::Future::OnReady: fn may run at
  /// once, or later on the completing thread, and must not block). Call
  /// after Arm.
  void OnReady(std::function<void()> fn);
  /// Step 3: wait for the flush acknowledgment; decodes *handle. Reaps
  /// the completion token on failure, so no cleanup call is needed.
  Status Wait(StocBlockHandle* handle, int timeout_ms = 30000);

 private:
  friend class StocClient;
  void Abandon();

  StocClient* client_ = nullptr;
  rdma::NodeId stoc_ = -1;
  Slice data_;
  rdma::Future alloc_;
  rdma::Future flush_ack_;
  Status armed_status_;
  bool armed_ = false;
  /// True once the flush token cannot dangle: the flush ack was waited
  /// for, or the token was reaped after a failure/abandonment.
  bool settled_ = false;
};

/// One read in a GatherReads batch: candidate replica locations (tried in
/// order) plus the byte range; status/data are filled by the gather.
struct GatherRead {
  struct Target {
    rdma::NodeId stoc = -1;
    uint64_t file_id = 0;
  };
  std::vector<Target> replicas;
  uint64_t offset = 0;
  uint64_t size = 0;  // 0 = whole file

  Status status;
  std::string data;
};

class StocClient {
 public:
  /// endpoint is shared with the owning component (its xchg threads route
  /// our responses); it must outlive this client.
  explicit StocClient(rdma::RpcEndpoint* endpoint) : endpoint_(endpoint) {}

  /// --- Persistent files (Figure 10 flow) ---

  /// Append data as one block of file_id on stoc. On success *handle
  /// locates the block. This performs: alloc RPC, one-sided RDMA WRITE
  /// with immediate data, then waits for the flush acknowledgment.
  Status AppendBlock(rdma::NodeId stoc, uint64_t file_id, const Slice& data,
                     StocBlockHandle* handle);

  /// Read [offset, offset+size) of a persistent file. size 0 = whole file.
  Status ReadBlock(rdma::NodeId stoc, uint64_t file_id, uint64_t offset,
                   uint64_t size, std::string* out);

  /// --- Asynchronous data path (the fan-out substrate: scatter writes,
  /// replica fan-out with hedging, and parity gathers ride on these) ---

  /// Begin an append (step 1 of Figure 10: the buffer-grant RPC plus the
  /// completion-token registration). See PendingAppend for the protocol.
  PendingAppend AsyncAppendBlock(rdma::NodeId stoc, uint64_t file_id,
                                 const Slice& data);
  /// Begin a read; collect it with PendingRead::Wait.
  PendingRead AsyncReadBlock(rdma::NodeId stoc, uint64_t file_id,
                             uint64_t offset, uint64_t size);
  /// Issue every read concurrently under the client's ReadPolicy: each
  /// entry goes to its d least-loaded replicas (first success wins, the
  /// losers are cancelled), fails over to the remaining candidates when
  /// every issued attempt errors, and hedges a straggling entry to the
  /// next-least-loaded replica after the p99-derived hedge delay. Fills
  /// each entry's status/data; returns OK iff every entry succeeded (the
  /// first failure otherwise — all entries are still driven to
  /// completion).
  Status GatherReads(std::vector<GatherRead>* reads, int timeout_ms = 30000);
  /// Single replicated read: a one-entry GatherReads.
  Status ReadReplicated(const std::vector<GatherRead::Target>& replicas,
                        uint64_t offset, uint64_t size, std::string* out,
                        int timeout_ms = 30000);

  /// --- Membership circuit breaker (ISSUE 9) ---
  ///
  /// When set, no reads, writes, or hedges are routed to suspect/dead
  /// StoCs (a half-open trickle of probes excepted, so recovery is
  /// detected), and every RPC outcome feeds the health state machine.
  /// The Membership is owned by the coordinator and must outlive this
  /// client.
  void set_membership(coord::Membership* m) {
    membership_.store(m, std::memory_order_release);
  }
  coord::Membership* membership() const {
    return membership_.load(std::memory_order_acquire);
  }
  /// True when normal traffic may be routed to stoc (no membership set,
  /// or the node is alive).
  bool IsRoutable(rdma::NodeId stoc) const;
  /// Feed an RPC outcome into membership. Only connection-level failures
  /// (Unavailable: dead node, deadline expiry, circuit-relevant injected
  /// faults) count against a node; an application error still proves the
  /// node answered.
  void ReportRpc(rdma::NodeId stoc, const Status& s);

  void set_read_policy(const ReadPolicy& policy) {
    std::lock_guard<std::mutex> l(load_mu_);
    policy_ = policy;
  }
  ReadPolicy read_policy() {
    std::lock_guard<std::mutex> l(load_mu_);
    return policy_;
  }
  /// Per-StoC load state (created on first use). Tests inject rank_bias
  /// through this; the read path updates outstanding/ewma through it.
  std::shared_ptr<StocLoad> load(rdma::NodeId stoc);
  /// Hedge delay currently in force: max(p99 of observed read latency,
  /// policy floor), or the floor alone until enough samples accumulated.
  uint64_t HedgeDelayUs();

  /// Lifetime count of ReadBlock RPCs issued through this client (the
  /// block-cache benchmarks report StoC reads avoided with it).
  uint64_t read_block_calls() const {
    return read_block_calls_.load(std::memory_order_relaxed);
  }
  /// Reads that had a choice of replica and used power-of-d selection.
  uint64_t pod_reads() const {
    return pod_reads_.load(std::memory_order_relaxed);
  }
  /// Speculative second attempts launched / won (straggler mitigation).
  uint64_t hedged_issued() const {
    return hedged_issued_.load(std::memory_order_relaxed);
  }
  uint64_t hedged_won() const {
    return hedged_won_.load(std::memory_order_relaxed);
  }
  /// Lifetime wire traffic through this client, all StoCs: request and
  /// one-sided-write payload bytes out, response-body bytes in
  /// (LtcServer::TotalStats reports their sum as bytes_over_wire).
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }

  /// --- SSTable write slots ---
  ///
  /// An LTC bounds the SSTable writes it keeps in flight at each StoC, so
  /// every disk has its next write queued and nothing queues behind a
  /// long run of them. Every range of an LTC shares this client, so the
  /// count spans them all. A write holds one slot per StoC it stores
  /// data on, from its placement until that StoC acknowledged its pieces.

  /// Take one slot on each StoC of stocs (a repeated StoC counts once) if
  /// every one of them holds fewer than limit; all or nothing.
  bool TryReserveWrites(const std::vector<rdma::NodeId>& stocs, int limit);
  void ReleaseWrite(rdma::NodeId stoc);
  int writes_in_flight(rdma::NodeId stoc);
  /// The most slots any one StoC has held at once (tests).
  int peak_writes_in_flight();
  /// Reservations and releases so far. A placement reads this before it
  /// looks at the slots; after its reservation failed, pass the count to
  /// WaitForWriteSlotChange, which returns at once when a slot changed
  /// since (the placement raced another and may find room now) and
  /// otherwise sleeps until the next release (or timeout_ms).
  uint64_t write_slot_changes();
  void WaitForWriteSlotChange(uint64_t seen, int timeout_ms);

  Status DeleteFile(rdma::NodeId stoc, uint64_t file_id, bool in_memory);

  /// --- In-memory files (Section 6.1) ---

  Status OpenInMemFile(rdma::NodeId stoc, uint64_t file_id,
                       uint64_t region_size, InMemFileHandle* handle);
  /// Ask the StoC for one more region (when the current one is full).
  Status ExtendInMemFile(InMemFileHandle* handle);
  /// One-sided write at a global offset within the file's region chain.
  /// The data must fit entirely inside one region.
  Status WriteInMem(const InMemFileHandle& handle, uint64_t global_offset,
                    const Slice& data);
  /// One-sided read of a whole region into *out (recovery path).
  Status ReadInMemRegion(const InMemFileHandle& handle, size_t region_index,
                         std::string* out);
  /// Two-sided append to an in-memory file: the StoC's CPU copies the
  /// data (the paper's NIC replication path, Section 8.2.3).
  Status NicAppend(const InMemFileHandle& handle, uint64_t global_offset,
                   const Slice& data);

  /// --- Introspection / management ---

  /// timeout_ms: load probes (power-of-d placement) pass a short budget
  /// so a StoC dying mid-probe cannot stall the caller for the full RPC
  /// timeout.
  Status GetStats(rdma::NodeId stoc, StocStats* stats,
                  int timeout_ms = 30000);
  /// In-memory log files of a range: used by LogC recovery.
  Status QueryLogFiles(rdma::NodeId stoc, uint32_t range_id,
                       std::vector<InMemFileHandle>* handles);
  Status ListFiles(rdma::NodeId stoc, std::vector<uint64_t>* files);
  /// Ask stoc to copy file_id to dst (graceful decommission path).
  Status CopyFileTo(rdma::NodeId stoc, uint64_t file_id, rdma::NodeId dst);
  /// Offloaded compaction round trip.
  Status Compaction(rdma::NodeId stoc, const Slice& job, std::string* result,
                    int timeout_ms = 120000);

  rdma::RpcEndpoint* endpoint() { return endpoint_; }

 private:
  friend class PendingRead;
  friend class PendingAppend;

  /// Account wire traffic for one RPC leg.
  void CountWire(uint64_t sent, uint64_t received);

  Status SimpleCall(rdma::NodeId stoc, const std::string& req, Slice* body,
                    std::string* storage, int timeout_ms = 30000);
  /// SimpleCall retried, for idempotent introspection ops only
  /// (stats/list/query): a transient Unavailable or Busy is retried with
  /// backoff inside the timeout_ms budget.
  Status IdempotentCall(rdma::NodeId stoc, const std::string& req, Slice* body,
                        std::string* storage, int timeout_ms = 30000);
  /// Circuit-breaker admission for a single RPC: normal traffic to alive
  /// nodes, a rate-limited probe to suspect/probing ones, nothing to dead
  /// ones.
  bool AdmitRpc(rdma::NodeId stoc);
  /// Candidate replica indices ranked by load, least-loaded first
  /// (routable before non-routable, then outstanding+bias, then latency
  /// EWMA, then index for determinism).
  std::vector<size_t> RankReplicas(
      const std::vector<GatherRead::Target>& replicas);
  void RecordReadLatency(uint64_t us);

  rdma::RpcEndpoint* endpoint_;
  std::atomic<coord::Membership*> membership_{nullptr};
  std::atomic<uint64_t> read_block_calls_{0};
  std::atomic<uint64_t> pod_reads_{0};
  std::atomic<uint64_t> hedged_issued_{0};
  std::atomic<uint64_t> hedged_won_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};

  std::mutex load_mu_;
  ReadPolicy policy_;
  std::map<rdma::NodeId, std::shared_ptr<StocLoad>> load_;
  /// Observed read latencies feeding the p99-based hedge delay.
  Histogram read_latency_us_;

  /// SSTable write slots. Never held across an RPC: releases run on xchg
  /// threads.
  std::mutex writes_mu_;
  std::condition_variable writes_cv_;
  std::map<rdma::NodeId, int> writes_in_flight_;
  int peak_writes_in_flight_ = 0;
  uint64_t write_slot_changes_ = 0;
};

}  // namespace stoc
}  // namespace nova

#endif  // NOVA_STOC_STOC_CLIENT_H_
