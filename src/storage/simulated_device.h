// SimulatedDevice models one StoC's disk: a FIFO request queue served by a
// single device thread where each request costs seek + bytes/bandwidth of
// real (scaled) wall-clock time.
//
// The paper's experiments run on one 1 TB hard disk per node; every
// phenomenon it reports — write stalls when flushes outrun the disk,
// queuing delays when SSTable writes collide on one StoC (Challenge 3),
// power-of-d peeking at each StoC's disk work, seek amplification when a
// SSTable is scattered too widely (Section 8.2.5) — emerges from exactly
// this queue+seek+bandwidth mechanism. Defaults are scaled 1/64 together
// with all data sizes (DESIGN.md Section 2): 2 MB/s ≙ 128 MB/s effective
// HDD bandwidth at full scale.
#ifndef NOVA_STORAGE_SIMULATED_DEVICE_H_
#define NOVA_STORAGE_SIMULATED_DEVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace nova {

struct DeviceConfig {
  double bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  double seek_latency_us = 1500.0;
  /// Multiplier on all service times (0 disables timing; unit tests).
  double time_scale = 1.0;
  /// Consecutive requests to the same file id skip the seek (sequential
  /// append optimization; favors small scatter width ρ as in Table 5).
  bool sequential_optimization = true;
};

class SimulatedDevice {
 public:
  enum class IoKind { kRead, kWrite };

  explicit SimulatedDevice(std::string name, const DeviceConfig& config);
  ~SimulatedDevice();

  SimulatedDevice(const SimulatedDevice&) = delete;
  SimulatedDevice& operator=(const SimulatedDevice&) = delete;

  /// Enqueue an I/O; done runs on the device thread after the simulated
  /// service time elapses. stream_id identifies the file for the
  /// sequentiality model.
  void Submit(IoKind kind, uint64_t bytes, uint64_t stream_id,
              std::function<void()> done);

  /// Blocking convenience wrappers.
  void BlockingIo(IoKind kind, uint64_t bytes, uint64_t stream_id);

  /// Number of requests queued or in service.
  int QueueDepth() const { return queue_depth_.load(std::memory_order_relaxed); }

  /// Service time of one request of `bytes`, in wall-clock us: seek (none
  /// for a sequential append) + bytes/bandwidth, scaled by time_scale,
  /// plus the injected straggler delay. A caller estimating work ahead of
  /// time passes sequential = false: the discount depends on the request
  /// the device serves just before.
  double ServiceUs(uint64_t bytes, bool sequential = false) const;

  /// Time constant of RecentBusyUs.
  static constexpr double kRecentBusyWindowUs = 250000;
  /// Busy time over the recent past: the service time of every finished
  /// request, decayed exponentially with kRecentBusyWindowUs. A device
  /// busy all the time reads about kRecentBusyWindowUs; an idle one
  /// decays toward 0.
  uint64_t RecentBusyUs() const;

  /// Fault injection: a failed device rejects service by completing
  /// requests immediately with failed() observable by the caller layer.
  void Fail() { failed_.store(true, std::memory_order_release); }
  void Repair() { failed_.store(false, std::memory_order_release); }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// Straggler injection: extra wall-clock delay added to every request's
  /// service time, applied even at time_scale 0. Makes this StoC a
  /// deterministic straggler for replica-selection / hedging tests and
  /// the latency-skew benchmark scenarios.
  void InjectLatency(uint64_t us) {
    injected_latency_us_.store(us, std::memory_order_relaxed);
  }
  uint64_t injected_latency_us() const {
    return injected_latency_us_.load(std::memory_order_relaxed);
  }

  // Cumulative statistics.
  uint64_t bytes_read() const { return bytes_read_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t num_reads() const { return num_reads_.load(); }
  uint64_t num_writes() const { return num_writes_.load(); }
  /// Total simulated time the device spent serving requests, in us.
  uint64_t busy_us() const { return busy_us_.load(); }
  /// Device utilization over the window since ResetWindow().
  double WindowUtilization();
  void ResetWindow();

  const DeviceConfig& config() const { return config_; }
  const std::string& name() const { return name_; }

 private:
  struct IoRequest {
    IoKind kind;
    uint64_t bytes;
    uint64_t stream_id;
    std::function<void()> done;
  };

  void DeviceLoop();

  std::string name_;
  DeviceConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<IoRequest> queue_;
  std::atomic<int> queue_depth_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> injected_latency_us_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> num_reads_{0};
  std::atomic<uint64_t> num_writes_{0};
  std::atomic<uint64_t> busy_us_{0};
  uint64_t last_stream_id_ = ~0ull;
  /// RecentBusyUs as of recent_busy_at_; guarded by mu_.
  double recent_busy_us_ = 0;
  std::chrono::steady_clock::time_point recent_busy_at_;
  std::atomic<uint64_t> window_busy_us_{0};
  std::chrono::steady_clock::time_point window_start_;
  std::thread worker_;
};

}  // namespace nova

#endif  // NOVA_STORAGE_SIMULATED_DEVICE_H_
