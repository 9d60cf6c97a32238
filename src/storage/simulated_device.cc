#include "storage/simulated_device.h"

#include <chrono>
#include <cmath>

namespace nova {

SimulatedDevice::SimulatedDevice(std::string name, const DeviceConfig& config)
    : name_(std::move(name)), config_(config) {
  window_start_ = std::chrono::steady_clock::now();
  worker_ = std::thread([this] { DeviceLoop(); });
}

SimulatedDevice::~SimulatedDevice() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_.store(true);
  }
  cv_.notify_all();
  if (worker_.joinable()) {
    worker_.join();
  }
}

void SimulatedDevice::Submit(IoKind kind, uint64_t bytes, uint64_t stream_id,
                             std::function<void()> done) {
  {
    std::lock_guard<std::mutex> l(mu_);
    queue_.push_back(IoRequest{kind, bytes, stream_id, std::move(done)});
    queue_depth_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
}

void SimulatedDevice::BlockingIo(IoKind kind, uint64_t bytes,
                                 uint64_t stream_id) {
  std::mutex m;
  std::condition_variable done_cv;
  bool done = false;
  Submit(kind, bytes, stream_id, [&] {
    std::lock_guard<std::mutex> l(m);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> l(m);
  done_cv.wait(l, [&] { return done; });
}

double SimulatedDevice::ServiceUs(uint64_t bytes, bool sequential) const {
  double us = ((sequential ? 0.0 : config_.seek_latency_us) +
               static_cast<double>(bytes) * 1e6 /
                   config_.bandwidth_bytes_per_sec) *
              config_.time_scale;
  // Injected straggler delay bypasses time_scale: tests run at
  // time_scale 0 but still need one slow replica.
  return us + static_cast<double>(
                  injected_latency_us_.load(std::memory_order_relaxed));
}

namespace {
double Decayed(double busy_us, std::chrono::steady_clock::time_point at,
               std::chrono::steady_clock::time_point now) {
  double age_us = std::chrono::duration<double, std::micro>(now - at).count();
  return busy_us *
         std::exp(-age_us / SimulatedDevice::kRecentBusyWindowUs);
}
}  // namespace

uint64_t SimulatedDevice::RecentBusyUs() const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<uint64_t>(
      Decayed(recent_busy_us_, recent_busy_at_,
              std::chrono::steady_clock::now()));
}

double SimulatedDevice::WindowUtilization() {
  auto now = std::chrono::steady_clock::now();
  double elapsed_us =
      std::chrono::duration<double, std::micro>(now - window_start_).count();
  if (elapsed_us <= 0) {
    return 0;
  }
  return static_cast<double>(window_busy_us_.load()) / elapsed_us;
}

void SimulatedDevice::ResetWindow() {
  window_busy_us_.store(0);
  window_start_ = std::chrono::steady_clock::now();
}

void SimulatedDevice::DeviceLoop() {
  for (;;) {
    IoRequest req;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [this] { return stop_.load() || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopped and drained
      }
      req = std::move(queue_.front());
      queue_.pop_front();
    }

    double service_us = 0;
    if (!failed_.load(std::memory_order_acquire)) {
      bool sequential = config_.sequential_optimization &&
                        req.stream_id == last_stream_id_ &&
                        req.kind == IoKind::kWrite;
      last_stream_id_ = req.stream_id;
      service_us = ServiceUs(req.bytes, sequential);
      if (service_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(service_us));
      }
    }

    busy_us_.fetch_add(static_cast<uint64_t>(service_us),
                       std::memory_order_relaxed);
    if (service_us > 0) {
      auto now = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> l(mu_);
      recent_busy_us_ =
          Decayed(recent_busy_us_, recent_busy_at_, now) + service_us;
      recent_busy_at_ = now;
    }
    window_busy_us_.fetch_add(static_cast<uint64_t>(service_us),
                              std::memory_order_relaxed);
    if (req.kind == IoKind::kRead) {
      bytes_read_.fetch_add(req.bytes, std::memory_order_relaxed);
      num_reads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      bytes_written_.fetch_add(req.bytes, std::memory_order_relaxed);
      num_writes_.fetch_add(1, std::memory_order_relaxed);
    }
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    if (req.done) {
      req.done();
    }
  }
}

}  // namespace nova
