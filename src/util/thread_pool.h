// A fixed-size worker pool with a bounded-wait Shutdown. Components use
// dedicated pools for client workers, compaction threads, reorg threads and
// recovery threads, mirroring the paper's thread model (Section 3.2).
#ifndef NOVA_UTIL_THREAD_POOL_H_
#define NOVA_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace nova {

class ThreadPool {
 public:
  /// Starts num_threads workers immediately. name is used for diagnostics.
  ThreadPool(std::string name, int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue work; returns false if the pool is shutting down. first =
  /// true runs it before every task already queued.
  bool Submit(std::function<void()> task, bool first = false);

  /// Block until all queued work at the time of the call has drained.
  void Drain();

  /// Stop accepting work, finish queued tasks, join workers.
  void Shutdown();

  int num_threads() const { return static_cast<int>(threads_.size()); }
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  std::string name_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace nova

#endif  // NOVA_UTIL_THREAD_POOL_H_
