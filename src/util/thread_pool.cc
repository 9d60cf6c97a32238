#include "util/thread_pool.h"

namespace nova {

ThreadPool::ThreadPool(std::string name, int num_threads)
    : name_(std::move(name)) {
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; i++) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task, bool first) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (shutdown_) {
      return false;
    }
    if (first) {
      queue_.push_front(std::move(task));
    } else {
      queue_.push_back(std::move(task));
    }
  }
  work_cv_.notify_one();
  return true;
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> l(mu_);
  drain_cv_.wait(l, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> l(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> l(mu_);
      work_cv_.wait(l, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutdown_ with an empty queue: exit.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      active_++;
    }
    task();
    {
      std::lock_guard<std::mutex> l(mu_);
      active_--;
      if (queue_.empty() && active_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

}  // namespace nova
