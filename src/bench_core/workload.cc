#include "bench_core/workload.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

namespace nova {
namespace bench {

const char* WorkloadName(WorkloadType type) {
  switch (type) {
    case WorkloadType::kRW50:
      return "RW50";
    case WorkloadType::kSW50:
      return "SW50";
    case WorkloadType::kW100:
      return "W100";
    case WorkloadType::kR100:
      return "R100";
  }
  return "?";
}

std::string MakeKey(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

std::vector<std::string> EvenSplitPoints(uint64_t num_keys, int parts) {
  std::vector<std::string> splits;
  for (int p = 1; p < parts; p++) {
    splits.push_back(MakeKey(num_keys * p / parts));
  }
  return splits;
}

void LoadData(coord::Cluster* cluster, const WorkloadSpec& spec,
              int num_threads) {
  std::atomic<uint64_t> next{0};
  std::string value(spec.value_size, 'v');
  auto worker = [&] {
    for (;;) {
      uint64_t i = next.fetch_add(1);
      if (i >= spec.num_keys) {
        return;
      }
      cluster->Put(MakeKey(i), value);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; t++) {
    threads.emplace_back(worker);
  }
  for (auto& t : threads) {
    t.join();
  }
}

RunResult RunWorkload(coord::Cluster* cluster, const WorkloadSpec& spec,
                      double duration_sec, int num_threads,
                      const std::atomic<bool>* stop) {
  using Clock = std::chrono::steady_clock;
  RunResult result;
  result.read_latency = std::make_shared<Histogram>();
  result.write_latency = std::make_shared<Histogram>();
  result.scan_latency = std::make_shared<Histogram>();
  int num_windows = static_cast<int>(duration_sec) + 2;
  std::vector<std::atomic<uint64_t>> windows(num_windows);
  for (auto& w : windows) {
    w.store(0);
  }
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> done{false};

  auto start = Clock::now();
  auto worker = [&](int tid) {
    Random rng(spec.seed + tid * 7919);
    std::unique_ptr<KeyGenerator> gen;
    if (spec.zipf_theta > 0) {
      gen = std::make_unique<ZipfianGenerator>(spec.num_keys,
                                               spec.zipf_theta);
    } else {
      gen = std::make_unique<UniformGenerator>(spec.num_keys);
    }
    std::string value(spec.value_size, 'w');
    std::string read_value;
    while (!done.load(std::memory_order_relaxed) &&
           (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
      uint64_t k = gen->Next(&rng);
      std::string key = MakeKey(k);
      bool write = false;
      bool scan = false;
      switch (spec.type) {
        case WorkloadType::kW100:
          write = true;
          break;
        case WorkloadType::kR100:
          write = false;
          break;
        case WorkloadType::kRW50:
          write = rng.OneIn(2);
          break;
        case WorkloadType::kSW50:
          write = rng.OneIn(2);
          scan = !write;
          break;
      }
      auto t0 = Clock::now();
      Status s;
      if (write) {
        s = cluster->Put(key, value);
      } else if (scan) {
        std::vector<std::pair<std::string, std::string>> records;
        s = cluster->Scan(key, spec.scan_length, &records);
      } else {
        s = cluster->Get(key, &read_value);
        if (s.IsNotFound()) {
          s = Status::OK();  // racing deletes / unloaded keys are fine
        }
      }
      uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now() - t0)
              .count());
      if (write) {
        result.write_latency->Add(us);
      } else if (scan) {
        result.scan_latency->Add(us);
      } else {
        result.read_latency->Add(us);
      }
      if (!s.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      total.fetch_add(1, std::memory_order_relaxed);
      int window = static_cast<int>(
          std::chrono::duration<double>(Clock::now() - start).count());
      if (window >= 0 && window < num_windows) {
        windows[window].fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; t++) {
    threads.emplace_back(worker, t);
  }
  auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_sec));
  while (Clock::now() < deadline &&
         (stop == nullptr || !stop->load(std::memory_order_relaxed))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  done.store(true);
  for (auto& t : threads) {
    t.join();
  }
  result.duration_sec =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.total_ops = total.load();
  result.errors = errors.load();
  result.ops_per_sec = result.total_ops / result.duration_sec;
  for (int w = 0; w < num_windows; w++) {
    result.per_second.push_back(windows[w].load());
  }
  while (!result.per_second.empty() && result.per_second.back() == 0) {
    result.per_second.pop_back();
  }
  return result;
}

std::string Summarize(const WorkloadSpec& spec, const RunResult& result) {
  char buf[256];
  char dist[32];
  if (spec.zipf_theta > 0) {
    snprintf(dist, sizeof(dist), "Zipf%.2f", spec.zipf_theta);
  } else {
    snprintf(dist, sizeof(dist), "Uniform");
  }
  snprintf(buf, sizeof(buf), "%-5s %-9s %9.0f ops/s (%llu ops, %llu errs)",
           WorkloadName(spec.type), dist, result.ops_per_sec,
           static_cast<unsigned long long>(result.total_ops),
           static_cast<unsigned long long>(result.errors));
  return buf;
}

}  // namespace bench
}  // namespace nova
