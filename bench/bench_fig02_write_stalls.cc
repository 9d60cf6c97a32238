// Figure 2: write-stall behaviour of four configurations, shown as a
// throughput timeline of W100/Uniform:
//   (i)   δ=2 memtables (32 MB-equivalent), 1 StoC
//   (ii)  δ=2, 10 StoCs
//   (iii) δ=128-equivalent, 1 StoC
//   (iv)  δ=128-equivalent, 10 StoCs
// The paper reports a 27x average-throughput gap between (i) and (iv) and
// visibly sparse timelines (stall gaps) for the small configurations.
//
// A second section measures the compaction executor (§4.3): a fixed write
// load followed by a timed flush+compaction drain, with foreground gets
// running against it. Results land in --json=<path>
// (BENCH_compaction.json) when the flag is given. The binary exits
// non-zero when the drain ran no compaction, since its numbers would then
// measure nothing.
#include <atomic>
#include <chrono>
#include <thread>

#include "bench_common.h"
#include "util/histogram.h"
#include "util/zipfian.h"

namespace nova {
namespace bench {

void RunConfig(const BenchConfig& cfg, const char* label, int memtables,
               int stocs) {
  coord::ClusterOptions opt = PaperScaledOptions(1, stocs);
  opt.range.max_memtables = memtables;
  opt.range.drange.theta = std::max(1, memtables / 4);
  opt.range.max_parallel_compactions = std::max(1, memtables / 8);
  opt.placement.rho = 1;
  coord::Cluster cluster(opt);
  cluster.Start();
  WorkloadSpec spec;
  spec.num_keys = cfg.num_keys;
  spec.value_size = cfg.value_size;
  spec.type = WorkloadType::kW100;
  RunResult r = RunWorkload(&cluster, spec, cfg.seconds * 2,
                            cfg.client_threads);
  auto stats = cluster.TotalStats();
  // stall_us accumulates across client threads; normalize per thread.
  printf("%-28s avg %8.0f ops/s  stall %5.1f%%  timeline:",
         label, r.ops_per_sec,
         100.0 * stats.stall_us / 1e6 / r.duration_sec /
             cfg.client_threads);
  for (uint64_t w : r.per_second) {
    printf(" %llu", static_cast<unsigned long long>(w));
  }
  printf("\n");
  fflush(stdout);
  cluster.Stop();
}

// Fixed write load, then a timed flush + compaction drain while one
// thread issues Zipf gets. Values are stored raw: the load repeats one
// byte, which compresses so well that L0 would never reach the
// compaction trigger. Returns false when no compaction ran.
bool RunCompactionDrain(const BenchConfig& cfg, JsonArtifact* artifact) {
  coord::ClusterOptions opt = PaperScaledOptions(1, 4);
  opt.range.compression_codec = kNoCompression;
  coord::Cluster cluster(opt);
  cluster.Start();
  Random rng(42);
  std::string value(cfg.value_size, 'c');
  for (uint64_t i = 0; i < cfg.num_keys; i++) {
    char key[32];
    snprintf(key, sizeof(key), "%016llu",
             static_cast<unsigned long long>(rng.Uniform(cfg.num_keys)));
    if (!cluster.Put(key, value).ok()) {
      fprintf(stderr, "put failed during load\n");
      return false;
    }
  }
  // Foreground Zipf gets run against the background compaction drain so
  // the numbers capture interference, not just isolated drain time.
  std::atomic<bool> drain_done{false};
  Histogram fg_gets;
  std::thread reader([&]() {
    ZipfianGenerator zipf(cfg.num_keys, 0.99);
    Random rng(7);
    std::string value;
    while (!drain_done.load(std::memory_order_relaxed)) {
      char key[32];
      snprintf(key, sizeof(key), "%016llu",
               static_cast<unsigned long long>(zipf.Next(&rng)));
      auto issued = std::chrono::steady_clock::now();
      cluster.Get(key, &value);  // NotFound for unwritten keys is fine
      fg_gets.Add(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - issued)
                      .count());
    }
  });
  auto start = std::chrono::steady_clock::now();
  for (auto* engine : cluster.ltc(0)->ranges()) {
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(/*flush_all=*/true);
  }
  double drain_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  drain_done.store(true);
  reader.join();
  double fg_gets_per_sec = fg_gets.count() / drain_sec;
  auto stats = cluster.TotalStats();
  printf("drain %7.3f s  fg gets %7.0f ops/s  p50 %7.0f us  p99 %7.0f us  "
         "compactions %4llu  prefetch %6llu  read %6.1f MB  wrote %6.1f MB  "
         "queue %7.1f ms\n",
         drain_sec, fg_gets_per_sec, fg_gets.Percentile(50),
         fg_gets.Percentile(99),
         static_cast<unsigned long long>(stats.compactions),
         static_cast<unsigned long long>(stats.compaction_prefetches),
         stats.compaction_bytes_read / 1048576.0,
         stats.compaction_bytes_written / 1048576.0,
         stats.compaction_queue_us / 1000.0);
  fflush(stdout);
  artifact->Add("drain",
                {{"drain_seconds", drain_sec},
                 {"fg_gets_per_sec", fg_gets_per_sec},
                 {"fg_get_p50_us", fg_gets.Percentile(50)},
                 {"fg_get_p99_us", fg_gets.Percentile(99)},
                 {"compactions", static_cast<double>(stats.compactions)},
                 {"prefetches",
                  static_cast<double>(stats.compaction_prefetches)},
                 {"bytes_read", static_cast<double>(stats.compaction_bytes_read)},
                 {"bytes_written",
                  static_cast<double>(stats.compaction_bytes_written)},
                 {"queue_us", static_cast<double>(stats.compaction_queue_us)}});
  cluster.Stop();
  return stats.compactions > 0;
}

bool Run(const BenchConfig& cfg) {
  PrintHeader("Figure 2: write stalls vs (memtables, StoCs), W100 Uniform");
  RunConfig(cfg, "(i)   2 memtables,  1 StoC", 2, 1);
  RunConfig(cfg, "(ii)  2 memtables, 10 StoC", 2, 10);
  RunConfig(cfg, "(iii) 32 memtables, 1 StoC", 32, 1);
  RunConfig(cfg, "(iv)  32 memtables,10 StoC", 32, 10);

  PrintHeader("Compaction drain under foreground gets (Section 4.3)");
  JsonArtifact artifact("compaction_drain");
  bool compacted = RunCompactionDrain(cfg, &artifact);
  artifact.Write(cfg.json_path);
  if (!compacted) {
    fprintf(stderr, "the drain ran no compaction; raise --keys\n");
  }
  return compacted;
}

}  // namespace bench
}  // namespace nova

int main(int argc, char** argv) {
  return nova::bench::Run(nova::bench::ParseArgs(argc, argv)) ? 0 : 1;
}
