// LTC-side block cache. Two experiments:
//  1. Zipfian read-heavy throughput and StoC reads avoided at several
//     cache sizes vs. the uncached baseline (block_cache_bytes = 0). The
//     read path without a cache pays one StoC ReadBlock round-trip per
//     get; a warm cache serves hot blocks from LTC memory.
//  2. Mixed scan+get A/B over {compression, compressed tier, admission
//     policy}: full-keyspace scans interleaved with point gets of a hot
//     working set. Two-queue admission keeps the scan flood out of the
//     point-get working set; the compressed tier absorbs hot-tier misses
//     without StoC round trips; compression shrinks bytes_over_wire.
#include "bench_common.h"

#include "util/random.h"

namespace nova {
namespace bench {

namespace {

uint64_t TotalStocReads(coord::Cluster* cluster) {
  uint64_t total = 0;
  for (int i = 0; i < cluster->num_ltcs(); i++) {
    total += cluster->ltc(i)->stoc_client()->read_block_calls();
  }
  return total;
}

/// Cache-sensitive read-path cluster: unthrottled CPUs and a milder disk
/// so the StoC round-trips (not the virtual CPU or the load phase)
/// dominate.
coord::ClusterOptions ReadPathOptions() {
  coord::ClusterOptions opt = PaperScaledOptions(1, 4);
  opt.ltc.cpu_rate_us_per_sec = 0;
  opt.stoc.cpu_rate_us_per_sec = 0;
  opt.device.bandwidth_bytes_per_sec = 8.0 * 1024 * 1024;
  opt.device.seek_latency_us = 400;
  return opt;
}

void CacheSizeSweep(const BenchConfig& cfg, JsonArtifact* json) {
  PrintHeader(
      "Block cache: Zipf0.99 R100 vs block_cache_bytes (eta=1, beta=4)");
  printf("%-12s %10s %8s %14s %10s %8s\n", "cache", "ops/s", "speedup",
         "stoc-reads/1k", "reduction", "hit%");

  const size_t kSizes[] = {0, 256 << 10, 1 << 20, 4 << 20, 16 << 20};
  double base_ops = 0;
  double base_reads_per_op = 0;
  for (size_t cache_bytes : kSizes) {
    coord::ClusterOptions opt = ReadPathOptions();
    opt.ltc.block_cache_bytes = cache_bytes;
    coord::Cluster cluster(opt);
    cluster.Start();

    WorkloadSpec spec;
    spec.num_keys = cfg.num_keys;
    spec.value_size = cfg.value_size;
    spec.type = WorkloadType::kW100;
    LoadData(&cluster, spec, cfg.client_threads);
    // Push everything into SSTables so every get exercises the StoC read
    // path rather than the memtables.
    for (auto* engine : cluster.ltc(0)->ranges()) {
      engine->FlushAllMemtables();
      engine->WaitForQuiescence(/*flush_all=*/true);
    }

    spec.type = WorkloadType::kR100;
    spec.zipf_theta = 0.99;
    // Warm the cache (--warmup=N controls the window; default half the
    // measurement window), then measure. Hit% is windowed like the
    // StoC-read delta so load/warm-up misses don't understate the steady
    // state — raise --warmup when large caches look cold-start noisy.
    if (cfg.WarmupSeconds() > 0) {
      RunWorkload(&cluster, spec, cfg.WarmupSeconds(), cfg.client_threads);
    }
    uint64_t reads_before = TotalStocReads(&cluster);
    ltc::RangeStats before = cluster.TotalStats();
    RunResult r = RunWorkload(&cluster, spec, cfg.seconds,
                              cfg.client_threads);
    uint64_t reads = TotalStocReads(&cluster) - reads_before;
    ltc::RangeStats stats = cluster.TotalStats();
    cluster.Stop();

    double reads_per_op =
        r.total_ops > 0 ? static_cast<double>(reads) / r.total_ops : 0;
    uint64_t hits = stats.block_cache_hits - before.block_cache_hits;
    uint64_t lookups =
        hits + stats.block_cache_misses - before.block_cache_misses;
    double hit_pct = lookups > 0 ? 100.0 * hits / lookups : 0;
    char label[32];
    if (cache_bytes == 0) {
      snprintf(label, sizeof(label), "off");
      base_ops = r.ops_per_sec;
      base_reads_per_op = reads_per_op;
    } else {
      snprintf(label, sizeof(label), "%zuKB", cache_bytes >> 10);
    }
    printf("%-12s %10.0f %7.2fx %14.1f %9.2fx %7.1f%%\n", label,
           r.ops_per_sec, base_ops > 0 ? r.ops_per_sec / base_ops : 1.0,
           1000.0 * reads_per_op,
           reads_per_op > 0 && base_reads_per_op > 0
               ? base_reads_per_op / reads_per_op
               : 0.0,
           hit_pct);
    fflush(stdout);
    json->Add(std::string("sweep/") + label,
              {{"cache_bytes", static_cast<double>(cache_bytes)},
               {"ops_per_sec", r.ops_per_sec},
               {"stoc_reads_per_1k", 1000.0 * reads_per_op},
               {"hit_pct", hit_pct}});
  }
}

/// One A/B cell of the mixed scan+get experiment.
struct MixConfig {
  const char* label;
  CompressionCodec codec;  // range compression_codec
  size_t compressed_bytes; // 0 = single tier
  double hot_fraction;     // >= 1.0 = classic LRU admission
};

void ScanGetMix(const BenchConfig& cfg, JsonArtifact* json) {
  PrintHeader(
      "Mixed scan+get A/B: compression x cache tiers x admission policy");
  printf("%-24s %9s %12s %9s %9s %9s\n", "config", "get-hit%",
         "get-stoc/1k", "scan s", "wire-MB", "raw/st");

  // The working set fits the hot tier with room to spare; the full
  // dataset is several times the hot tier, so every scan sweep is a
  // cache flood.
  const uint64_t kKeys = std::max<uint64_t>(2000, cfg.num_keys / 3);
  const uint64_t kWorkingSet = kKeys / 20;
  const int kRounds = 3;
  const int kGetsPerRound = 2000;

  const MixConfig kConfigs[] = {
      {"comp+2tier+2queue", kNovaLzCompression, 8 << 20, 0.75},
      {"comp+2tier+classic", kNovaLzCompression, 8 << 20, 1.0},
      {"comp+1tier+2queue", kNovaLzCompression, 0, 0.75},
      {"comp+1tier+classic", kNovaLzCompression, 0, 1.0},
      {"raw+1tier+2queue", kNoCompression, 0, 0.75},
  };
  for (const MixConfig& c : kConfigs) {
    coord::ClusterOptions opt = ReadPathOptions();
    opt.ltc.block_cache_bytes = 1 << 20;
    opt.ltc.compressed_cache_bytes = c.compressed_bytes;
    opt.ltc.cache_hot_fraction = c.hot_fraction;
    opt.range.compression_codec = c.codec;
    coord::Cluster cluster(opt);
    cluster.Start();

    WorkloadSpec spec;
    spec.num_keys = kKeys;
    spec.value_size = cfg.value_size;
    spec.type = WorkloadType::kW100;
    LoadData(&cluster, spec, cfg.client_threads);
    for (auto* engine : cluster.ltc(0)->ranges()) {
      engine->FlushAllMemtables();
      engine->WaitForQuiescence(/*flush_all=*/true);
    }

    // Warm the point-get working set, then alternate full-keyspace scan
    // sweeps with bursts of working-set gets. Hit rate and StoC reads
    // are windowed over the get bursts only, so they answer: did the
    // scan flood evict the point-get working set?
    Random rng(42);
    std::string value;
    for (uint64_t i = 0; i < kWorkingSet; i++) {
      cluster.Get(MakeKey(i), &value);
    }
    uint64_t get_hits = 0, get_lookups = 0, get_reads = 0, gets = 0;
    double scan_seconds = 0;
    for (int round = 0; round < kRounds; round++) {
      auto scan_start = std::chrono::steady_clock::now();
      for (uint64_t start = 0; start < kKeys; start += 1000) {
        std::vector<std::pair<std::string, std::string>> out;
        cluster.Scan(MakeKey(start), 1000, &out);
      }
      scan_seconds += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - scan_start)
                          .count();
      ltc::RangeStats before = cluster.TotalStats();
      uint64_t reads_before = TotalStocReads(&cluster);
      for (int g = 0; g < kGetsPerRound; g++) {
        cluster.Get(MakeKey(rng.Uniform(kWorkingSet)), &value);
      }
      ltc::RangeStats after = cluster.TotalStats();
      uint64_t hits =
          (after.block_cache_hits - before.block_cache_hits) +
          (after.block_cache_compressed_hits -
           before.block_cache_compressed_hits);
      uint64_t misses =
          (after.block_cache_misses - before.block_cache_misses) +
          (after.block_cache_compressed_misses -
           before.block_cache_compressed_misses);
      get_hits += hits;
      get_lookups += hits + misses;
      get_reads += TotalStocReads(&cluster) - reads_before;
      gets += kGetsPerRound;
    }
    ltc::RangeStats stats = cluster.TotalStats();
    cluster.Stop();

    double hit_pct = get_lookups > 0 ? 100.0 * get_hits / get_lookups : 0;
    double reads_per_1k =
        gets > 0 ? 1000.0 * static_cast<double>(get_reads) / gets : 0;
    double wire_mb =
        static_cast<double>(stats.bytes_over_wire) / (1024.0 * 1024.0);
    double ratio = stats.sstable_stored_bytes > 0
                       ? static_cast<double>(stats.sstable_raw_bytes) /
                             stats.sstable_stored_bytes
                       : 0;
    printf("%-24s %8.1f%% %12.1f %9.2f %9.1f %8.2fx\n", c.label, hit_pct,
           reads_per_1k, scan_seconds, wire_mb, ratio);
    fflush(stdout);
    json->Add(std::string("mix/") + c.label,
              {{"get_hit_pct", hit_pct},
               {"get_stoc_reads_per_1k", reads_per_1k},
               {"scan_seconds", scan_seconds},
               {"bytes_over_wire", static_cast<double>(stats.bytes_over_wire)},
               {"compressed_ratio", ratio}});
  }
}

}  // namespace

void Run(const BenchConfig& cfg) {
  JsonArtifact json("block_cache");
  CacheSizeSweep(cfg, &json);
  ScanGetMix(cfg, &json);
  json.Write(cfg.json_path);
}

}  // namespace bench
}  // namespace nova

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseArgs(argc, argv));
  return 0;
}
