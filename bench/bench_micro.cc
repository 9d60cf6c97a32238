// Microbenchmarks of the substrate components (google-benchmark):
// memtable insert/lookup, bloom filter, SSTable build/read, slab
// allocator, log record codec, the RDMA fabric emulation, the StoC scan
// path reading one block per fetch or one run of adjacent blocks per
// fetch, and the pipelined compaction executor. The scan and compaction
// timings run on simulated devices, so they show the shape of the I/O
// pattern (round trips and disk accesses), not the cost of our code; the
// stoc_reads_* counters are exact counts of StoC block reads.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "logc/log_record.h"
#include "lsm/compaction.h"
#include "lsm/table_io.h"
#include "mem/memtable.h"
#include "rdma/fabric.h"
#include "sstable/bloom.h"
#include "sstable/sstable_builder.h"
#include "sstable/sstable_reader.h"
#include "stoc/stoc_server.h"
#include "storage/block_store.h"
#include "storage/simulated_device.h"
#include "util/slab_allocator.h"
#include "util/zipfian.h"

namespace nova {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "user%012llu",
           static_cast<unsigned long long>(i));
  return buf;
}

void BM_MemTableAdd(benchmark::State& state) {
  InternalKeyComparator icmp;
  auto mem = std::make_shared<MemTable>(icmp, 1);
  uint64_t seq = 1;
  std::string value(128, 'v');
  Random rng(1);
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, Key(rng.Uniform(100000)), value);
    if (seq % 100000 == 0) {
      state.PauseTiming();
      mem = std::make_shared<MemTable>(icmp, seq);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_MemTableAdd);

void BM_MemTableGet(benchmark::State& state) {
  InternalKeyComparator icmp;
  MemTable mem(icmp, 1);
  std::string value(128, 'v');
  for (uint64_t i = 0; i < 10000; i++) {
    mem.Add(i + 1, kTypeValue, Key(i), value);
  }
  Random rng(2);
  std::string out;
  for (auto _ : state) {
    LookupKey lkey(Key(rng.Uniform(10000)), kMaxSequenceNumber);
    Status s;
    benchmark::DoNotOptimize(mem.Get(lkey, &out, &s));
  }
}
BENCHMARK(BM_MemTableGet);

void BM_BloomCheck(benchmark::State& state) {
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 10000; i++) {
    keys.push_back(Key(i));
  }
  for (auto& k : keys) {
    slices.emplace_back(k);
  }
  std::string filter = BloomFilter::Create(slices, 10);
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BloomFilter::KeyMayMatch(Key(rng.Uniform(20000)), filter));
  }
}
BENCHMARK(BM_BloomCheck);

void BM_SSTableBuild(benchmark::State& state) {
  std::string value(1024, 'v');
  for (auto _ : state) {
    SSTableBuilder builder;
    for (int i = 0; i < 256; i++) {
      std::string ikey;
      AppendInternalKey(&ikey, ParsedInternalKey(Key(i), i + 1, kTypeValue));
      builder.Add(ikey, value);
    }
    auto result = builder.Finish(1, 3);
    benchmark::DoNotOptimize(result.data.size());
  }
}
BENCHMARK(BM_SSTableBuild);

void BM_SlabAllocator(benchmark::State& state) {
  SlabAllocator::Options opt;
  SlabAllocator slab(opt);
  for (auto _ : state) {
    char* p = slab.Allocate(1024);
    benchmark::DoNotOptimize(p);
    slab.Free(p, 1024);
  }
}
BENCHMARK(BM_SlabAllocator);

void BM_LogRecordCodec(benchmark::State& state) {
  logc::LogRecord rec;
  rec.memtable_id = 7;
  rec.sequence = 1234;
  rec.key = Key(42);
  rec.value = std::string(1024, 'v');
  for (auto _ : state) {
    std::string buf;
    logc::EncodeLogRecord(&buf, rec);
    Slice in(buf);
    logc::LogRecord out;
    benchmark::DoNotOptimize(logc::DecodeLogRecord(&in, &out));
  }
}
BENCHMARK(BM_LogRecordCodec);

void BM_FabricOneSidedWrite(benchmark::State& state) {
  rdma::RdmaFabric fabric;
  fabric.AddNode(0);
  fabric.AddNode(1);
  std::vector<char> region(1 << 20);
  fabric.RegisterMemory(1, 1, region.data(), region.size());
  std::string data(state.range(0), 'x');
  uint64_t offset = 0;
  for (auto _ : state) {
    fabric.Write(0, data, rdma::RemoteAddr{1, 1, offset}, false, 0);
    offset = (offset + data.size()) % (region.size() - data.size());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_FabricOneSidedWrite)->Arg(128)->Arg(1024)->Arg(16384);

/// Four StoCs on simulated disks hosting one SSTable scattered with
/// ρ = 4, scanned end to end through StocBlockFetcher. Built once and
/// leaked: google-benchmark re-enters the function per configuration.
struct ScanEnv {
  static constexpr int kNumStocs = 4;
  static constexpr uint64_t kNumKeys = 512;

  rdma::RdmaFabric fabric;
  std::vector<std::unique_ptr<SimulatedDevice>> devices;
  std::vector<std::unique_ptr<BlockStore>> stores;
  std::vector<std::unique_ptr<stoc::StocServer>> servers;
  std::unique_ptr<rdma::RpcEndpoint> endpoint;
  std::unique_ptr<stoc::StocClient> client;
  lsm::FileMetaRef meta;
  SSTableMetadata table_meta;

  static ScanEnv* Get() {
    static ScanEnv* env = new ScanEnv();
    return env;
  }

  ScanEnv() {
    // Fast-disk profile: device service per 4 KB block is small enough
    // that the per-block RPC round trip dominates a serial scan — which
    // is exactly what fetching a run of blocks in one read saves.
    DeviceConfig dcfg;
    dcfg.bandwidth_bytes_per_sec = 64.0 * 1024 * 1024;
    dcfg.seek_latency_us = 200;
    for (int i = 0; i < kNumStocs; i++) {
      devices.push_back(std::make_unique<SimulatedDevice>(
          "scan-d" + std::to_string(i), dcfg));
      stores.push_back(std::make_unique<BlockStore>());
      servers.push_back(std::make_unique<stoc::StocServer>(
          &fabric, 1000 + i, devices[i].get(), stores[i].get(),
          stoc::StocServerOptions{}));
      servers[i]->Start();
    }
    fabric.AddNode(0);
    endpoint = std::make_unique<rdma::RpcEndpoint>(&fabric, 0, 2, nullptr);
    endpoint->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
    endpoint->Start();
    client = std::make_unique<stoc::StocClient>(endpoint.get());

    SSTableBuilder builder;
    std::string value(512, 'v');
    for (uint64_t i = 0; i < kNumKeys; i++) {
      std::string ikey;
      AppendInternalKey(&ikey,
                        ParsedInternalKey(Key(i), i + 1, kTypeValue));
      builder.Add(ikey, value);
    }
    auto built = builder.Finish(/*file_number=*/1, kNumStocs);
    table_meta = built.meta;

    lsm::PlacementOptions popt;
    for (int i = 0; i < kNumStocs; i++) {
      popt.stocs.push_back(1000 + i);
    }
    popt.rho = kNumStocs;
    popt.power_of_d = false;
    lsm::SSTablePlacer placer(client.get(), popt);
    auto out = std::make_shared<lsm::FileMetaData>();
    Status s = placer.Write(std::move(built), out.get());
    if (!s.ok()) {
      fprintf(stderr, "scan env setup failed: %s\n", s.ToString().c_str());
      abort();
    }
    meta = out;
  }
};

/// Full forward scan of the scattered SSTable, no cache tier; Arg =
/// IteratorOptions::rows (0 = one fetch per data block; kNumKeys, every
/// row of the table = one fetch per fragment, as whole-table sweeps do).
void BM_SSTableFullScan(benchmark::State& state) {
  ScanEnv* env = ScanEnv::Get();
  lsm::StocBlockFetcher fetcher(env->client.get(), *env->meta);
  SSTableReader reader(env->table_meta, &fetcher);
  IteratorOptions iter_options;
  iter_options.rows = static_cast<int>(state.range(0));
  const uint64_t reads_before = env->client->read_block_calls();
  for (auto _ : state) {
    std::unique_ptr<Iterator> it(reader.NewIterator(iter_options));
    uint64_t records = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      records++;
    }
    if (records != ScanEnv::kNumKeys) {
      state.SkipWithError("scan returned wrong record count");
      break;
    }
  }
  state.counters["stoc_reads_per_scan"] = benchmark::Counter(
      static_cast<double>(env->client->read_block_calls() - reads_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * ScanEnv::kNumKeys);
}
BENCHMARK(BM_SSTableFullScan)
    ->Arg(0)
    ->Arg(ScanEnv::kNumKeys)
    ->Unit(benchmark::kMillisecond);

/// Short scans over the ScanEnv table: 10 rows from each of 16 evenly
/// spaced start keys, a fresh iterator per scan and no cache tier. Arg =
/// IteratorOptions::rows (0 = one fetch per data block; 10 = a miss also
/// fetches the adjacent blocks 10 rows may need). The
/// stoc_reads_per_scan counter is a count of StoC block reads; the
/// timings are on simulated devices (ScanEnv's fast-disk profile).
void BM_SSTableShortScan(benchmark::State& state) {
  constexpr size_t kRows = 10;
  constexpr uint64_t kScans = 16;
  ScanEnv* env = ScanEnv::Get();
  lsm::StocBlockFetcher fetcher(env->client.get(), *env->meta);
  SSTableReader reader(env->table_meta, &fetcher);
  IteratorOptions iter_options;
  iter_options.rows = static_cast<int>(state.range(0));
  const uint64_t reads_before = env->client->read_block_calls();
  for (auto _ : state) {
    for (uint64_t scan = 0; scan < kScans; scan++) {
      // Start keys fall at different offsets inside their blocks.
      LookupKey start(Key(scan * (ScanEnv::kNumKeys / kScans) + scan % 7),
                      kMaxSequenceNumber);
      std::unique_ptr<Iterator> it(reader.NewIterator(iter_options));
      size_t rows = 0;
      for (it->Seek(start.internal_key()); it->Valid(); it->Next()) {
        benchmark::DoNotOptimize(it->value().data());
        if (++rows == kRows) {
          break;
        }
      }
      if (rows != kRows || !it->status().ok()) {
        state.SkipWithError("short scan returned wrong rows");
        return;
      }
    }
  }
  state.counters["stoc_reads_per_scan"] = benchmark::Counter(
      static_cast<double>(env->client->read_block_calls() - reads_before) /
      static_cast<double>(state.iterations() * kScans));
  state.SetItemsProcessed(state.iterations() * kScans);
}
BENCHMARK(BM_SSTableShortScan)
    ->Arg(0)
    ->Arg(10)
    ->Unit(benchmark::kMillisecond);

/// Four overlapping L0 SSTables scattered across four StoCs, compacted
/// into L1 by the CompactionExecutor. Built once and leaked, like ScanEnv.
struct CompactionEnv {
  static constexpr int kNumStocs = 4;
  static constexpr int kNumInputs = 4;
  static constexpr uint64_t kKeysPerInput = 512;

  rdma::RdmaFabric fabric;
  std::vector<std::unique_ptr<SimulatedDevice>> devices;
  std::vector<std::unique_ptr<BlockStore>> stores;
  std::vector<std::unique_ptr<stoc::StocServer>> servers;
  std::unique_ptr<rdma::RpcEndpoint> endpoint;
  std::unique_ptr<stoc::StocClient> client;
  std::vector<lsm::FileMetaRef> inputs;

  static CompactionEnv* Get() {
    static CompactionEnv* env = new CompactionEnv();
    return env;
  }

  lsm::PlacementOptions PlacementOpts() const {
    lsm::PlacementOptions popt;
    for (int i = 0; i < kNumStocs; i++) {
      popt.stocs.push_back(2000 + i);
    }
    popt.rho = 2;
    popt.power_of_d = false;
    return popt;
  }

  CompactionEnv() {
    DeviceConfig dcfg;
    dcfg.bandwidth_bytes_per_sec = 64.0 * 1024 * 1024;
    dcfg.seek_latency_us = 200;
    for (int i = 0; i < kNumStocs; i++) {
      devices.push_back(std::make_unique<SimulatedDevice>(
          "compact-d" + std::to_string(i), dcfg));
      stores.push_back(std::make_unique<BlockStore>());
      servers.push_back(std::make_unique<stoc::StocServer>(
          &fabric, 2000 + i, devices[i].get(), stores[i].get(),
          stoc::StocServerOptions{}));
      servers[i]->Start();
    }
    fabric.AddNode(10);
    endpoint = std::make_unique<rdma::RpcEndpoint>(&fabric, 10, 2, nullptr);
    endpoint->set_request_handler(
        [](rdma::NodeId, uint64_t, const Slice&) {});
    endpoint->Start();
    client = std::make_unique<stoc::StocClient>(endpoint.get());

    // Input i holds keys j with j % kNumInputs == i: fully interleaved
    // ranges, so the merge really alternates across all inputs.
    lsm::SSTablePlacer placer(client.get(), PlacementOpts());
    std::string value(512, 'v');
    for (int i = 0; i < kNumInputs; i++) {
      SSTableBuilder builder;
      for (uint64_t j = i; j < kKeysPerInput * kNumInputs; j += kNumInputs) {
        std::string ikey;
        AppendInternalKey(&ikey,
                          ParsedInternalKey(Key(j), j + 1, kTypeValue));
        builder.Add(ikey, value);
      }
      auto built = builder.Finish(/*file_number=*/i + 1, /*num_fragments=*/2);
      auto out = std::make_shared<lsm::FileMetaData>();
      Status s = placer.Write(std::move(built), out.get());
      if (!s.ok()) {
        fprintf(stderr, "compaction env setup failed: %s\n",
                s.ToString().c_str());
        abort();
      }
      inputs.push_back(out);
    }
  }
};

/// One full 4-way compaction per iteration. stoc_reads_per_compaction
/// counts every StoC read of a job: one metadata read per input, which
/// opens its reader, plus the data reads.
void BM_CompactionPipeline(benchmark::State& state) {
  CompactionEnv* env = CompactionEnv::Get();
  static uint64_t next_output_number = 1000;
  const uint64_t reads_before = env->client->read_block_calls();
  for (auto _ : state) {
    lsm::TableCache cache(env->client.get());
    lsm::SSTablePlacer placer(env->client.get(), env->PlacementOpts());
    lsm::CompactionExecutor exec(&cache, &placer, /*throttle=*/nullptr);
    lsm::CompactionJob job;
    job.input_level = 0;
    job.inputs = env->inputs;
    job.max_output_bytes = 256 << 10;
    job.is_last_level = true;
    job.first_output_number = next_output_number;
    next_output_number += 64;
    lsm::CompactionResult result;
    Status s = exec.Run(job, &result);
    if (!s.ok() || result.outputs.empty()) {
      state.SkipWithError("compaction failed");
      break;
    }
    state.PauseTiming();
    for (const lsm::FileMetaData& out : result.outputs) {
      placer.Delete(out);
    }
    state.ResumeTiming();
  }
  state.counters["stoc_reads_per_compaction"] = benchmark::Counter(
      static_cast<double>(env->client->read_block_calls() - reads_before) /
      static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations() * CompactionEnv::kKeysPerInput *
                          CompactionEnv::kNumInputs);
}
BENCHMARK(BM_CompactionPipeline)->Unit(benchmark::kMillisecond);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(1000000, 0.99);
  Random rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(&rng));
  }
}
BENCHMARK(BM_ZipfianNext);

}  // namespace
}  // namespace nova

// Same --json=<path> flag as the cluster benches (bench_common.h), mapped
// onto google-benchmark's native JSON reporter. Everything else passes
// through to benchmark::Initialize unchanged.
int main(int argc, char** argv) {
  std::vector<std::string> storage;
  std::vector<char*> args;
  storage.reserve(argc + 1);
  for (int i = 0; i < argc; i++) {
    if (strncmp(argv[i], "--json=", 7) == 0) {
      storage.push_back(std::string("--benchmark_out=") + (argv[i] + 7));
      storage.push_back("--benchmark_out_format=json");
    } else {
      storage.push_back(argv[i]);
    }
  }
  for (auto& s : storage) {
    args.push_back(s.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
