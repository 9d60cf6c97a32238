// bench_nova: the repo's benchmark. One process runs an in-process
// coord::Cluster (1 LTC, 3 StoCs, 4 ranges) on simulated disks and CPUs
// and drives it closed-loop with 2 client threads (like YCSB clients: each
// sends its next request only after the previous one returned).
//
// Every workload keeps its data far larger than the caches, so requests
// spend most of their time in simulated disk I/O. That is what makes runs
// repeat on a shared host: with the simulation off, requests cost real CPU
// time, and on a shared 4-core host throughput and p99 spread 14-240%
// (IQR over median of 10 runs) between runs of the same code.
//
// A run of one workload sets a fresh cluster up kTrials times (start +
// preload + flush; setup_s is the median); each is warmed up, then
// measured for --seconds / kTrials seconds:
//   --trace 0  one untraced window through the public Cluster API; the
//              pooled windows give the end-to-end metrics.
//   --trace 1  an untraced window, then a traced window that issues each
//              request through the same public calls Cluster makes
//              (Coordinator::config -> Configuration::LtcForKey ->
//              LtcServer::RouteKey -> RangeEngine::Get/Put/Scan), timing
//              each call as a span and reading layer counters before and
//              after it; the pooled windows give the per-layer metrics.
// Pooling fresh clusters matters: this store settles into a different
// state on every start (Drange layout, compaction phase), so one long
// window on one cluster repeats worse than several shorter ones.
//
// Every operation is checked (see inputs.h); the process exits 1 if any
// failed. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md defines every workload and metric.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "coord/cluster.h"
#include "inputs.h"
#include "trace.h"

namespace nova_bench {
namespace {

using nova::Status;
namespace coord = nova::coord;
namespace ltc = nova::ltc;

enum class Mix { kRW50, kR100, kSW50 };

struct Workload {
  const char* name;
  Mix mix;
  bool logged;  // in-memory log replicated to every StoC
};

// README.md gives the reason for each: every workload stresses one layer
// and spares another, so a change to one layer moves one and not another.
// Keys are drawn uniformly from the preloaded keyspace.
constexpr Workload kWorkloads[] = {
    {"r100_cold", Mix::kR100, false},
    {"rw50_cold_logged", Mix::kRW50, true},
    {"sw50_cold", Mix::kSW50, false},
};

// 20k keys of 1 KB are about 10 MB stored (values compress 2:1), against
// 1 MB in each LTC cache tier and each StoC page cache.
constexpr uint64_t kKeys = 20000;
constexpr uint64_t kCacheBytes = 1 << 20;
constexpr int kNumStocs = 3;
constexpr int kNumRanges = 4;
constexpr int kScanLength = 10;
constexpr int kSampleIntervalMs = 10;
constexpr size_t kMaxRawSpans = 512;
// Per trial, before it is measured: fills the caches and lets the first
// memtables after set-up's flush fill and flush.
constexpr double kWarmupSeconds = 2;
// Fresh clusters per run: each is set up (timed for setup_s), warmed up
// and measured; the measured windows are pooled.
constexpr int kTrials = 3;
// Client threads, also used to preload: few enough that the cluster's own
// flush, compaction, xchg and device threads keep cores to run on, on the
// 4-core machine the baseline ran on.
constexpr int kClients = 2;

struct Args {
  double seconds = 21;  // measured, split evenly over the trials
  uint64_t seed = 1;
  bool trace = false;
  std::string workload;  // empty: every workload
  std::string json;

  double WindowSeconds() const { return seconds / kTrials; }
};

[[noreturn]] void Usage(const std::string& error) {
  fprintf(stderr,
          "bench_nova: %s\n"
          "usage: bench_nova [--workload=NAME] [--seed=N] [--seconds=S]\n"
          "                  [--trace=0|1] [--json=PATH]\n"
          "(--flag value works as well as --flag=value)\n",
          error.c_str());
  exit(2);
}

double ParseSeconds(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  double v = strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !(v >= 0 && v <= 3600)) {
    Usage("bad value for --" + flag + ": '" + text + "'");
  }
  return v;
}

uint64_t ParseCount(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  unsigned long long v = strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    Usage("bad value for --" + flag + ": '" + text + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Usage("unexpected argument '" + arg + "'");
    }
    std::string flag = arg.substr(2);
    std::string value;
    size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for --" + flag);
    }
    if (flag == "seconds") {
      a.seconds = ParseSeconds(flag, value);
    } else if (flag == "seed") {
      a.seed = ParseCount(flag, value);
    } else if (flag == "trace") {
      a.trace = ParseCount(flag, value) != 0;
    } else if (flag == "workload") {
      a.workload = value;
    } else if (flag == "json") {
      a.json = value;
    } else {
      Usage("unknown flag --" + flag);
    }
  }
  if (a.seconds <= 0) {
    Usage("--seconds must be positive");
  }
  bool known = a.workload.empty();
  for (const Workload& w : kWorkloads) known = known || a.workload == w.name;
  if (!known) {
    Usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

coord::ClusterOptions ClusterOptionsFor(const Workload& w) {
  coord::ClusterOptions opt;
  opt.num_ltcs = 1;
  opt.num_stocs = kNumStocs;
  for (uint64_t p = 1; p < kNumRanges; p++) {
    opt.split_points.push_back(Key(kKeys * p / kNumRanges));
  }
  // The paper's constants scaled 1/64: τ = 256 KB memtables, δ = 32 per
  // range, θ = 8 Dranges, L0 compaction at 4 MB and stall at 32 MB.
  opt.range.memtable_size = 256 << 10;
  opt.range.max_memtables = 32;
  opt.range.drange.theta = 8;
  opt.range.drange.warmup_writes = 2000;
  opt.range.max_sstable_size = 256 << 10;
  opt.range.lsm.l0_compaction_trigger_bytes = 4 << 20;
  opt.range.lsm.l0_stop_bytes = 32 << 20;
  opt.range.lsm.base_level_bytes = 16 << 20;
  opt.range.max_parallel_compactions = 4;
  opt.range.manifest_replicas = 1;
  opt.range.log.mode =
      w.logged ? nova::logc::LogMode::kInMemory : nova::logc::LogMode::kNone;
  opt.range.log.num_replicas = kNumStocs;
  opt.placement.rho = 1;
  opt.placement.power_of_d = true;
  opt.ltc.block_cache_bytes = kCacheBytes;
  opt.ltc.compressed_cache_bytes = kCacheBytes;
  opt.stoc.page_cache_bytes = kCacheBytes;
  opt.stoc.slab_bytes = 192 << 20;
  opt.stoc.slab_page_bytes = 512 << 10;
  // Scaled HDD (2 MB/s ≙ 128 MB/s) with a hard disk's 8 ms access time
  // (seek + rotation), and the paper's CPU-bound LTC: 0.4 virtual cores per
  // LTC, 0.8 per StoC. The long access time makes simulated disk time most
  // of a request's latency, so a busy host moves results little: with the
  // store's default 1.5 ms seek, runs made while the host was busy lost up
  // to 27% of their throughput.
  opt.device.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  opt.device.seek_latency_us = 8000;
  opt.ltc.cpu_rate_us_per_sec = 400000;
  opt.stoc.cpu_rate_us_per_sec = 800000;
  return opt;
}

enum Op { kGet, kPut, kScan, kNumOps };
const char* const kOpNames[kNumOps] = {"get", "put", "scan"};

Op ChooseOp(Mix mix, Rng* rng) {
  switch (mix) {
    case Mix::kR100:
      return kGet;
    case Mix::kRW50:
      return (rng->Next() & 1) ? kPut : kGet;
    case Mix::kSW50:
      return (rng->Next() & 1) ? kPut : kScan;
  }
  return kGet;
}

using Rows = std::vector<std::pair<std::string, std::string>>;

/// A scan from `start` is correct when its rows are keys of the keyspace
/// in ascending order from `start`, each with its own value, and it
/// returns kScanLength rows or ends at the last key. Every key in
/// [0, kKeys) is preloaded and never deleted, so it should return exactly
/// the next kScanLength keys; the store can skip some under concurrent
/// compaction (README, "Findings"). Skipped keys are added to *skipped
/// and reported as client.scan_skipped_keys rather than failing the
/// scan, so the benchmark measures the defect instead of failing on it.
bool ScanIsCorrect(uint64_t start, const Rows& rows, uint64_t* skipped) {
  if (rows.size() > static_cast<size_t>(kScanLength)) {
    return false;
  }
  uint64_t next = start;  // the key the next row should hold
  uint64_t gaps = 0;
  for (const auto& [key, value] : rows) {
    uint64_t index = 0;
    if (!KeyIndex(key, &index) || index < next || index >= kKeys ||
        !CheckValue(key, value)) {
      return false;
    }
    gaps += index - next;
    next = index + 1;
  }
  if (rows.size() < static_cast<size_t>(kScanLength) && next != kKeys) {
    return false;  // short without reaching the end of the keyspace
  }
  *skipped += gaps;
  return true;
}

/// One request through the public Cluster API (the untraced path).
Status Untraced(coord::Cluster* cluster, Op op, const std::string& key,
                const std::string& put_value, std::string* value,
                Rows* rows) {
  switch (op) {
    case kGet:
      return cluster->Get(key, value);
    case kPut:
      return cluster->Put(key, put_value);
    default:
      return cluster->Scan(key, kScanLength, rows);
  }
}

/// The same request issued layer by layer, as Cluster and LtcServer do
/// it, with one span per call. A scan continues into the next range with
/// RouteKey(upper), as LtcServer::Scan does.
Status Traced(coord::Cluster* cluster, Op op, const std::string& key,
              const std::string& put_value, std::string* value, Rows* rows,
              uint64_t request, SpanLog* spans) {
  int64_t t0 = NowNs();
  coord::Configuration cfg = cluster->coordinator()->config();
  int64_t t1 = NowNs();
  spans->Record(request, kCoordConfig, t0, t1);
  int idx = cfg.LtcForKey(key);
  int64_t t2 = NowNs();
  spans->Record(request, kCoordRoute, t1, t2);
  ltc::LtcServer* server = idx >= 0 ? cluster->ltc(idx) : nullptr;
  ltc::RangeEngine* engine =
      server != nullptr ? server->RouteKey(key) : nullptr;
  int64_t t3 = NowNs();
  spans->Record(request, kLtcRoute, t2, t3);
  int64_t children_ns = t3 - t0;
  Status s;
  if (engine == nullptr) {
    s = Status::InvalidArgument("no range for key");
  } else if (op == kGet || op == kPut) {
    s = op == kGet ? engine->Get(key, value) : engine->Put(key, put_value);
    int64_t t4 = NowNs();
    spans->Record(request, op == kGet ? kRangeGet : kRangePut, t3, t4);
    children_ns += t4 - t3;
  } else {
    s = engine->Scan(key, kScanLength, rows);
    int64_t t4 = NowNs();
    spans->Record(request, kRangeScan, t3, t4);
    children_ns += t4 - t3;
    while (s.ok() && static_cast<int>(rows->size()) < kScanLength &&
           !engine->options().upper.empty()) {
      std::string upper = engine->options().upper;
      int64_t ta = NowNs();
      engine = server->RouteKey(upper);
      int64_t tb = NowNs();
      spans->Record(request, kLtcRoute, ta, tb);
      children_ns += tb - ta;
      if (engine == nullptr) {
        break;
      }
      s = engine->Scan(upper, kScanLength, rows);
      int64_t tc = NowNs();
      spans->Record(request, kRangeScan, tb, tc);
      children_ns += tc - tb;
    }
  }
  int64_t end = NowNs();
  spans->Record(request, kClient, t0, end);
  spans->AddDuration(kClientSelf, end - t0 - children_ns);
  return s;
}

/// Requests of one or more windows: per-op latencies, the op count and
/// wall time (for throughput), failures, and spans when traced.
struct Window {
  double seconds = 0;
  std::vector<int64_t> latency_ns[kNumOps];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t scan_skipped_keys = 0;
  std::string first_failure;
  SpanLog spans;

  double ops_per_sec() const { return seconds > 0 ? attempted / seconds : 0; }

  void Fail(const char* op, const std::string& key, const Status& s) {
    failed++;
    if (first_failure.empty()) {
      first_failure = std::string(op) + " " + key + ": " +
                      (s.ok() ? "wrong result" : s.ToString());
    }
  }

  void Merge(const Window& o) {
    seconds += o.seconds;
    for (int op = 0; op < kNumOps; op++) {
      latency_ns[op].insert(latency_ns[op].end(), o.latency_ns[op].begin(),
                            o.latency_ns[op].end());
    }
    attempted += o.attempted;
    failed += o.failed;
    scan_skipped_keys += o.scan_skipped_keys;
    if (first_failure.empty()) first_failure = o.first_failure;
    spans.Merge(o.spans);
  }
};

/// Closed loop: each client thread issues its next request when the
/// previous one returned, until the window closes. `stream` selects an
/// independent request stream for this window under --seed.
Window RunWindow(coord::Cluster* cluster, const Workload& w, const Args& args,
                 uint64_t stream, double seconds, bool traced) {
  std::atomic<bool> done{false};
  std::vector<Window> logs(kClients);
  auto client = [&](int tid) {
    Window& log = logs[tid];
    Rng rng(args.seed ^ Mix64((stream << 16) | static_cast<uint64_t>(tid)));
    std::string value;
    std::string put_value;
    Rows rows;
    for (uint64_t n = 0; !done.load(std::memory_order_relaxed); n++) {
      uint64_t k = rng.Uniform(kKeys);
      std::string key = Key(k);
      Op op = ChooseOp(w.mix, &rng);
      if (op == kPut) {
        put_value = MakeValue(key, rng.Next());
      }
      rows.clear();
      value.clear();
      int64_t t0 = NowNs();
      Status s = traced ? Traced(cluster, op, key, put_value, &value, &rows,
                                 n * kClients + tid, &log.spans)
                        : Untraced(cluster, op, key, put_value, &value,
                                   &rows);
      log.latency_ns[op].push_back(NowNs() - t0);
      log.attempted++;
      bool ok = s.ok() && (op != kGet || CheckValue(key, value)) &&
                (op != kScan ||
                 ScanIsCorrect(k, rows, &log.scan_skipped_keys));
      if (!ok) {
        log.Fail(kOpNames[op], key, s);
      }
    }
  };
  int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back(client, t);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  done.store(true);
  for (auto& t : threads) {
    t.join();
  }
  Window win;
  for (const Window& log : logs) {
    win.Merge(log);
  }
  win.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return win;
}

/// Cluster start + preload of every key + flush of every memtable to
/// SSTables (and the compactions that triggers), so every trial starts
/// from the same kind of on-StoC state. Preload failures count in *log.
std::unique_ptr<coord::Cluster> SetUp(const Workload& w, const Args& args,
                                      Window* log) {
  auto cluster = std::make_unique<coord::Cluster>(ClusterOptionsFor(w));
  cluster->Start();
  std::atomic<uint64_t> next{0};
  std::vector<Window> logs(kClients);
  auto loader = [&](Window* l) {
    for (uint64_t i = next.fetch_add(1); i < kKeys; i = next.fetch_add(1)) {
      std::string key = Key(i);
      Status s =
          cluster->Put(key, MakeValue(key, Mix64(args.seed ^ Mix64(i))));
      l->attempted++;
      if (!s.ok()) {
        l->Fail("preload put", key, s);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back(loader, &logs[t]);
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const Window& l : logs) {
    log->Merge(l);
  }
  for (ltc::RangeEngine* engine : cluster->ltc(0)->ranges()) {
    engine->FlushAllMemtables();
  }
  for (ltc::RangeEngine* engine : cluster->ltc(0)->ranges()) {
    engine->WaitForQuiescence(/*flush_all=*/true);
  }
  return cluster;
}

/// Cumulative layer counters by name; the traced pass pools the
/// difference across each traced window.
using Counters = std::map<std::string, double>;

Counters ReadCounters(coord::Cluster* cluster) {
  ltc::RangeStats s = cluster->TotalStats();
  Counters c = {
      {"stall_us", s.stall_us},
      {"stall_events", s.stall_events},
      {"flushes", s.flushes},
      {"merges", s.memtable_merges},
      {"compactions", s.compactions},
      {"lookup_index_hits", s.lookup_index_hits},
      {"lookup_index_misses", s.lookup_index_misses},
      {"hot_hits", s.block_cache_hits},
      {"hot_misses", s.block_cache_misses},
      {"compressed_hits", s.block_cache_compressed_hits},
      {"compressed_misses", s.block_cache_compressed_misses},
      {"sstable_raw_bytes", s.sstable_raw_bytes},
      {"sstable_stored_bytes", s.sstable_stored_bytes},
      {"wire_bytes", s.bytes_over_wire},
      {"readahead_issued", s.readahead_issued},
      {"readahead_hits", s.readahead_hits},
      {"compaction_bytes_read", s.compaction_bytes_read},
      {"compaction_bytes_written", s.compaction_bytes_written},
      {"compaction_queue_us", s.compaction_queue_us},
      {"pod_reads", s.pod_reads},
      {"hedged_issued", s.hedged_issued},
      {"hedged_won", s.hedged_won},
  };
  for (int i = 0; i < cluster->num_ltcs(); i++) {
    c["stoc_reads"] += cluster->ltc(i)->stoc_client()->read_block_calls();
  }
  for (int i = 0; i < cluster->num_stocs(); i++) {
    nova::SimulatedDevice* d = cluster->device(i);
    c["device_reads"] += d->num_reads();
    c["device_bytes_written"] += d->bytes_written();
    c["device_busy_us"] += d->busy_us();
    c["stored_bytes"] += cluster->block_store(i)->TotalBytes();
    c["server_cache_hits"] += cluster->stoc(i)->cache_hits();
    c["server_cache_misses"] += cluster->stoc(i)->cache_misses();
  }
  return c;
}

void AddDelta(const Counters& before, const Counters& after, Counters* sum) {
  for (const auto& [name, value] : after) {
    (*sum)[name] += value - before.at(name);
  }
}

/// Gauges sampled every kSampleIntervalMs during traced windows.
struct Gauges {
  uint64_t samples = 0;
  double memtables_sum = 0, memtables_max = 0;
  double l0_sum = 0, l0_max = 0;
  double queue_sum = 0, queue_max = 0;  // per device
  double inmem_files_sum = 0;

  void Sample(coord::Cluster* cluster) {
    double memtables = 0, l0 = 0, inmem = 0, queue = 0;
    for (ltc::RangeEngine* e : cluster->ltc(0)->ranges()) {
      memtables += e->num_memtables();
      l0 += static_cast<double>(e->l0_bytes());
    }
    for (int i = 0; i < cluster->num_stocs(); i++) {
      double depth = cluster->device(i)->QueueDepth();
      queue += depth;
      queue_max = std::max(queue_max, depth);
      inmem += static_cast<double>(cluster->stoc(i)->num_in_memory_files());
    }
    samples++;
    memtables_sum += memtables;
    memtables_max = std::max(memtables_max, memtables);
    l0_sum += l0;
    l0_max = std::max(l0_max, l0);
    queue_sum += queue / cluster->num_stocs();
    inmem_files_sum += inmem;
  }
  double Mean(double sum) const { return samples > 0 ? sum / samples : 0; }
};

/// What a run pools across its trials.
struct Pooled {
  std::vector<double> setup_seconds;
  Window preload;
  Window warmup;
  Window untraced;
  Window traced;
  Counters untraced_delta;  // over the untraced windows
  Counters traced_delta;    // over the traced windows
  Counters at_end;          // after each traced window, summed
  Gauges gauges;
  double ltc_cpu = 0;   // summed over trials
  double stoc_cpu = 0;  // summed over trials, mean over StoCs

  /// Every operation issued: preload puts, warm-up and measured requests.
  uint64_t attempted() const {
    return preload.attempted + warmup.attempted + untraced.attempted +
           traced.attempted;
  }
  uint64_t failed() const {
    return preload.failed + warmup.failed + untraced.failed + traced.failed;
  }
  /// Over every request window of the run, warm-up included.
  uint64_t scan_skipped_keys() const {
    return warmup.scan_skipped_keys + untraced.scan_skipped_keys +
           traced.scan_skipped_keys;
  }
};

/// One traced window on a trial's cluster, with the layer counters read
/// around it and the gauges sampled through it.
void TracedWindow(coord::Cluster* cluster, const Workload& w,
                  const Args& args, uint64_t stream, double seconds,
                  Pooled* p) {
  Counters before = ReadCounters(cluster);
  cluster->ltc(0)->throttle()->ResetWindow();
  for (int i = 0; i < cluster->num_stocs(); i++) {
    cluster->stoc(i)->throttle()->ResetWindow();
  }
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load()) {
      p->gauges.Sample(cluster);
      std::this_thread::sleep_for(
          std::chrono::milliseconds(kSampleIntervalMs));
    }
  });
  p->traced.Merge(RunWindow(cluster, w, args, stream, seconds, true));
  sampling.store(false);
  sampler.join();
  p->ltc_cpu += cluster->ltc(0)->throttle()->WindowUtilization();
  double stoc_cpu = 0;
  for (int i = 0; i < cluster->num_stocs(); i++) {
    stoc_cpu += cluster->stoc(i)->throttle()->WindowUtilization();
  }
  p->stoc_cpu += stoc_cpu / cluster->num_stocs();
  Counters after = ReadCounters(cluster);
  AddDelta(before, after, &p->traced_delta);
  for (const auto& [name, value] : after) {
    p->at_end[name] += value;
  }
}

Pooled RunTrials(const Workload& w, const Args& args) {
  Pooled p;
  for (int t = 0; t < kTrials; t++) {
    int64_t start = NowNs();
    std::unique_ptr<coord::Cluster> cluster = SetUp(w, args, &p.preload);
    p.setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    uint64_t stream = static_cast<uint64_t>(t) * 4;
    p.warmup.Merge(RunWindow(cluster.get(), w, args, stream + 1,
                             kWarmupSeconds, false));
    // The traced pass spends half of each window untraced, for
    // trace.overhead_pct, so both passes take the same time.
    double window = args.WindowSeconds() / (args.trace ? 2 : 1);
    Counters before = ReadCounters(cluster.get());
    p.untraced.Merge(
        RunWindow(cluster.get(), w, args, stream + 2, window, false));
    AddDelta(before, ReadCounters(cluster.get()), &p.untraced_delta);
    if (args.trace) {
      TracedWindow(cluster.get(), w, args, stream + 3, window, &p);
    }
  }
  return p;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double UserBytes(double records) {
  return records * static_cast<double>(kKeyBytes + kValueBytes);
}

/// client.<op>_{p50,p99}_us, plus _p999_us and _count when with_tail.
void AddOpLatencies(Window* win, bool with_tail, std::vector<Metric>* out) {
  for (int op = 0; op < kNumOps; op++) {
    Summary s = Summarize(&win->latency_ns[op]);
    std::string p = std::string("client.") + kOpNames[op];
    out->push_back({p + "_p50_us", "us", s.p50_us});
    out->push_back({p + "_p99_us", "us", s.p99_us});
    if (with_tail) {
      out->push_back({p + "_p999_us", "us", s.p999_us});
      out->push_back({p + "_count", "count", static_cast<double>(s.count)});
    }
  }
}

/// Latency of the reads (gets and scans) of a window.
Summary ReadSummary(const Window& win) {
  std::vector<int64_t> reads = win.latency_ns[kGet];
  reads.insert(reads.end(), win.latency_ns[kScan].begin(),
               win.latency_ns[kScan].end());
  return Summarize(&reads);
}

std::vector<Metric> EndToEnd(Pooled* p) {
  Summary read = ReadSummary(p->untraced);
  std::vector<double> setups = p->setup_seconds;
  std::sort(setups.begin(), setups.end());
  return {{"throughput_ops_s", "ops/s", p->untraced.ops_per_sec()},
          {"read_p50_us", "us", read.p50_us},
          {"setup_s", "s", setups[setups.size() / 2]}};
}

std::vector<Metric> PerLayer(Pooled* p) {
  Counters& d = p->traced_delta;
  Counters& end = p->at_end;
  SpanLog& spans = p->traced.spans;
  auto mean = [&](SpanName n) {
    return Summarize(&spans.durations_ns(n)).mean_us;
  };
  auto p99 = [&](SpanName n) {
    return Summarize(&spans.durations_ns(n)).p99_us;
  };
  double ops = static_cast<double>(p->traced.attempted);
  double puts = static_cast<double>(p->traced.latency_ns[kPut].size());
  auto hit_ratio = [&](const char* hits, const char* misses) {
    return Ratio(d[hits], d[hits] + d[misses]);
  };
  std::vector<Metric> m = {
      {"coord.config_us", "us", mean(kCoordConfig)},
      {"coord.route_us", "us", mean(kCoordRoute)},
      {"ltc.route_us_mean", "us", mean(kLtcRoute)},
      {"ltc.route_us_p99", "us", p99(kLtcRoute)},
      {"ltc.range_get_us_mean", "us", mean(kRangeGet)},
      {"ltc.range_get_us_p99", "us", p99(kRangeGet)},
      {"ltc.range_put_us_mean", "us", mean(kRangePut)},
      {"ltc.range_put_us_p99", "us", p99(kRangePut)},
      {"ltc.range_scan_us_mean", "us", mean(kRangeScan)},
      {"ltc.range_scan_us_p99", "us", p99(kRangeScan)},
      {"ltc.client_self_us", "us", mean(kClientSelf)},
      {"ltc.stall_us_per_put", "us", Ratio(d["stall_us"], puts)},
      {"ltc.stall_events", "count", d["stall_events"]},
      {"ltc.flushes_per_1k_puts", "count", 1000 * Ratio(d["flushes"], puts)},
      {"ltc.merges_per_1k_puts", "count", 1000 * Ratio(d["merges"], puts)},
      {"ltc.lookup_index_hit_ratio", "ratio",
       hit_ratio("lookup_index_hits", "lookup_index_misses")},
      {"ltc.compactions", "count", d["compactions"]},
      {"ltc.compaction_bytes_read", "bytes", d["compaction_bytes_read"]},
      {"ltc.compaction_bytes_written", "bytes", d["compaction_bytes_written"]},
      {"ltc.compaction_queue_us", "us", d["compaction_queue_us"]},
      {"ltc.readahead_hit_ratio", "ratio",
       Ratio(d["readahead_hits"], d["readahead_issued"])},
      {"mem.memtables_mean", "count", p->gauges.Mean(p->gauges.memtables_sum)},
      {"mem.memtables_max", "count", p->gauges.memtables_max},
      {"lsm.l0_bytes_mean", "bytes", p->gauges.Mean(p->gauges.l0_sum)},
      {"lsm.l0_bytes_max", "bytes", p->gauges.l0_max},
      {"cache.hot_hit_ratio", "ratio", hit_ratio("hot_hits", "hot_misses")},
      {"cache.compressed_hit_ratio", "ratio",
       hit_ratio("compressed_hits", "compressed_misses")},
      {"sstable.compression_ratio", "ratio",
       Ratio(end["sstable_raw_bytes"], end["sstable_stored_bytes"])},
      {"stoc.reads_per_op", "ratio", Ratio(d["stoc_reads"], ops)},
      {"stoc.wire_bytes_per_op", "bytes", Ratio(d["wire_bytes"], ops)},
      {"stoc.pod_reads", "count", d["pod_reads"]},
      {"stoc.hedged_issued", "count", d["hedged_issued"]},
      {"stoc.hedge_win_ratio", "ratio",
       Ratio(d["hedged_won"], d["hedged_issued"])},
      {"stoc.server_cache_hit_ratio", "ratio",
       hit_ratio("server_cache_hits", "server_cache_misses")},
      {"logc.inmem_files_mean", "count",
       p->gauges.Mean(p->gauges.inmem_files_sum)},
      {"storage.device_busy_frac", "fraction",
       Ratio(d["device_busy_us"], p->traced.seconds * 1e6 * kNumStocs)},
      {"storage.queue_depth_mean", "count",
       p->gauges.Mean(p->gauges.queue_sum)},
      {"storage.queue_depth_max", "count", p->gauges.queue_max},
      {"storage.device_reads_per_op", "ratio", Ratio(d["device_reads"], ops)},
      {"storage.space_amp", "ratio",
       Ratio(end["stored_bytes"],
             UserBytes(static_cast<double>(kKeys) * kTrials))},
      {"storage.write_amp", "ratio",
       Ratio(d["device_bytes_written"], UserBytes(puts))},
      {"sim.ltc_cpu_util", "fraction", p->ltc_cpu / kTrials},
      {"sim.stoc_cpu_util", "fraction", p->stoc_cpu / kTrials},
  };
  AddOpLatencies(&p->untraced, true, &m);
  m.push_back({"client.scan_skipped_keys", "count",
               static_cast<double>(p->scan_skipped_keys())});
  m.push_back({"trace.overhead_pct", "%",
               100 * Ratio(p->untraced.ops_per_sec() - p->traced.ops_per_sec(),
                           p->untraced.ops_per_sec())});
  return m;
}

/// Metrics printed and written to --json, but not part of the result line.
std::vector<Metric> Extra(Pooled* p, bool traced) {
  std::vector<Metric> m;
  if (!traced) {
    // The read tail is not an end-to-end metric: a busy host moves it far
    // more than the median (README.md, "End-to-end metrics").
    Summary read = ReadSummary(p->untraced);
    m.push_back({"read_p99_us", "us", read.p99_us});
    m.push_back({"read_mean_us", "us", read.mean_us});
    m.push_back({"read_count", "count", static_cast<double>(read.count)});
    AddOpLatencies(&p->untraced, false, &m);
    m.push_back({"write_amp", "ratio",
                 Ratio(p->untraced_delta["device_bytes_written"],
                       UserBytes(p->untraced.latency_ns[kPut].size()))});
    m.push_back({"scan_skipped_keys", "count",
                 static_cast<double>(p->scan_skipped_keys())});
  } else {
    m.push_back({"traced_throughput_ops_s", "ops/s", p->traced.ops_per_sec()});
  }
  m.push_back({"error_rate", "fraction",
               Ratio(static_cast<double>(p->failed()),
                     static_cast<double>(p->attempted()))});
  for (size_t t = 0; t < p->setup_seconds.size(); t++) {
    m.push_back({"setup_s." + std::to_string(t), "s", p->setup_seconds[t]});
  }
  return m;
}

/// Span summary per name, then the raw spans of every kRawEvery-th
/// request (at most kMaxRawSpans) as [request, name, start_ns, end_ns],
/// with times relative to the earliest raw span kept.
std::string SpansJson(SpanLog* spans) {
  std::string out = "{\"summary\": {";
  char buf[256];
  for (int n = 0; n < kNumSpanNames; n++) {
    Summary s = Summarize(&spans->durations_ns(n));
    snprintf(buf, sizeof(buf),
             "%s\"%s\": {\"count\": %llu, \"mean_us\": %.4f, \"p50_us\": "
             "%.4f, \"p99_us\": %.4f, \"p999_us\": %.4f}",
             n == 0 ? "" : ", ", SpanNameString(n),
             static_cast<unsigned long long>(s.count), s.mean_us, s.p50_us,
             s.p99_us, s.p999_us);
    out += buf;
  }
  out += "}, \"raw_every\": " + std::to_string(SpanLog::kRawEvery) +
         ", \"raw\": [";
  const std::vector<RawSpan>& raw = spans->raw();
  size_t n = std::min(raw.size(), kMaxRawSpans);
  int64_t base = n > 0 ? raw[0].start_ns : 0;
  for (size_t i = 0; i < n; i++) base = std::min(base, raw[i].start_ns);
  for (size_t i = 0; i < n; i++) {
    snprintf(buf, sizeof(buf), "%s[%llu, \"%s\", %lld, %lld]",
             i == 0 ? "" : ", ",
             static_cast<unsigned long long>(raw[i].request),
             SpanNameString(raw[i].name),
             static_cast<long long>(raw[i].start_ns - base),
             static_cast<long long>(raw[i].end_ns - base));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); i++) {
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
             metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  printf("  %s\n", title);
  for (const Metric& m : metrics) {
    printf("    %-32s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Runs one workload, prints its metrics and returns its result line.
std::string RunWorkload(const Workload& w, const Args& args, bool* correct,
                        std::string* record) {
  printf("== %s: %s pass, seed %llu, %d trials of set-up + %.3g s warm-up "
         "+ %.3g s measured, %d clients, simulated disks and CPUs ==\n",
         w.name, args.trace ? "traced" : "untraced",
         static_cast<unsigned long long>(args.seed), kTrials, kWarmupSeconds,
         args.WindowSeconds(), kClients);
  fflush(stdout);
  Pooled p = RunTrials(w, args);
  std::vector<Metric> metrics = args.trace ? PerLayer(&p) : EndToEnd(&p);
  std::vector<Metric> extra = Extra(&p, args.trace);
  PrintMetrics(args.trace ? "per-layer metrics" : "end-to-end metrics",
               metrics);
  PrintMetrics("also measured", extra);
  if (args.trace) {
    printf("  spans (self = client span minus its children):\n");
    SpanLog& spans = p.traced.spans;
    for (int n = 0; n < kNumSpanNames; n++) {
      Summary s = Summarize(&spans.durations_ns(n));
      printf("    %-16s count %9llu  mean %9.3f us  p50 %9.3f  p99 %9.3f  "
             "p99.9 %9.3f\n",
             SpanNameString(n), static_cast<unsigned long long>(s.count),
             s.mean_us, s.p50_us, s.p99_us, s.p999_us);
    }
  }

  for (const Window* win : {&p.preload, &p.warmup, &p.untraced, &p.traced}) {
    if (win->failed > 0) {
      fprintf(stderr, "bench_nova: %s: %llu failed ops, first: %s\n", w.name,
              static_cast<unsigned long long>(win->failed),
              win->first_failure.c_str());
    }
  }
  if (p.scan_skipped_keys() > 0) {
    fprintf(stderr, "bench_nova: %s: scans skipped %llu existing keys\n",
            w.name, static_cast<unsigned long long>(p.scan_skipped_keys()));
  }
  *correct = p.failed() == 0;
  std::string line = std::string("{\"correct\": ") +
                     (*correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(p.attempted()) +
                     ", \"failed\": " + std::to_string(p.failed()) +
                     ", \"metrics\": " + JsonMetrics(metrics) + "}";
  char buf[256];
  snprintf(buf, sizeof(buf),
           "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
           "\"seconds\": %g, \"warmup\": %g, \"trials\": %d, "
           "\"threads\": %d, \"keys\": %llu, \"nproc\": %ld",
           w.name, static_cast<unsigned long long>(args.seed),
           args.trace ? 1 : 0, args.seconds, kWarmupSeconds, kTrials,
           kClients, static_cast<unsigned long long>(kKeys),
           sysconf(_SC_NPROCESSORS_ONLN));
  *record = buf;
  *record += ", \"result\": " + line + ", \"extra\": " + JsonMetrics(extra);
  if (args.trace) {
    *record += ", \"spans\": " + SpansJson(&p.traced.spans);
  }
  *record += "}\n";
  return line;
}

}  // namespace
}  // namespace nova_bench

int main(int argc, char** argv) {
  using namespace nova_bench;
  Args args = ParseArgs(argc, argv);
  FILE* json = nullptr;
  if (!args.json.empty()) {
    json = fopen(args.json.c_str(), "w");
    if (json == nullptr) {
      Usage("cannot write " + args.json);
    }
  }
  bool all_correct = true;
  for (const Workload& w : kWorkloads) {
    if (!args.workload.empty() && args.workload != w.name) continue;
    bool correct = false;
    std::string record;
    std::string line = RunWorkload(w, args, &correct, &record);
    if (json != nullptr) {
      fputs(record.c_str(), json);
      fflush(json);
    }
    printf("%s\n", line.c_str());
    fflush(stdout);
    all_correct = all_correct && correct;
  }
  if (json != nullptr) {
    fclose(json);
  }
  return all_correct ? 0 : 1;
}
