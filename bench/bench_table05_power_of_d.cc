// Table 5: W100 Uniform throughput as a function of the scatter width ρ
// under Random vs power-of-d placement, with a tiny memory budget
// (α=1, δ=2 — the config where flush latency dominates).
// Paper: ρ=1 27.6k (random) vs 42.7k (power-of-2); ρ=10 ≈ 52k for both.
//
// Extension: the same power-of-d idea applied to the read path. R100
// Zipfian over 2-way replicated SSTables with one straggling StoC disk:
// d=1 must eat the straggler's latency whenever it looks least loaded,
// d=2 fans out and the fast replica wins, and hedging caps whatever
// stragglers slip through — visible in the p99/p999 columns.
#include "bench_common.h"

namespace nova {
namespace bench {

double RunPoint(const BenchConfig& cfg, int rho, bool power_of_d) {
  coord::ClusterOptions opt = PaperScaledOptions(1, 10);
  opt.range.max_memtables = 2;
  opt.range.drange.theta = 1;
  opt.range.num_active_memtables = 1;
  opt.range.max_parallel_compactions = 1;
  opt.placement.rho = rho;
  opt.placement.power_of_d = power_of_d;
  coord::Cluster cluster(opt);
  cluster.Start();
  WorkloadSpec spec;
  spec.num_keys = cfg.num_keys;
  spec.value_size = cfg.value_size;
  spec.type = WorkloadType::kW100;
  RunResult r = RunWorkload(&cluster, spec, cfg.seconds, cfg.client_threads);
  cluster.Stop();
  return r.ops_per_sec;
}

struct ReadPoint {
  double ops = 0;
  double avg_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t pod_reads = 0;
  uint64_t hedged_issued = 0;
  uint64_t hedged_won = 0;
};

ReadPoint RunReadPoint(const BenchConfig& cfg, int d, bool hedge) {
  coord::ClusterOptions opt = PaperScaledOptions(1, 4);
  opt.placement.num_data_replicas = 2;
  opt.placement.num_meta_replicas = 2;
  opt.stoc.page_cache_bytes = 0;  // every read pays real device time
  opt.ltc.read_replica_d = d;
  opt.ltc.read_hedging = hedge;
  coord::Cluster cluster(opt);
  cluster.Start();
  WorkloadSpec spec;
  spec.num_keys = std::max<uint64_t>(cfg.num_keys / 4, 100);
  spec.value_size = cfg.value_size;
  LoadData(&cluster, spec, cfg.client_threads);
  for (auto* engine : cluster.ltc(0)->ranges()) {
    engine->FlushAllMemtables();
    engine->WaitForQuiescence(/*flush_all=*/true);
  }
  // One straggling disk; replica selection / hedging can route around it.
  cluster.device(0)->InjectLatency(10 * 1000);
  spec.type = WorkloadType::kR100;
  spec.zipf_theta = 0.99;
  RunResult r = RunWorkload(&cluster, spec, cfg.seconds, cfg.client_threads);
  ltc::RangeStats stats = cluster.TotalStats();
  ReadPoint out;
  out.ops = r.ops_per_sec;
  out.avg_us = r.read_latency->Average();
  out.p99_us = r.read_latency->Percentile(99);
  out.p999_us = r.read_latency->Percentile(99.9);
  out.pod_reads = stats.pod_reads;
  out.hedged_issued = stats.hedged_issued;
  out.hedged_won = stats.hedged_won;
  cluster.Stop();
  return out;
}

void Run(const BenchConfig& cfg) {
  JsonArtifact art("table05_power_of_d");
  PrintHeader(
      "Table 5: rho x {Random, power-of-d}, W100 Uniform, alpha=1 delta=2");
  printf("%-5s %12s %14s\n", "rho", "Random", "Power-of-d");
  for (int rho : {1, 3, 10}) {
    double rnd = RunPoint(cfg, rho, false);
    double pod = RunPoint(cfg, rho, true);
    printf("%-5d %12.0f %14.0f\n", rho, rnd, pod);
    fflush(stdout);
    art.Add("write_rho=" + std::to_string(rho),
            {{"random_ops", rnd}, {"pod_ops", pod}});
  }

  PrintHeader(
      "Read-path power-of-d: R100 Zipf 0.99, 2 replicas, one StoC +10ms");
  printf("%-18s %10s %9s %9s %9s %8s %8s\n", "policy", "ops/s", "avg_ms",
         "p99_ms", "p999_ms", "hedged", "won");
  struct Config {
    const char* label;
    int d;
    bool hedge;
  };
  // d=1+hedge isolates hedging (with 2 replicas, d=2 already fans out to
  // both, leaving no candidate to hedge to — hedged stays 0 there).
  for (const Config& c : {Config{"d=1", 1, false},
                          Config{"d=1+hedge", 1, true},
                          Config{"d=2", 2, false},
                          Config{"d=2+hedge", 2, true}}) {
    ReadPoint p = RunReadPoint(cfg, c.d, c.hedge);
    printf("%-18s %10.0f %9.2f %9.2f %9.2f %8llu %8llu\n", c.label, p.ops,
           p.avg_us / 1000.0, p.p99_us / 1000.0, p.p999_us / 1000.0,
           static_cast<unsigned long long>(p.hedged_issued),
           static_cast<unsigned long long>(p.hedged_won));
    fflush(stdout);
    art.Add(std::string("read_") + c.label,
            {{"ops", p.ops},
             {"avg_us", p.avg_us},
             {"p99_us", p.p99_us},
             {"p999_us", p.p999_us},
             {"pod_reads", static_cast<double>(p.pod_reads)},
             {"hedged_issued", static_cast<double>(p.hedged_issued)},
             {"hedged_won", static_cast<double>(p.hedged_won)}});
  }
  art.Write(cfg.json_path);
}

}  // namespace bench
}  // namespace nova

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseArgs(argc, argv));
  return 0;
}
