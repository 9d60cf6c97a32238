// Figure 12: impact of skew — throughput of RW50/W100/SW50 as the access
// pattern moves from Uniform through Zipf 0.27 / 0.73 / 0.99.
// Paper: RW50 and W100 *gain* with skew (memtable hits; fewer unique keys
// so memtable merging avoids disk writes); SW50 *loses* (scans iterate
// many versions of hot keys).
#include "bench_common.h"

namespace nova {
namespace bench {

/// Minor Drange reorganizations so far, over every range of the cluster.
uint64_t MinorReorgs(coord::Cluster* cluster) {
  uint64_t n = 0;
  for (int i = 0; i < cluster->num_ltcs(); i++) {
    for (ltc::RangeEngine* engine : cluster->ltc(i)->ranges()) {
      n += engine->dranges()->num_minor_reorgs();
    }
  }
  return n;
}

void Run(const BenchConfig& cfg) {
  PrintHeader("Figure 12: impact of skew (eta=1, beta=10, rho=1, theta=16)");
  // Reorganization churn beside each throughput: minor reorganizations per
  // second and flushes per 1000 puts over the measured window.
  printf("%-6s %-9s %10s %8s %10s %10s\n", "wload", "dist", "ops/s",
         "vs_unif", "reorgs/s", "fl/1kput");
  JsonArtifact json("fig12_skew");
  for (WorkloadType type :
       {WorkloadType::kRW50, WorkloadType::kW100, WorkloadType::kSW50}) {
    double base = 0;
    for (double theta : {0.0, 0.27, 0.73, 0.99}) {
      coord::ClusterOptions opt = PaperScaledOptions(1, 10);
      opt.range.drange.theta = 16;
      opt.range.max_memtables = 64;
      coord::Cluster cluster(opt);
      cluster.Start();
      WorkloadSpec spec;
      spec.num_keys = cfg.num_keys;
      spec.value_size = cfg.value_size;
      spec.type = WorkloadType::kW100;
      LoadData(&cluster, spec, cfg.client_threads);
      spec.type = type;
      spec.zipf_theta = theta;
      uint64_t reorgs_before = MinorReorgs(&cluster);
      ltc::RangeStats before = cluster.TotalStats();
      RunResult r =
          RunWorkload(&cluster, spec, cfg.seconds, cfg.client_threads);
      ltc::RangeStats after = cluster.TotalStats();
      double reorgs_per_s =
          r.duration_sec > 0
              ? (MinorReorgs(&cluster) - reorgs_before) / r.duration_sec
              : 0;
      uint64_t puts = after.puts - before.puts;
      double flushes_per_1k_puts =
          puts > 0 ? 1000.0 * (after.flushes - before.flushes) / puts : 0;
      cluster.Stop();
      if (theta == 0.0) {
        base = r.ops_per_sec;
      }
      double vs_uniform = base > 0 ? r.ops_per_sec / base : 1;
      char dist[16];
      snprintf(dist, sizeof(dist), theta == 0.0 ? "Uniform" : "Zipf%.2f",
               theta);
      printf("%-6s %-9s %10.0f %8.2f %10.1f %10.1f\n", WorkloadName(type),
             dist, r.ops_per_sec, vs_uniform, reorgs_per_s,
             flushes_per_1k_puts);
      fflush(stdout);
      char label[48];
      snprintf(label, sizeof(label), "%s/zipf%.2f", WorkloadName(type),
               theta);
      json.Add(label, {{"ops_per_sec", r.ops_per_sec},
                       {"vs_uniform", vs_uniform},
                       {"minor_reorgs_per_s", reorgs_per_s},
                       {"flushes_per_1k_puts", flushes_per_1k_puts}});
    }
  }
  json.Write(cfg.json_path);
}

}  // namespace bench
}  // namespace nova

int main(int argc, char** argv) {
  nova::bench::Run(nova::bench::ParseArgs(argc, argv));
  return 0;
}
