// Table 2: analytical MTTF of one SSTable and of the whole storage layer
// as a function of the scatter width ρ, with no redundancy (R=1) vs a
// parity-based technique, using the RAID-style model of [59] with the
// paper's assumptions: StoC MTTF = 4.3 months, repair time = 1 hour,
// β = 10 StoCs.
//
// ISSUE 9 extension: the analytical model takes the repair window as an
// *assumption* (1 hour). With the repair manager in place we can also
// *measure* it — kill a StoC under load and time how long fragments stay
// degraded before automatic re-replication closes the window. The
// measured section reports that window alongside the analytical rows.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.h"

namespace {

constexpr double kHoursPerYear = 24 * 365.0;
constexpr double kStocMttfHours = 4.3 * 30 * 24;  // 4.3 months
constexpr double kRepairHours = 1.0;
constexpr int kBeta = 10;

// With no redundancy, a ρ-fragment SSTable dies when any of its ρ StoCs
// dies: MTTF = MTTF_stoc / ρ.
double MttfNoRedundancy(int rho) { return kStocMttfHours / rho; }

// With one parity block (ρ data + 1 parity on distinct StoCs), data loss
// needs a second failure among the remaining ρ StoCs within the repair
// window: MTTF ≈ MTTF^2 / ((ρ+1) * ρ * repair).
double MttfParity(int rho) {
  return kStocMttfHours * kStocMttfHours /
         ((rho + 1.0) * rho * kRepairHours);
}

// Storage layer: blocks of SSTables are scattered across all β StoCs, so
// layer MTTF is independent of ρ (paper's observation).
double LayerNoRedundancy() { return kStocMttfHours / kBeta; }
double LayerParity() {
  return kStocMttfHours * kStocMttfHours /
         (kBeta * (kBeta - 1.0) * kRepairHours);
}

std::string Fmt(double hours) {
  char buf[64];
  if (hours >= kHoursPerYear) {
    snprintf(buf, sizeof(buf), "%.0f yrs", hours / kHoursPerYear);
  } else if (hours >= 24 * 30) {
    snprintf(buf, sizeof(buf), "%.1f months", hours / (24 * 30));
  } else {
    snprintf(buf, sizeof(buf), "%.0f days", hours / 24);
  }
  return buf;
}

struct MeasuredRepair {
  double window_seconds = 0;   // first degraded seen -> all repaired
  double repair_seconds = 0;   // repair manager's own accumulated window
  double repaired_fragments = 0;
  double repaired_bytes = 0;
  double peak_degraded = 0;
};

// Kill a loaded StoC and measure how long the repair manager takes to
// drive degraded_fragments back to zero — no operator action in between.
bool MeasureRepairWindow(const nova::bench::BenchConfig& cfg,
                         MeasuredRepair* out) {
  using namespace nova;
  coord::ClusterOptions opt = bench::PaperScaledOptions(1, 4);
  // Wall-clock repair measurement: drop the simulated-disk and
  // virtual-CPU scaling so the window reflects detector verdict plus
  // re-replication I/O, not the 1/64 throttle model.
  opt.device.time_scale = 0;
  opt.ltc.cpu_rate_us_per_sec = 0;
  opt.stoc.cpu_rate_us_per_sec = 0;
  opt.placement.rho = 2;
  opt.placement.num_data_replicas = 1;
  opt.placement.num_meta_replicas = 2;
  opt.placement.use_parity = true;
  opt.range.manifest_replicas = 1;
  opt.membership.failure_threshold = 2;
  opt.membership.dead_after_ms = 150;
  opt.membership.rejoin_probes = 1;
  opt.membership.probe_interval_ms = 5;
  opt.ltc.repair.scan_interval_ms = 10;
  coord::Cluster cluster(opt);
  cluster.Start();

  Random rng(42);
  ZipfianGenerator zipf(cfg.num_keys, 0.99);
  std::string value(cfg.value_size, 'm');
  for (uint64_t i = 0; i < cfg.num_keys; i++) {
    cluster.Put(bench::MakeKey(zipf.Next(&rng)), value);
  }
  auto* engine = cluster.ltc(0)->ranges()[0];
  engine->FlushAllMemtables();
  engine->WaitForQuiescence(true);

  // Kill the last StoC.
  cluster.KillStoc(opt.num_stocs - 1);
  auto killed = std::chrono::steady_clock::now();
  auto deadline = killed + std::chrono::seconds(60);
  uint64_t peak = 0;
  bool healed = false;
  std::chrono::steady_clock::time_point healed_at;
  while (std::chrono::steady_clock::now() < deadline) {
    ltc::RangeStats stats = cluster.TotalStats();
    peak = std::max(peak, stats.degraded_fragments);
    // Unthrottled repair can finish between two polls, so the transient
    // gauge peak is best-effort; repaired_fragments is the ground truth
    // that the window opened and closed.
    if (stats.repaired_fragments > 0 && stats.degraded_fragments == 0) {
      healed = true;
      healed_at = std::chrono::steady_clock::now();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ltc::RangeStats stats = cluster.TotalStats();
  if (healed) {
    out->window_seconds =
        std::chrono::duration<double>(healed_at - killed).count();
    out->repair_seconds = stats.repair_us / 1e6;
    out->repaired_fragments = static_cast<double>(stats.repaired_fragments);
    out->repaired_bytes = static_cast<double>(stats.repaired_bytes);
    out->peak_degraded = static_cast<double>(peak);
  }
  cluster.Stop();
  return healed;
}

}  // namespace

int main(int argc, char** argv) {
  nova::bench::BenchConfig cfg = nova::bench::ParseArgs(argc, argv);
  nova::bench::JsonArtifact artifact("table02_mttf");
  printf("==================================================================\n");
  printf("Table 2: MTTF of a SSTable / storage layer vs rho (beta=10,\n");
  printf("StoC MTTF=4.3 months, repair=1h) — analytical model of [59]\n");
  printf("==================================================================\n");
  printf("%-4s %16s %16s %16s %16s %10s\n", "rho", "SSTable R=1",
         "SSTable Parity", "Storage R=1", "Storage Parity", "overhead");
  for (int rho : {1, 3, 5}) {
    printf("%-4d %16s %16s %16s %16s %9.0f%%\n", rho,
           Fmt(MttfNoRedundancy(rho)).c_str(), Fmt(MttfParity(rho)).c_str(),
           Fmt(LayerNoRedundancy()).c_str(), Fmt(LayerParity()).c_str(),
           100.0 / rho);
    artifact.Add("rho=" + std::to_string(rho),
                 {{"sstable_r1_hours", MttfNoRedundancy(rho)},
                  {"sstable_parity_hours", MttfParity(rho)},
                  {"storage_r1_hours", LayerNoRedundancy()},
                  {"storage_parity_hours", LayerParity()},
                  {"space_overhead_pct", 100.0 / rho}});
  }
  printf("\nPaper: rho=1 -> 4.3 months / 554 yrs; rho=3 -> 1.4 months / 91\n");
  printf("yrs; rho=5 -> 26 days / 36 yrs; storage layer 13 days without\n");
  printf("redundancy.\n");

  printf("\nMeasured repair window (rho=2 + parity on 4 StoCs, automatic\n");
  printf("re-replication after a StoC death verdict):\n");
  MeasuredRepair measured;
  if (MeasureRepairWindow(cfg, &measured)) {
    printf("  kill -> fully repaired   %8.3f s (detector + repair)\n",
           measured.window_seconds);
    printf("  repair manager window    %8.3f s\n", measured.repair_seconds);
    printf("  fragments re-replicated  %8.0f (peak degraded %.0f)\n",
           measured.repaired_fragments, measured.peak_degraded);
    printf("  bytes rewritten          %8.0f\n", measured.repaired_bytes);
    artifact.Add("measured_repair",
                 {{"window_seconds", measured.window_seconds},
                  {"repair_seconds", measured.repair_seconds},
                  {"repaired_fragments", measured.repaired_fragments},
                  {"repaired_bytes", measured.repaired_bytes},
                  {"peak_degraded", measured.peak_degraded}});
  } else {
    printf("  repair did not converge within 60 s (see logs)\n");
  }
  printf("\nThe analytical model assumes a 1 h repair window on real\n");
  printf("hardware; the measured window above is the simulated cluster's\n");
  printf("actual detector verdict + re-replication time for the loaded\n");
  printf("fraction of a scaled-down store.\n");
  artifact.Write(cfg.json_path);
  return 0;
}
