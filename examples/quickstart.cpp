// Quickstart: bring up a small Nova-LSM cluster (2 LTCs + 3 StoCs over
// the in-process RDMA fabric), write, read, scan, and inspect the
// component statistics.
#include <cstdio>

#include "coord/cluster.h"

using namespace nova;

int main() {
  // 1. Describe the cluster: η=2 LTCs, β=3 StoCs, two key ranges.
  coord::ClusterOptions options;
  options.num_ltcs = 2;
  options.num_stocs = 3;
  options.split_points = {"m"};  // range 0 = [-inf,"m"), range 1 = ["m",inf)
  options.device.time_scale = 0;  // instant disks for the demo
  options.range.memtable_size = 64 << 10;
  options.placement.rho = 2;  // scatter SSTables over 2 StoCs

  coord::Cluster cluster(options);
  cluster.Start();

  // 2. Requests route by key through the coordinator's configuration to
  //    the LTC serving the key's range.
  cluster.Put("apple", "red");
  cluster.Put("banana", "yellow");
  cluster.Put("melon", "green");

  std::string value;
  if (cluster.Get("banana", &value).ok()) {
    printf("banana -> %s\n", value.c_str());
  }

  // 3. Scans merge memtables, Level0 and higher levels — and continue
  //    across ranges (and LTCs) transparently.
  std::vector<std::pair<std::string, std::string>> records;
  cluster.Scan("a", 10, &records);
  printf("scan from 'a':\n");
  for (const auto& [k, v] : records) {
    printf("  %s = %s\n", k.c_str(), v.c_str());
  }

  // 4. Deletes are tombstones until compaction discards them.
  cluster.Delete("apple");
  printf("after delete, apple found? %s\n",
         cluster.Get("apple", &value).IsNotFound() ? "no" : "yes");

  // 5. Component statistics.
  auto stats = cluster.TotalStats();
  printf("puts=%llu gets=%llu flushes=%llu compactions=%llu\n",
         static_cast<unsigned long long>(stats.puts),
         static_cast<unsigned long long>(stats.gets),
         static_cast<unsigned long long>(stats.flushes),
         static_cast<unsigned long long>(stats.compactions));

  cluster.Stop();
  return 0;
}
