// Calibrated virtual-CPU costs (microseconds) charged to a node's
// CpuThrottle for each unit of work. The relative magnitudes follow the
// paper's reported overheads:
//  * maintaining the lookup/range indexes costs ~15-30% of a write's CPU
//    (paper Section 1.2, 8.3.1, 8.3.4);
//  * a get that cannot use the lookup index probes every memtable and L0
//    SSTable, so probe costs are charged per table searched (Challenge 2);
//  * scans charge per record iterated plus per table in the merge set,
//    which makes the range index's 26x/18x effect reproducible;
//  * xchg threads charge per poll, making RDMA polling overhead visible
//    with many nodes (paper Section 8.3.4).
#ifndef NOVA_SIM_COST_MODEL_H_
#define NOVA_SIM_COST_MODEL_H_

namespace nova {
namespace sim {

struct CostModel {
  // Request admission / networking.
  double request_dispatch_us = 2.0;   // parse + route one client request
  double xchg_poll_us = 0.3;          // one xchg wake-up: a message, or
                                      // a 1 ms wait that found none
  double rdma_message_us = 1.0;       // initiator-side cost of a verb

  // Write path.
  double put_base_us = 3.0;           // memtable append (skiplist insert)
  double log_append_us = 1.0;         // LogC record construction
  double lookup_index_update_us = 1.0;   // Challenge-2 index maintenance
  double range_index_update_us = 0.5;

  // Read path.
  double get_base_us = 2.0;
  double memtable_probe_us = 1.5;     // search one memtable
  double l0_sstable_probe_us = 2.5;   // search one L0 SSTable (cached bloom)
  double high_level_probe_us = 3.0;   // binary search + block read CPU

  // Scan path.
  double scan_seek_us = 4.0;          // position iterators in one partition
  double scan_per_table_us = 1.5;     // each memtable/SSTable in merge set
  double scan_per_record_us = 0.8;    // iterate one (version of a) record

  // NIC-path log replication: the StoC's CPU copies each record
  // (one-sided RDMA WRITE costs the StoC nothing, Section 8.2.3).
  double nic_log_append_us = 6.0;

  // Background work. Compaction I/O is charged separately from the
  // foreground read/write costs above so benches can attribute
  // interference: each input data block fetched from a StoC and each
  // output SSTable written through the placer costs the compacting node
  // CPU distinct from per-record merge work.
  double compaction_per_record_us = 0.4;
  double compaction_read_block_us = 2.0;
  double compaction_write_sstable_us = 8.0;
  double flush_per_record_us = 0.3;
  double reorg_sample_us = 0.2;
};

/// The process-wide default cost model (mutable for experiments).
CostModel& DefaultCostModel();

}  // namespace sim
}  // namespace nova

#endif  // NOVA_SIM_COST_MODEL_H_
