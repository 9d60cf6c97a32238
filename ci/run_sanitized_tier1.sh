#!/usr/bin/env bash
# Sanitizer gate for the tier-1 suite: builds the repo twice (TSan, ASan)
# into dedicated build trees and runs `ctest -L tier1` under each.
#
# Usage:
#   ci/run_sanitized_tier1.sh [thread|address|chaos|compression|all] [extra ctest args...]
#
# Defaults to `all`. Extra arguments are forwarded to ctest, e.g.
#   ci/run_sanitized_tier1.sh thread -R Churn --repeat until-fail:20
# runs the churn tests 20x under TSan — the loop that gates the
# WritersAndReadersRace / NoStaleReadsUnderReorgChurn flake fixes.
#
# `chaos` runs the seeded fault-injection suite (ChaosTest: StoC
# kill/restart under failpoint-injected RPC errors, 10 seeds, once always
# killing StoC 3 and once killing the StoC of the range's first MANIFEST
# replica), the MANIFEST placement tests
# (ManifestStocDeathTest: a replica's StoC dies, then the LTC;
# FlushesCommitAfterTheManifestStocDies: the range moves a single
# replica; RecoveryFailsWhenNoManifestReplicaAnswers;
# StaleManifestReplicaNeverWinsRecovery: the version rule and the sweep
# of stale replicas), the
# tests that move SSTable pieces off a StoC (RepairTest, and every
# GracefulRemove test: the drain and the repair scan share one per-file
# path under one mutex, the removal moves a MANIFEST replica and the
# memtables' log records, and log files and offloaded compactions follow
# the placement list), the offloaded-compaction tests
# (OffloadedCompactionProducesSameData, FailedOffloadRetriesLocally: a
# compaction pool thread offloads its job to the StoC the placement rule
# picks and runs it locally when the offload fails), the
# placement tests (PlacementTest: new
# SSTables take their StoCs by the same rule repair uses), the
# MANIFEST group-commit tests
# (VersionSetGroupCommitTest: one caller appends and publishes for a
# queue of writers; FlushCommitDoesNotBlockGetsOrRouting: readers and
# routing run while a commit waits at its MANIFEST append), the
# flush-pipeline
# tests (FlushPipelineKeepsTwoWritesPerStoc: flush threads arm SSTables
# and acknowledgment callbacks on the xchg threads start the commits;
# FailedFlushLeavesNoPiecesBehind, RecoveryDropsUncommittedTables and
# GcKeepsTablesAwaitingCommit: what happens to SSTables written but not
# committed), the tests of the rule for deleting SSTable pieces
# (HeldVersionKeepsCompactedTablesReadable: compaction inputs outlive
# their readers; CompactionRetriedAfterFailedApplyDeletesItsInputs: a
# compaction whose MANIFEST append failed retires its inputs once on
# retry; MigratedRangeDeletesHeldTablesAfterRelease: a range's old LTC
# deletes its retired tables after their last reader;
# GcBetweenLtcCrashAndRecoveryLosesNoKey: GC leaves a range no alive LTC
# hosts alone), the read tests that an error is an answer
# (StocDeathGetTest, and GetsDuringCompactionsTest: readers race flushes
# and compactions with the lookup index on and off), the tests that a
# removed StoC fails its RPCs at once
# (AsyncRpcTest.RemovedPeerFailsItsWaitersAtOnce,
# KilledStocFailsArmedFlushAtOnce), the suites of the wake-ups that
# deliver every RPC (FabricTest, RpcTest, AsyncRpcTest, AsyncStocTest,
# ReadPathTest: xchg threads wait on their queue until a message lands,
# and a StoC read gather waits for a completion, its hedge or its
# deadline), the LTC crash-recovery seeds
# (RecoveryRepro), the test that a put is acknowledged only once its log
# record is in the log (PutIsAckedOnlyOnceItsRecordIsLogged), the scans
# racing Drange reorganizations (ScansMissNoAckedKeyUnderReorgChurn) and
# overwrites (ScansMissNoOverwrittenKey), and the scan that waits for the
# next range's LTC to recover (ScanWaitsForTheNextRangesLtc) under TSan.
# `all` runs it after the two full tier-1 passes.
#
# `compression` runs only the block-compression / cache-tier suites
# (Compressor, stored-block corruption, two-queue admission, compressed
# tier, compressed-fragment repair) and the SSTable iterator's suites
# (block runs, whole-table sweeps, compaction merges and the cleanup of
# a failed one, cluster scans) under ASan — decompression scratch
# buffers, the trailer parsing paths and the slicing of a run into
# blocks are where out-of-bounds reads would hide, and a run block that
# outlives its reader pin, or a failed read of a deferred first block,
# would surface here. `all` includes these tests via the full ASan
# tier-1 pass.
#
# Sanitized runs are several times slower than the plain suite; -j is
# capped below the machine width so the timing-sensitive churn tests do
# not time out purely from oversubscription.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mode="${1:-all}"
shift || true

jobs=$(( $(nproc) / 2 ))
(( jobs >= 2 )) || jobs=2

run_one() {
  local sanitizer="$1"; shift
  local build_dir="${repo_root}/build-${sanitizer}san"
  echo "==> [${sanitizer}] configure + build (${build_dir})"
  cmake -S "${repo_root}" -B "${build_dir}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSANITIZE="${sanitizer}" >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" >/dev/null
  echo "==> [${sanitizer}] ctest -L tier1 -j ${jobs} $*"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ASAN_OPTIONS="detect_leaks=0" \
    ctest --test-dir "${build_dir}" -L tier1 -j "${jobs}" \
          --output-on-failure "$@"
}

# Chaos stage: the 10-seed kill/restart + failpoint suite plus the
# MANIFEST placement, repair, graceful-removal, placement, MANIFEST
# group-commit, offloaded-compaction, flush-pipeline, piece-deletion,
# read-error, StoC-removal,
# RPC wake-up, LTC-recovery, log-acknowledgment and scan tests,
# serialized
# (-j 1) because each test churns a whole cluster and the timing
# assumptions (death verdicts, probe intervals) degrade when
# oversubscribed.
run_chaos() {
  local build_dir="${repo_root}/build-threadsan"
  echo "==> [chaos] configure + build (${build_dir})"
  cmake -S "${repo_root}" -B "${build_dir}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSANITIZE=thread >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" >/dev/null
  local tests="ChaosTest|ManifestStocDeathTest|FlushesCommitAfterTheManifestStocDies|RecoveryFailsWhenNoManifestReplicaAnswers|StaleManifestReplicaNeverWinsRecovery|RepairTest|GracefulRemove|OffloadedCompactionProducesSameData|FailedOffloadRetriesLocally|PlacementTest|VersionSetGroupCommitTest|FlushCommitDoesNotBlockGetsOrRouting|FlushPipelineKeepsTwoWritesPerStoc|FailedFlushLeavesNoPiecesBehind|RecoveryDropsUncommittedTables|GcKeepsTablesAwaitingCommit|HeldVersionKeepsCompactedTablesReadable|CompactionRetriedAfterFailedApplyDeletesItsInputs|MigratedRangeDeletesHeldTablesAfterRelease|GcBetweenLtcCrashAndRecoveryLosesNoKey|StocDeathGetTest|GetsDuringCompactionsTest|RemovedPeerFailsItsWaitersAtOnce|KilledStocFailsArmedFlushAtOnce|FabricTest|RpcTest|AsyncRpcTest|AsyncStocTest|ReadPathTest|RecoveryRepro|PutIsAckedOnlyOnceItsRecordIsLogged|ScansMissNoAckedKeyUnderReorgChurn|ScansMissNoOverwrittenKey|ScanWaitsForTheNextRangesLtc"
  echo "==> [chaos] ctest -R ${tests} (TSan)"
  TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
    ctest --test-dir "${build_dir}" -R "${tests}" -j 1 \
          --output-on-failure "$@"
}

# Compression stage: ASan over the codec, trailer-corruption, cache-tier,
# compressed-repair and SSTable-iterator suites. Fast enough to run on
# every change to the read path; the full `address` pass subsumes it.
run_compression() {
  local build_dir="${repo_root}/build-addresssan"
  echo "==> [compression] configure + build (${build_dir})"
  cmake -S "${repo_root}" -B "${build_dir}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSANITIZE=address >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" >/dev/null
  echo "==> [compression] ctest compression/cache/iterator suites (ASan)"
  ASAN_OPTIONS="detect_leaks=0" \
    ctest --test-dir "${build_dir}" \
          -R "CompressorTest|FormatTest|SSTableReaderTest|TwoQueueLRUCacheTest|BlockCacheClusterTest|RepairTest.RebuiltFragmentsAreByteIdenticalCompressedImages|AsyncStocTest|ScanReadaheadClusterTest|IntegrationTest.*Compaction|IntegrationTest.Scan" \
          -j "${jobs}" --output-on-failure "$@"
}

case "${mode}" in
  thread|address)
    run_one "${mode}" "$@"
    ;;
  chaos)
    run_chaos "$@"
    ;;
  compression)
    run_compression "$@"
    ;;
  all)
    run_one thread "$@"
    run_one address "$@"
    run_chaos "$@"
    ;;
  *)
    echo "usage: $0 [thread|address|chaos|compression|all] [extra ctest args...]" >&2
    exit 2
    ;;
esac
echo "==> sanitized tier-1: PASS (${mode})"
