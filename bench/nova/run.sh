#!/usr/bin/env bash
# Builds bench_nova from this checkout's sources (into build-nova/) and
# runs it.
#
#   bash bench/nova/run.sh
#       Every workload at seed 1: the untraced pass (end-to-end metrics),
#       then the traced pass (per-layer metrics). Results are also written
#       to build-nova/results/{untraced,traced}.jsonl, the input format of
#       compare.py.
#   bash bench/nova/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run; any bench_nova flag may be given (see bench_nova.cc).
#
# Build output goes to stderr, so the last line of stdout is the result
# JSON of the last workload run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: $root has no store sources (CMakeLists.txt, src/) to build" >&2
  exit 2
fi

build=build-nova
{
  cmake -S bench/nova -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target bench_nova --parallel "$(nproc)"
} >&2

if [ $# -gt 0 ]; then
  exec "$build/bench_nova" "$@"
fi
mkdir -p "$build/results"
"$build/bench_nova" --trace 0 --json "$build/results/untraced.jsonl"
"$build/bench_nova" --trace 1 --json "$build/results/traced.jsonl"
