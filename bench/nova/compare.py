#!/usr/bin/env python3
"""Compare bench_nova results between a parent and a change, or report the
run-to-run spread of one set.

Inputs are the JSON-lines files bench_nova writes with --json (one record
per workload run). Bounds and directions come from BENCHMARK.json.

  compare.py --parent P.jsonl... --change C.jsonl... [--claim W:METRIC ...]
      For every workload and metric: median and quartiles of each side and
      the change's relative difference. An end-to-end metric whose change
      median is worse than the parent's by more than its bound is a
      REGRESSION; when the parent's own spread (IQR / median) is wider
      than the bound it is "unresolved" instead, unless every change run
      beats every parent run. A --claim holds only if there are at least
      10 pairs (runs paired in file order), the change wins at least 9 of
      every 10 of them (ties count for neither), and the change's median
      is better than the parent's by more than the parent's IQR.
      Exit status 1 on any regression, failed claim, or more failed ops.

  compare.py --spread FILES...
      Per workload and end-to-end metric: n, median, quartiles, and
      IQR / median against the metric's bound.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "..", "BENCHMARK.json")
# A gain is claimed only on at least this many parent/change pairs.
MIN_CLAIM_PAIRS = 10


def load_runs(paths):
    """{workload: [record, ...]} in file order."""
    runs = defaultdict(list)
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    runs[rec["workload"]].append(rec)
    return runs


def load_bounds(path):
    """{metric: (better, bound or None)} for every declared metric."""
    with open(path) as f:
        bench = json.load(f)
    spec = {}
    for m in bench.get("end_to_end", []):
        spec[m["name"]] = (m["better"], m["bound"])
    for m in bench.get("per_layer", []):
        spec[m["name"]] = (m["better"], None)
    return spec


def values(records, metric):
    out = []
    for rec in records:
        m = rec["result"]["metrics"].get(metric)
        if m is not None:
            out.append(float(m["value"]))
    return out


def quartiles(vals):
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / med if med else float("inf")


def worse_by(parent_med, change_med, better):
    """Relative change in the 'worse' direction (negative = better)."""
    if parent_med == 0:
        return 0.0
    d = (change_med - parent_med) / parent_med
    return d if better == "lower" else -d


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def cmd_spread(args, spec):
    runs = load_runs(args.files)
    print(f"{'workload':<20} {'metric':<18} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  status")
    for workload in sorted(runs):
        for metric, (better, bound) in spec.items():
            if bound is None:
                continue
            vals = values(runs[workload], metric)
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            status = ("ok" if s < bound / 3 else
                      "within bound" if s <= bound else "TOO WIDE")
            print(f"{workload:<20} {metric:<18} {len(vals):>3} {med:>12.4f} "
                  f"{q1:>12.4f} {q3:>12.4f} {100 * s:>7.2f}% "
                  f"{100 * bound:>5.0f}%  {status}")
    return 0


def cmd_compare(args, spec):
    parent = load_runs(args.parent)
    change = load_runs(args.change)
    claims = set(args.claim or [])
    bad = False
    print(f"{'workload':<20} {'metric':<30} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'worse':>8}  verdict")
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        p_failed = sum(r["result"]["failed"] for r in p_runs)
        c_failed = sum(r["result"]["failed"] for r in c_runs)
        if c_failed > p_failed:
            print(f"{workload}: change failed {c_failed} ops, parent "
                  f"{p_failed}")
            bad = True
        for metric, (better, bound) in spec.items():
            pv, cv = values(p_runs, metric), values(c_runs, metric)
            if not pv or not cv:
                continue
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            worse = worse_by(pmed, cmed, better)
            verdict = ""
            if bound is not None:
                all_better = all(beats(c, p, better) for c in cv for p in pv)
                if spread(pv) > bound and not all_better:
                    verdict = "unresolved (parent spread > bound)"
                elif worse > bound:
                    verdict = "REGRESSION"
                    bad = True
                else:
                    verdict = "ok"
            key = f"{workload}:{metric}"
            if key in claims:
                pairs = list(zip(pv, cv))
                wins = sum(1 for p, c in pairs if beats(c, p, better))
                big = (beats(cmed, pmed, better)
                       and abs(cmed - pmed) > (pq3 - pq1))
                enough = len(pairs) >= MIN_CLAIM_PAIRS
                held = enough and wins >= 0.9 * len(pairs) and big
                status = ("HOLDS" if held else "NOT MET" if enough else
                          f"NOT MET (fewer than {MIN_CLAIM_PAIRS} pairs)")
                verdict += (f"; claim {status} "
                            f"({wins}/{len(pairs)} pairs won)")
                bad = bad or not held
                claims.discard(key)
            print(f"{workload:<20} {metric:<30} "
                  f"{pmed:>12.4f} [{pq1:>10.4f}, {pq3:>10.4f}] "
                  f"{cmed:>12.4f} [{cq1:>10.4f}, {cq3:>10.4f}] "
                  f"{100 * worse:>7.2f}%  {verdict}")
    for key in sorted(claims):
        print(f"claim {key}: no runs with that workload and metric")
        bad = True
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", nargs="+", help="parent result files")
    ap.add_argument("--change", nargs="+", help="change result files")
    ap.add_argument("--claim", nargs="+",
                    help="WORKLOAD:METRIC pairs the change claims to improve")
    ap.add_argument("--spread", nargs="+", dest="files",
                    help="report the spread of one set of result files")
    args = ap.parse_args()
    spec = load_bounds(BENCHMARK)
    if args.files:
        return cmd_spread(args, spec)
    if not args.parent or not args.change:
        ap.error("give --spread FILES, or both --parent and --change")
    return cmd_compare(args, spec)


if __name__ == "__main__":
    sys.exit(main())
