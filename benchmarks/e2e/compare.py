"""Compare two sets of end-to-end runs metric by metric.

Usage::

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a results file written
by ``run.py``'s full mode, or a directory of them whose runs are pooled in
file-name order.  Run *i* of ``A`` pairs with run *i* of ``B``: to get
alternating pairs, run the parent and the change one after the other,
alternating which goes first, writing each run to its side's directory.

Every metric x workload row gets one verdict, using the bound
``BENCHMARK.json`` fixes for the metric:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ by more than the
  distance between the parent's quartiles;
* ``regressed`` -- the change's median is worse than the parent's by more
  than the bound; if the parent's spread (quartile distance over median)
  is wider than the bound, only when every run of the change reads worse
  than every run of the parent;
* ``unresolved`` -- a worse median the spread hides; a spread wider than
  the bound, unless every run of the change reads better than every run
  of the parent; or a median better by more than the bound without the
  pairs to claim a gain;
* ``unchanged`` -- otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: pairs needed before a gain may be claimed, and the share it must win
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: str) -> Dict[str, List[Dict[str, float]]]:
    """workload -> list of end-to-end metric dicts, one per run."""
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not files:
        raise SystemExit(f"error: no results in {path}")
    runs: Dict[str, List[Dict[str, float]]] = {}
    for name in files:
        with open(name, encoding="utf-8") as fh:
            data = json.load(fh)
        for workload, result in data["workloads"].items():
            runs.setdefault(workload, []).extend(result["runs"])
    return runs


def quartile_distance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            higher_is_better: bool) -> str:
    def better(x: float, y: float) -> bool:
        return x > y if higher_is_better else x < y

    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_a - med_b if higher_is_better else med_b - med_a) / med_a
    spread = quartile_distance(a) / med_a
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(med_b - med_a) > quartile_distance(a)):
        return "improved"
    all_worse = all(better(x, y) for x in a for y in b)
    all_better = all(better(y, x) for x in a for y in b)
    if worse_by > bound:
        return "unresolved" if spread > bound and not all_worse else "regressed"
    if -worse_by > bound or (spread > bound and not all_better):
        return "unresolved"
    return "unchanged"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of e2e runs")
    parser.add_argument("a", help="parent: results file or directory")
    parser.add_argument("b", help="change: results file or directory")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':<18} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  pairs  verdict")
    regressed = False
    for workload in sorted(set(runs_a) & set(runs_b)):
        for metric in metrics:
            name = metric["name"]
            a = [run[name] for run in runs_a[workload]]
            b = [run[name] for run in runs_b[workload]]
            result = verdict(a, b, metric["bound"], metric["better"] == "higher")
            regressed |= result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<18} {name:<20} {med_a:>12.5g} {med_b:>12.5g} "
                  f"{(med_b - med_a) / med_a:>+8.1%} "
                  f"{quartile_distance(a) / med_a:>7.1%} {metric['bound']:>6.0%}  "
                  f"{min(len(a), len(b)):>5}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
