"""Checks of the end-to-end benchmark itself (not part of tier-1).

Run from the repository root::

    python -m pytest -q benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_prints_every_declared_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], cwd=ROOT, capture_output=True,
        text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    bench = _benchmark()
    for workload in (w["name"] for w in bench["workloads"]):
        for metric in bench["end_to_end"] + bench["per_layer"]:
            row = re.compile(
                rf"^  {re.escape(workload)} +{re.escape(metric['name'])} +\S+ "
                rf"{re.escape(metric['unit'])}$", re.M,
            )
            assert row.search(proc.stdout), (workload, metric["name"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "expr-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    ten = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.2, 99.8]
    faster = [v * 1.2 for v in ten]
    # higher is better (a throughput)
    assert compare.verdict(ten, ten, 0.05, True) == "unchanged"
    assert compare.verdict(ten, [v * 0.8 for v in ten], 0.05, True) == "regressed"
    assert compare.verdict(ten, faster, 0.05, True) == "improved"
    # a gain needs ten pairs before it is claimed
    assert compare.verdict(ten[:3], faster[:3], 0.05, True) == "unresolved"
    # a spread wider than the bound hides a small regression
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, [v * 0.94 for v in noisy], 0.05, True) == "unresolved"
    # lower is better (a latency)
    assert compare.verdict(ten, [v * 1.2 for v in ten], 0.05, False) == "regressed"
