"""Sandbox overhead benchmark: in-process vs subprocess-isolated execution.

Every sandboxed statement pays one length-prefixed pickle round trip to
the worker process; this benchmark prices that isolation.  It runs the
same campaign four ways — in-process and sandboxed, serially and at
``--jobs 4`` — asserts the sandbox changes *nothing* about the results
(same outcome distribution, same bug set), and persists the wall-clock /
throughput comparison to ``benchmarks/results/BENCH_sandbox.json``.

The acceptance bar is correctness parity, not a speed floor: RPC overhead
varies wildly across machines (loopback socket latency, fork cost), so
the JSON records the measured slowdown factor instead of asserting one.
"""

import json
import os

from repro.core.campaign import run_campaign

from _shared import BUDGET_24H, RESULTS_DIR, emit, shape_line

DIALECT = "duckdb"
SEED = 0
JOBS = 4


def _run(sandbox: bool, jobs: int):
    return run_campaign(
        DIALECT, jobs=jobs, budget=BUDGET_24H, seed=SEED, sandbox=sandbox
    )


def _stats(result):
    return {
        "wall_seconds": result.wall_seconds,
        "qps": result.statements_per_second,
        "bugs": len(result.bugs),
        "outcomes": dict(result.outcomes),
    }


def test_sandbox_overhead(benchmark):
    def run_all():
        return {
            (False, 1): _run(sandbox=False, jobs=1),
            (True, 1): _run(sandbox=True, jobs=1),
            (False, JOBS): _run(sandbox=False, jobs=JOBS),
            (True, JOBS): _run(sandbox=True, jobs=JOBS),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cores = os.cpu_count() or 1

    def slowdown(jobs: int) -> float:
        plain, boxed = results[(False, jobs)], results[(True, jobs)]
        return (
            boxed.wall_seconds / plain.wall_seconds
            if plain.wall_seconds else 0.0
        )

    payload = {
        "dialect": DIALECT,
        "budget": BUDGET_24H,
        "seed": SEED,
        "cpu_count": cores,
        "jobs1": {
            "inprocess": _stats(results[(False, 1)]),
            "sandboxed": _stats(results[(True, 1)]),
            "slowdown_factor": slowdown(1),
        },
        f"jobs{JOBS}": {
            "inprocess": _stats(results[(False, JOBS)]),
            "sandboxed": _stats(results[(True, JOBS)]),
            "slowdown_factor": slowdown(JOBS),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sandbox.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    lines = [
        f"Sandbox overhead — {DIALECT}, budget {BUDGET_24H}, {cores} cores"
    ]
    for jobs in (1, JOBS):
        plain, boxed = results[(False, jobs)], results[(True, jobs)]
        parity = (
            dict(boxed.outcomes) == dict(plain.outcomes)
            and [b.sql for b in boxed.bugs] == [b.sql for b in plain.bugs]
        )
        lines.append(shape_line(
            f"jobs={jobs}: outcome + bug parity under sandbox",
            "identical", str(parity), parity,
        ))
        lines.append(shape_line(
            f"jobs={jobs}: isolation cost",
            "reported",
            f"{slowdown(jobs):.2f}x wall "
            f"({plain.statements_per_second:,.0f} -> "
            f"{boxed.statements_per_second:,.0f} qps)",
            True,
        ))
    emit("sandbox_overhead", "\n".join(lines))

    # hard acceptance: process isolation is semantically invisible
    for jobs in (1, JOBS):
        plain, boxed = results[(False, jobs)], results[(True, jobs)]
        assert dict(boxed.outcomes) == dict(plain.outcomes), f"jobs={jobs}"
        assert [b.sql for b in boxed.bugs] == [b.sql for b in plain.bugs]
        assert boxed.triggered_functions == plain.triggered_functions
        assert boxed.sandbox_active and not plain.sandbox_active
