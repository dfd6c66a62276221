#!/usr/bin/env python
"""CI smoke test: plan->closure compilation must be invisible to the
fuzzing results and actually pay for itself.

1. compiled-vs-interpreted signature parity: a default (compiled) serial
   campaign, a ``--no-compile`` serial campaign, and a compiled
   ``--jobs 2`` campaign all report the same
   ``CampaignResult.signature()``, and the ``--jobs 2`` run merges
   nonzero compile counters from its shards;
2. throughput guard: on a warm dispatch-bound workload (cheap scalar
   functions, every template already cached and compiled) compiled
   execution must run at >= 2x the interpreted qps.

Usage: ``PYTHONPATH=src python scripts/ci_compile_smoke.py``
"""

from __future__ import annotations

import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402
from repro.core.config import CampaignConfig  # noqa: E402
from repro.dialects import dialect_by_name  # noqa: E402
from repro.perf.parallel import ParallelCampaign  # noqa: E402

DIALECT = "duckdb"
BUDGET = 2_000
SEED = 3
JOBS = 2
MICRO_STATEMENTS = 400
MICRO_PASSES = 6
MIN_COMPILE_SPEEDUP = 2.0
#: dispatch-bound scalar functions for the throughput probe — cheap
#: bodies, so the measured delta is the dispatch overhead the compiler
#: exists to remove (heavier statements are impl-bound on both paths and
#: are covered by the campaign parity checks instead)
MICRO_FUNCS = ("ABS", "SQRT", "SIN", "COS", "TAN", "SIGN",
               "LOG", "FLOOR", "CEIL", "ROUND")


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def micro_qps(compile_plans: bool, statements) -> float:
    """Steady-state engine-layer qps: one unmeasured warm-up pass, then
    timed passes straight through ``Connection.execute``.

    The warm-up pass fills the statement cache and (for the compiled
    connection) compiles every template, so the guard compares the warm
    regimes the flag actually controls — closure dispatch vs the tree
    interpreter — rather than cold-start noise or campaign-harness
    overhead (which the campaign parity checks above already cover).
    """
    server = dialect_by_name(DIALECT).create_server()
    if not compile_plans:
        server.stmt_cache.compile_enabled = False
    conn = server.connect()
    for sql in statements:
        conn.execute(sql)
    started = time.perf_counter()
    for _ in range(MICRO_PASSES):
        for sql in statements:
            conn.execute(sql)
    elapsed = time.perf_counter() - started
    if compile_plans and server.stmt_cache.compiled_executions == 0:
        fail("compiled throughput probe never executed a compiled plan")
    return (MICRO_PASSES * len(statements)) / elapsed


def main() -> None:
    print(f"[1/2] compiled/interpreted/--jobs {JOBS} signature parity: "
          f"{DIALECT}, budget {BUDGET}, seed {SEED}")
    compiled = run_campaign(DIALECT, budget=BUDGET, seed=SEED)
    interpreted = run_campaign(
        DIALECT, config=CampaignConfig(budget=BUDGET, seed=SEED, compile=False)
    )
    if compiled.signature() != interpreted.signature():
        fail("plan compilation changed campaign results")
    if compiled.compiled_executions == 0:
        fail("compiled campaign never executed a compiled plan")
    if interpreted.compiled_executions != 0:
        fail("--no-compile campaign still executed compiled plans")
    parallel = ParallelCampaign(
        config=CampaignConfig(dialect=DIALECT, budget=BUDGET, seed=SEED, jobs=JOBS)
    ).run()
    if parallel.signature() != compiled.signature():
        fail(f"--jobs {JOBS} signature differs from serial")
    if parallel.compiled_executions == 0:
        fail("parallel run merged zero compiled executions")
    print(f"      identical signatures; serial compiled "
          f"{compiled.compiled_executions:,} plans, "
          f"--jobs {JOBS} compiled {parallel.compiled_executions:,}")

    print(f"[2/2] throughput guard: warm dispatch-bound "
          f"workload, {MICRO_STATEMENTS} statements x {MICRO_PASSES} passes")
    rng = random.Random(SEED)
    statements = [
        f"SELECT {MICRO_FUNCS[i % len(MICRO_FUNCS)]}({rng.randint(0, 10**6)});"
        for i in range(MICRO_STATEMENTS)
    ]
    qps_interpreted = micro_qps(False, statements)
    qps_compiled = micro_qps(True, statements)
    ratio = qps_compiled / qps_interpreted
    print(f"      interpreted {qps_interpreted:,.0f} qps, compiled "
          f"{qps_compiled:,.0f} qps ({ratio:.2f}x)")
    if ratio < MIN_COMPILE_SPEEDUP:
        fail(f"compiled qps only {ratio:.2f}x interpreted "
             f"(need >= {MIN_COMPILE_SPEEDUP}x)")

    print(f"OK: compiled execution invisible to results; {ratio:.2f}x faster "
          f"warm")


if __name__ == "__main__":
    main()
