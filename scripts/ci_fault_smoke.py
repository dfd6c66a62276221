#!/usr/bin/env python
"""CI smoke test: a faulted campaign must not corrupt fuzzing results.

Runs a 2k-query campaign twice — fault-free and under the default fault
plan — and fails (non-zero exit) if any resilience invariant breaks:

1. every headline fault class (hang, drop, restart failure) actually fired;
2. the faulted campaign reports the *same deduplicated bug set* as the
   fault-free campaign;
3. zero flaky (injected, non-reproducible) crash signals were promoted to
   ``DiscoveredBug``s;
4. a campaign killed at a checkpoint and resumed produces a result
   identical to the uninterrupted run.

Usage: ``PYTHONPATH=src python scripts/ci_fault_smoke.py``
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402

DIALECT = "duckdb"
BUDGET = 2_000
SEED = 3
FAULTS = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
FAULT_SEED = 5


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    print(f"[1/3] fault-free campaign: {DIALECT}, budget {BUDGET}, seed {SEED}")
    base = run_campaign(DIALECT, budget=BUDGET, seed=SEED)
    print(f"      {base.bug_count} bugs, {base.queries_executed} queries")

    print(f"[2/3] faulted campaign: --faults '{FAULTS}' --fault-seed {FAULT_SEED}")
    faulted = run_campaign(
        DIALECT, budget=BUDGET, seed=SEED, faults=FAULTS, fault_seed=FAULT_SEED
    )
    counters = faulted.fault_counters
    print(f"      fault events: {dict(sorted(counters.items()))}")
    print(f"      flaky signals triaged out: {len(faulted.flaky_signals)}")

    for kind in ("hang", "drop", "restart_fail"):
        if counters.get(kind, 0) <= 0:
            fail(f"fault class {kind!r} never fired — smoke has no teeth")

    if faulted.bug_keys() != base.bug_keys():
        missing = base.bug_keys() - faulted.bug_keys()
        extra = faulted.bug_keys() - base.bug_keys()
        fail(f"bug-set mismatch under faults: missing={missing} extra={extra}")

    if not faulted.flaky_signals:
        fail("no flaky crash signals injected — smoke has no teeth")
    flaky_as_bugs = {b.sql for b in faulted.bugs} & set(faulted.flaky_signals)
    if flaky_as_bugs:
        fail(f"flaky signals misreported as bugs: {flaky_as_bugs}")

    print("[3/3] checkpoint/resume identity")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp.json")
        full = run_campaign(
            DIALECT, budget=BUDGET, seed=SEED, faults=FAULTS,
            fault_seed=FAULT_SEED, checkpoint_path=path, checkpoint_every=700,
        )
        resumed = run_campaign(
            DIALECT, budget=BUDGET, seed=SEED, faults=FAULTS,
            fault_seed=FAULT_SEED, resume=path,
        )
    if resumed.signature() != full.signature():
        fail("resumed campaign diverged from uninterrupted run")

    print(f"OK: {faulted.bug_count} bugs under faults == {base.bug_count} "
          f"fault-free; {len(faulted.flaky_signals)} flaky signals, "
          f"0 promoted to bugs; resume identical")


if __name__ == "__main__":
    main()
