#!/usr/bin/env python
"""CI smoke test: sharded campaigns must be invisible to the fuzzing
results.

``--jobs 3`` and ``--jobs 4`` campaigns report the same deduplicated bug
set *and* the same ``CampaignResult.signature()`` as the serial run —
fault-free and under the default fault plan.  A worker count that is not
a power of two exercises the scaling step of the case-to-shard hash.

Usage: ``PYTHONPATH=src python scripts/ci_parallel_smoke.py``
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402
from repro.perf import run_parallel_campaign  # noqa: E402

DIALECT = "duckdb"
BUDGET = 2_000
SEED = 3
JOBS = (3, 4)
FAULTS = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
FAULT_SEED = 5


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_parity(label: str, faults, fault_seed) -> None:
    serial = run_campaign(
        DIALECT, budget=BUDGET, seed=SEED, faults=faults, fault_seed=fault_seed
    )
    for jobs in JOBS:
        parallel = run_parallel_campaign(
            DIALECT, jobs=jobs, budget=BUDGET, seed=SEED,
            faults=faults, fault_seed=fault_seed,
        )
        if parallel.bug_keys() != serial.bug_keys():
            missing = serial.bug_keys() - parallel.bug_keys()
            extra = parallel.bug_keys() - serial.bug_keys()
            fail(f"{label}, --jobs {jobs}: bug-set mismatch "
                 f"missing={missing} extra={extra}")
        if parallel.signature() != serial.signature():
            fail(f"{label}: signature mismatch between --jobs {jobs} and serial")
        print(f"      {label}, --jobs {jobs}: {serial.bug_count} bugs, "
              f"signatures identical")


def main() -> None:
    print(f"parallel parity: {DIALECT}, budget {BUDGET}, "
          f"seed {SEED}, jobs {', '.join(map(str, JOBS))}")
    check_parity("fault-free", None, 0)
    check_parity("faulted", FAULTS, FAULT_SEED)
    print("OK: sharded campaigns identical to serial")


if __name__ == "__main__":
    main()
