#!/usr/bin/env python
"""CI smoke test: the pluggable oracle pipeline must find the seeded
logic flaws without inventing any.

1. a 2k-statement campaign with all three oracles (crash, differential,
   conformance) discovers *every* seeded ``logic_flaw`` on two flaw-seeded
   dialects (mysql, duckdb);
2. the same campaign on a flaw-free dialect reports zero logic findings —
   no differential or conformance false positives.

Serial, sharded, resumed and faulted runs of this pipeline sign alike on
every dialect: ``tests/test_signature_matrix.py`` holds that.

Usage: ``PYTHONPATH=src python scripts/ci_oracle_smoke.py``
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402
from repro.dialects.bugs import logic_flaws_for  # noqa: E402

BUDGET = 2_000
SEED = 3
ORACLES = "crash,differential,conformance"
FLAWED_DIALECTS = ("mysql", "duckdb")
CLEAN_DIALECT = "postgresql"


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def main() -> None:
    print(f"[1/2] flaw recall: {', '.join(FLAWED_DIALECTS)}, "
          f"budget {BUDGET}, oracles {ORACLES}")
    for dbms in FLAWED_DIALECTS:
        # function-level flaws only: predicate-level kinds (tlp/norec) are
        # ci_metamorphic_smoke.py's ground truth
        expected = {flaw.flaw_id for flaw in logic_flaws_for(dbms)
                    if flaw.kind in ("wrong", "strict")}
        if not expected:
            fail(f"{dbms}: no logic flaws seeded — smoke has no teeth")
        result = run_campaign(dbms, budget=BUDGET, seed=SEED, oracles=ORACLES)
        found = {f.attribution.flaw_id for f in result.findings
                 if f.attribution is not None}
        missed = expected - found
        if missed:
            fail(f"{dbms}: seeded flaws not discovered: {sorted(missed)}")
        unattributed = [f for f in result.findings if f.attribution is None]
        if unattributed:
            fail(f"{dbms}: {len(unattributed)} findings match no seeded "
                 f"flaw (first: {unattributed[0].one_liner()})")
        print(f"      {dbms}: {len(expected)}/{len(expected)} flaws found "
              f"({len(result.findings)} findings, all attributed)")

    print(f"[2/2] false-positive guard: {CLEAN_DIALECT} (no seeded flaws)")
    clean = run_campaign(CLEAN_DIALECT, budget=BUDGET, seed=SEED,
                         oracles=ORACLES)
    if clean.findings:
        fail(f"{CLEAN_DIALECT}: {len(clean.findings)} spurious findings "
             f"(first: {clean.findings[0].one_liner()})")
    print(f"      {CLEAN_DIALECT}: zero logic findings")

    print("OK: all seeded logic flaws found, zero false positives")


if __name__ == "__main__":
    main()
