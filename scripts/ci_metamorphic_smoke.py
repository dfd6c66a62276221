#!/usr/bin/env python
"""CI smoke test: the metamorphic oracles (TLP + NoREC) must find the
seeded predicate-level flaws without inventing any.

1. recall: a 10k-statement predicate-family campaign with
   ``--oracles tlp,norec`` discovers both seeded predicate flaws
   (the IS NULL propagation defect and the NULL-comparison fold) on the
   two flaw-seeded dialects, with every finding attributed;
2. false-positive guard: the same 10k-statement campaign on a flaw-free
   dialect reports zero findings, and a hand-driven clean-arm sweep on
   duckdb (bypassing the flaw auto-install) stays quiet too.

Serial, sharded, resumed and faulted predicate-family campaigns sign
alike on every dialect: ``tests/test_signature_matrix.py`` holds that.

Usage: ``PYTHONPATH=src python scripts/ci_metamorphic_smoke.py``
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402
from repro.core.collect import SeedCollector  # noqa: E402
from repro.core.config import CampaignConfig  # noqa: E402
from repro.core.oracles import (  # noqa: E402
    CaseInfo,
    NoRECOracle,
    OraclePipeline,
    TLPOracle,
)
from repro.core.patterns import PatternEngine  # noqa: E402
from repro.core.runner import Runner  # noqa: E402
from repro.core.tables import TABLE_SETUP  # noqa: E402
from repro.dialects import dialect_by_name  # noqa: E402
from repro.dialects.bugs import find_predicate_flaw  # noqa: E402

BUDGET = 10_000
CLEAN_ARM_STATEMENTS = 2_000
SEED = 3
ORACLES = ("crash", "tlp", "norec")
FLAWED_DIALECTS = ("mysql", "duckdb")
CLEAN_DIALECT = "postgresql"


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def predicate_config(dialect: str) -> CampaignConfig:
    return CampaignConfig(
        dialect=dialect, budget=BUDGET, seed=SEED, oracles=ORACLES,
        statement_family="predicate",
    )


def main() -> None:
    print(f"[1/2] predicate-flaw recall: {', '.join(FLAWED_DIALECTS)}, "
          f"budget {BUDGET}, oracles {','.join(ORACLES)}")
    for dbms in FLAWED_DIALECTS:
        expected = {
            find_predicate_flaw(dbms, kind).flaw_id
            for kind in ("tlp", "norec")
        }
        if len(expected) != 2:
            fail(f"{dbms}: expected two seeded predicate flaws")
        result = run_campaign(config=predicate_config(dbms))
        found = {f.attribution.flaw_id for f in result.findings
                 if f.attribution is not None}
        missed = expected - found
        if missed:
            fail(f"{dbms}: seeded predicate flaws not discovered: "
                 f"{sorted(missed)}")
        unattributed = [f for f in result.findings if f.attribution is None]
        if unattributed:
            fail(f"{dbms}: {len(unattributed)} findings match no seeded "
                 f"flaw (first: {unattributed[0].one_liner()})")
        print(f"      {dbms}: 2/2 predicate flaws found "
              f"({len(result.findings)} findings, all attributed)")

    print(f"[2/2] false-positive guard: {CLEAN_DIALECT} campaign "
          f"(budget {BUDGET}) + duckdb clean-arm sweep "
          f"({CLEAN_ARM_STATEMENTS} statements)")
    clean = run_campaign(config=predicate_config(CLEAN_DIALECT))
    if clean.findings:
        fail(f"{CLEAN_DIALECT}: {len(clean.findings)} spurious findings "
             f"(first: {clean.findings[0].one_liner()})")
    # duckdb seeds flaws whenever the metamorphic oracles are requested,
    # so its clean arm must be driven by hand: a flaw-free dialect
    # instance, the same predicate stream, the same oracles
    dialect = dialect_by_name("duckdb")
    pipeline = OraclePipeline([TLPOracle(dialect), NoRECOracle(dialect)])
    engine = PatternEngine(
        SeedCollector(dialect).collect(), statement_family="predicate",
    )
    runner = Runner(dialect, bootstrap_sql=TABLE_SETUP)
    compared = 0
    for index, case in enumerate(engine.generate_all()):
        if index >= CLEAN_ARM_STATEMENTS:
            break
        outcome = runner.run(case.sql)
        info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
        findings = pipeline.observe(outcome, info, index)
        if findings:
            fail(f"duckdb clean arm: spurious finding "
                 f"{findings[0].one_liner()}")
    for oracle in pipeline.oracles:
        compared += oracle.compared
    if not compared:
        fail("duckdb clean arm: the oracles compared nothing — no teeth")
    print(f"      zero findings ({CLEAN_DIALECT} campaign; duckdb clean arm "
          f"compared {compared} laws)")

    print("OK: both predicate flaws recalled on both dialects, zero false "
          "positives")


if __name__ == "__main__":
    main()
