#!/usr/bin/env python
"""CI smoke test: the logic-bug oracles must invent no finding on clean
ground at budgets above the tier-1 signature matrix's.

1. postgresql (no seeded flaws), expression family: a 2k-statement
   campaign with ``--oracles crash,differential,conformance`` reports zero
   logic findings;
2. postgresql, predicate family: a 10k-statement campaign with
   ``--oracles crash,tlp,norec`` reports zero findings;
3. duckdb clean arm: a hand-driven TLP/NoREC sweep over duckdb's own
   predicate stream (bypassing the flaw auto-install) stays quiet.

Recall is not checked here: every cell of the tier-1 signature matrix
(``tests/test_signature_matrix.py``, budget 1,000) must report each seeded
flaw of its dialect and family, attributed, and sign alike serial,
sharded, resumed and faulted.

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

#: expression-family guard: the differential and conformance oracles
EXPRESSION_BUDGET = 2_000
EXPRESSION_ORACLES = "crash,differential,conformance"
BUDGET = 10_000
CLEAN_ARM_STATEMENTS = 2_000
SEED = 3
ORACLES = ("crash", "tlp", "norec")
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
    print(f"[1/3] false-positive guard: {CLEAN_DIALECT} expression family "
          f"(budget {EXPRESSION_BUDGET}, oracles {EXPRESSION_ORACLES})")
    clean = run_campaign(CLEAN_DIALECT, budget=EXPRESSION_BUDGET, seed=SEED,
                         oracles=EXPRESSION_ORACLES)
    if clean.findings:
        fail(f"{CLEAN_DIALECT}: {len(clean.findings)} spurious findings "
             f"(first: {clean.findings[0].one_liner()})")
    print(f"      {CLEAN_DIALECT}: zero logic findings")

    print(f"[2/3] false-positive guard: {CLEAN_DIALECT} predicate family "
          f"(budget {BUDGET}, oracles {','.join(ORACLES)})")
    clean = run_campaign(config=predicate_config(CLEAN_DIALECT))
    if clean.findings:
        fail(f"{CLEAN_DIALECT}: {len(clean.findings)} spurious findings "
             f"(first: {clean.findings[0].one_liner()})")
    print(f"      {CLEAN_DIALECT}: zero findings")

    print(f"[3/3] false-positive guard: duckdb clean-arm sweep "
          f"({CLEAN_ARM_STATEMENTS} statements)")
    # duckdb seeds flaws whenever the metamorphic oracles are requested,
    # so its clean arm must be driven by hand: a flaw-free dialect
    # instance, the same predicate stream, the same oracles
    dialect = dialect_by_name("duckdb")
    pipeline = OraclePipeline([TLPOracle(dialect), NoRECOracle(dialect)])
    engine = PatternEngine(
        SeedCollector(dialect).collect(), statement_family="predicate",
    )
    runner = Runner(dialect, bootstrap_sql=TABLE_SETUP)
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
        if not oracle.compared:
            fail(f"duckdb clean arm: {oracle.name} compared nothing — no teeth")
    compared = sum(oracle.compared for oracle in pipeline.oracles)
    per_oracle = ", ".join(
        f"{oracle.name} {oracle.compared}" for oracle in pipeline.oracles
    )
    print(f"      duckdb clean arm: zero findings over {compared} laws "
          f"({per_oracle})")

    print("OK: zero false positives")


if __name__ == "__main__":
    main()
