#!/usr/bin/env python
"""CI smoke test: the metamorphic oracles (TLP + NoREC) must find the
seeded predicate-level flaws without inventing any, and the default
expression stream must stay byte-identical.

1. recall: a 10k-statement predicate-family campaign with
   ``--oracles tlp,norec`` discovers both seeded predicate flaws
   (the IS NULL propagation defect and the NULL-comparison fold) on the
   two flaw-seeded dialects, with every finding attributed;
2. false-positive guard: the same 10k-statement campaign on a flaw-free
   dialect reports zero findings, and a hand-driven clean-arm sweep on
   duckdb (bypassing the flaw auto-install) stays quiet too;
3. determinism: the predicate-family campaign reports the same
   ``CampaignResult.signature()`` serially and with ``--jobs 4``;
4. byte-identity: when neither metamorphic oracle nor the predicate
   family is requested, the default stream's signature hash matches the
   pre-metamorphic baseline — serial and ``--jobs 4``, with and without
   fault injection.

Usage: ``PYTHONPATH=src python scripts/ci_metamorphic_smoke.py``
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import Campaign, run_campaign  # noqa: E402
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
from repro.perf import run_parallel_campaign  # noqa: E402

BUDGET = 10_000
PARITY_BUDGET = 2_000
CLEAN_ARM_STATEMENTS = 2_000
SEED = 3
JOBS = 4
ORACLES = ("crash", "tlp", "norec")
FLAWED_DIALECTS = ("mysql", "duckdb")
CLEAN_DIALECT = "postgresql"

# the default expression stream, hashed before this oracle layer existed:
# any drift here means the metamorphic machinery leaked into the path it
# must not touch
BASELINE_HASH = "198b38a360cf68c9"
BASELINE_FAULT_HASH = "afd36bd8f278ef1a"
BASELINE_BUDGET = 2_000
FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
FAULT_SEED = 5


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def predicate_config(dialect: str, budget: int, **overrides) -> CampaignConfig:
    return CampaignConfig(
        dialect=dialect, budget=budget, seed=SEED, oracles=ORACLES,
        statement_family="predicate", **overrides,
    )


def signature_hash(result) -> str:
    return hashlib.sha256(repr(result.signature()).encode()).hexdigest()[:16]


def main() -> None:
    print(f"[1/4] predicate-flaw recall: {', '.join(FLAWED_DIALECTS)}, "
          f"budget {BUDGET}, oracles {','.join(ORACLES)}")
    for dbms in FLAWED_DIALECTS:
        expected = {
            find_predicate_flaw(dbms, kind).flaw_id
            for kind in ("tlp", "norec")
        }
        if len(expected) != 2:
            fail(f"{dbms}: expected two seeded predicate flaws")
        result = run_campaign(config=predicate_config(dbms, BUDGET))
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

    print(f"[2/4] false-positive guard: {CLEAN_DIALECT} campaign "
          f"(budget {BUDGET}) + duckdb clean-arm sweep "
          f"({CLEAN_ARM_STATEMENTS} statements)")
    clean = run_campaign(config=predicate_config(CLEAN_DIALECT, BUDGET))
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

    print(f"[3/4] predicate-family parity: duckdb serial vs --jobs {JOBS}, "
          f"budget {PARITY_BUDGET}")
    serial = run_campaign(
        config=predicate_config("duckdb", PARITY_BUDGET)
    )
    sharded = run_parallel_campaign(
        config=predicate_config("duckdb", PARITY_BUDGET, jobs=JOBS)
    )
    if serial.signature() != sharded.signature():
        fail(f"predicate-family signature differs under --jobs {JOBS}")
    if not serial.findings:
        fail("parity campaign found nothing — parity check has no teeth")
    print(f"      signatures identical ({len(serial.findings)} findings)")

    print(f"[4/4] default-stream byte-identity: duckdb budget "
          f"{BASELINE_BUDGET}, serial and --jobs {JOBS}, +/- faults")
    plain = run_campaign("duckdb", budget=BASELINE_BUDGET, seed=SEED)
    plain_jobs = run_parallel_campaign("duckdb", jobs=JOBS,
                                       budget=BASELINE_BUDGET, seed=SEED)
    for label, result in (("serial", plain), (f"--jobs {JOBS}", plain_jobs)):
        got = signature_hash(result)
        if got != BASELINE_HASH:
            fail(f"default stream drifted ({label}): {got} != "
                 f"{BASELINE_HASH}")
    faulty = run_campaign("duckdb", budget=BASELINE_BUDGET, seed=SEED,
                          faults=FAULT_SPEC, fault_seed=FAULT_SEED)
    faulty_jobs = run_parallel_campaign(
        "duckdb", jobs=JOBS, budget=BASELINE_BUDGET, seed=SEED,
        faults=FAULT_SPEC, fault_seed=FAULT_SEED,
    )
    for label, result in (("serial", faulty),
                          (f"--jobs {JOBS}", faulty_jobs)):
        got = signature_hash(result)
        if got != BASELINE_FAULT_HASH:
            fail(f"default stream drifted under faults ({label}): {got} != "
                 f"{BASELINE_FAULT_HASH}")
    print("      all four signature hashes match the pre-metamorphic "
          "baseline")

    print("OK: both predicate flaws recalled on both dialects, zero false "
          "positives, shard parity holds, default stream byte-identical")


if __name__ == "__main__":
    main()
