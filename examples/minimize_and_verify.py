#!/usr/bin/env python3
"""Triage pipeline: fuzz → minimise → verify logic soundness.

1. Run a short SOFT campaign against MariaDB.
2. Delta-debug every discovered PoC to its minimal form (the shape the
   paper's listings have).
3. Run the §8 metamorphic oracles (TLP + NoREC) over the predicate
   statement family to confirm MariaDB has no *logic* bugs on top of its
   crash bugs — and demonstrate the oracles catching, and attributing,
   DuckDB's seeded partition and constant-folding defects.

    python examples/minimize_and_verify.py
"""

from repro.core import Campaign, CampaignConfig, minimize_poc, run_campaign
from repro.dialects import dialect_by_name

#: a short predicate-family campaign with both metamorphic oracles on
METAMORPHIC = dict(
    budget=1_500, seed=3, statement_family="predicate",
    oracles=("crash", "tlp", "norec"),
)


def main() -> int:
    dialect = dialect_by_name("mariadb")
    print("Step 1 — fuzzing mariadb (12k statements)...")
    result = Campaign(
        dialect, config=CampaignConfig(dialect="mariadb", budget=12_000)).run()
    print(f"  {len(result.bugs)} unique crashes found\n")

    print("Step 2 — minimising every PoC:")
    for bug in result.bugs[:8]:
        minimized = minimize_poc(dialect, bug.sql, max_attempts=400)
        print(f"  [{bug.crash_code}] {bug.function}")
        print(f"     before ({len(minimized.original):>3} chars): {minimized.original}")
        print(f"     after  ({len(minimized.minimized):>3} chars): {minimized.minimized}")

    print("\nStep 3 — metamorphic oracles (TLP + NoREC) on the predicate family:")
    clean = run_campaign("mariadb", **METAMORPHIC)
    print(f"  mariadb: {clean.queries_executed} statements, "
          f"{len(clean.findings)} findings (expected 0)")
    seeded = run_campaign("duckdb", **METAMORPHIC)
    print(f"  duckdb: {len(seeded.findings)} findings (seeded predicate flaws)")
    for finding in seeded.findings:
        print(f"     {finding.one_liner()}")
        print(f"       attributed to {finding.attribution.flaw_id}")
    assert not clean.findings
    assert {f.oracle for f in seeded.findings} == {"tlp", "norec"}
    assert all(f.attribution is not None for f in seeded.findings)
    print("\nPipeline complete.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
