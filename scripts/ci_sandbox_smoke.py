#!/usr/bin/env python
"""CI smoke test: the execution sandbox must contain pathological
statements without losing the campaign.

1. resource containment: the injected MariaDB ``MEDIAN`` stack-overflow
   PoC crashes an unguarded server but surfaces as ``resource_exhausted``
   under a depth budget — in-process and sandboxed alike;
2. harness-crash containment: a SIGKILLed sandbox worker records exactly
   one ``harness_crash`` outcome, is respawned, and the runner keeps
   executing;
3. a 500-statement sandboxed campaign under tight budgets with a
   quarantined seed statement completes with the expected
   ``resource_exhausted``/``skipped`` accounting, zero ``harness_crash``
   outcomes, and zero harness tracebacks (this script finishing *is* the
   zero-traceback assertion), and a second run signs identically.

A sandboxed campaign signs like the in-process one on every dialect
(``tests/test_signature_matrix.py``); sandboxed runs sharded or resumed
under a quarantine sign like their serial twins (``tests/test_sandbox.py``,
``tests/test_perf.py``).

Usage: ``PYTHONPATH=src python scripts/ci_sandbox_smoke.py``
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.campaign import run_campaign  # noqa: E402
from repro.core.collect import SeedCollector  # noqa: E402
from repro.core.runner import Runner  # noqa: E402
from repro.dialects import dialect_by_name  # noqa: E402
from repro.robustness import SandboxConfig  # noqa: E402

DIALECT = "mariadb"
BUDGET = 500
SEED = 0
TIGHT_BUDGETS = "depth=2"
SO_POC = "SELECT MEDIAN(999999999999999);"


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def check_resource_containment() -> None:
    print("[1/3] resource containment: MEDIAN stack overflow vs depth budget")
    bare = Runner(dialect_by_name(DIALECT))
    outcome = bare.run(SO_POC)
    if outcome.kind != "crash":
        fail(f"unguarded MEDIAN PoC should crash, got {outcome.kind!r}")
    governed = Runner(dialect_by_name(DIALECT), budgets="depth=64")
    outcome = governed.run(SO_POC)
    if outcome.kind != "resource_exhausted":
        fail(f"governed MEDIAN PoC should exhaust, got {outcome.kind!r}")
    if governed.fault_counters.get("governor.depth") != 1:
        fail(f"expected one governor.depth event, got "
             f"{governed.fault_counters}")
    boxed = Runner(dialect_by_name(DIALECT), budgets="depth=64", sandbox=True)
    try:
        outcome = boxed.run(SO_POC)
        if outcome.kind != "resource_exhausted":
            fail(f"sandboxed+governed PoC should exhaust, got {outcome.kind!r}")
        if boxed.run("SELECT 1;").kind != "ok":
            fail("worker did not keep serving after the contained statement")
    finally:
        boxed.close()
    print("      crash -> resource_exhausted, server survived (both modes)")


def check_harness_crash_containment() -> None:
    print("[2/3] harness-crash containment: SIGKILLed worker")
    runner = Runner(dialect_by_name(DIALECT), sandbox=True)
    try:
        if runner.run("SELECT 1;").kind != "ok":
            fail("sandboxed runner failed a trivial statement")
        runner.sandbox.kill_worker()
        outcome = runner.run("SELECT 2;")
        if outcome.kind != "harness_crash":
            fail(f"killed worker should yield harness_crash, got "
                 f"{outcome.kind!r}")
        expected = {"sandbox.worker_deaths": 1, "sandbox.respawns": 1}
        got = {k: v for k, v in runner.fault_counters.items()
               if k.startswith("sandbox.")}
        if got != expected:
            fail(f"supervisor counters {got} != {expected}")
        if runner.run("SELECT 3;").kind != "ok":
            fail("respawned worker did not recover")
    finally:
        runner.close()
    print("      1 harness_crash, 1 respawn, campaign kept going")


def pathological_campaign():
    seed0 = SeedCollector(dialect_by_name(DIALECT)).collect()[0]
    config = SandboxConfig(quarantine=(f"SELECT {seed0.sql};",))
    return dict(budget=BUDGET, seed=SEED, budgets=TIGHT_BUDGETS, sandbox=config)


def check_pathological_campaign() -> None:
    print(f"[3/3] {BUDGET}-statement sandboxed campaign, budgets "
          f"{TIGHT_BUDGETS!r}, one quarantined seed")
    result = run_campaign(DIALECT, **pathological_campaign())
    outcomes = dict(result.outcomes)
    # fault.* entries mirror fault_counters for the report; they are
    # bookkeeping rows, not stream outcomes
    processed = sum(v for k, v in outcomes.items()
                    if not k.startswith("fault."))
    if processed != BUDGET:
        fail(f"processed {processed} != budget {BUDGET}")
    exhausted = outcomes.get("resource_exhausted", 0)
    if exhausted == 0:
        fail("tight budgets tripped zero times — smoke has no teeth")
    if exhausted != result.fault_counters.get("governor.depth"):
        fail(f"resource_exhausted {exhausted} != governor.depth counter "
             f"{result.fault_counters.get('governor.depth')}")
    if outcomes.get("harness_crash", 0) != 0:
        fail(f"clean campaign reported {outcomes['harness_crash']} "
             "spurious harness crashes")
    if outcomes.get("skipped", 0) < 1 or result.quarantined_statements < 1:
        fail(f"quarantined seed was not skipped: {outcomes}")
    if result.skipped_statements != outcomes["skipped"]:
        fail("skipped accounting mismatch between outcomes and result")
    again = run_campaign(DIALECT, **pathological_campaign())
    if again.signature() != result.signature():
        fail("pathological campaign is not deterministic")
    print(f"      completed: {exhausted} resource_exhausted, "
          f"{outcomes['skipped']} skipped, 0 harness crashes")


def main() -> None:
    check_resource_containment()
    check_harness_crash_containment()
    check_pathological_campaign()
    print("OK: sandbox smoke passed")


if __name__ == "__main__":
    main()
