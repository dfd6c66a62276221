"""Fault-resilience benchmark: bug recall and overhead under infrastructure faults.

The paper's campaigns ran for 24 wall-clock hours against Docker-ised DBMSs;
real runs of that length absorb hung statements, dropped connections, and
servers that refuse to restart.  This benchmark runs the BUDGET_24H campaign
fault-free and under the default fault plan and checks the resilience
contract: the faulted campaign recalls the *same deduplicated bug set*
(100% relative recall), promotes zero flaky crash signals to bugs, and pays
only a bounded wasted-query overhead (extra engine executions spent on
retries, reconfirmations, and statement kills).
"""

import pytest

from repro.core.campaign import run_campaign

from _shared import BUDGET_24H, emit, shape_line

DIALECTS = ("duckdb", "mariadb", "monetdb")
FAULTS = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
FAULT_SEED = 5
SEED = 0


def _pair(dialect: str):
    base = run_campaign(dialect, budget=BUDGET_24H, seed=SEED)
    faulted = run_campaign(
        dialect, budget=BUDGET_24H, seed=SEED,
        faults=FAULTS, fault_seed=FAULT_SEED,
    )
    return base, faulted


def test_fault_resilience(benchmark):
    pairs = benchmark.pedantic(
        lambda: {name: _pair(name) for name in DIALECTS},
        rounds=1, iterations=1,
    )

    lines = [
        "Fault resilience — faulted vs fault-free campaigns "
        f"(budget {BUDGET_24H}, faults '{FAULTS}')"
    ]
    for name in DIALECTS:
        base, faulted = pairs[name]
        base_keys, faulted_keys = base.bug_keys(), faulted.bug_keys()
        recall = (
            len(faulted_keys & base_keys) / len(base_keys) if base_keys else 1.0
        )
        lines.append(shape_line(
            f"{name}: relative bug recall under faults",
            "100%", f"{recall:.0%} ({len(faulted_keys)}/{len(base_keys)})",
            faulted_keys == base_keys,
        ))

        flaky = len(faulted.flaky_signals)
        promoted = len({b.sql for b in faulted.bugs} & set(faulted.flaky_signals))
        lines.append(shape_line(
            f"{name}: flaky signals promoted to bugs",
            0, f"{promoted} (of {flaky} triaged)", promoted == 0,
        ))

        # overhead: extra statements the resilience machinery re-executed
        # (quiet retries after hangs/drops, crash reconfirmations, restart
        # retries) relative to the campaign budget
        counters = faulted.fault_counters
        extra = (
            counters.get("statement_kills", 0)
            + counters.get("reconnects", 0)
            + counters.get("reconfirmations", 0)
            + counters.get("restart_retries", 0)
        )
        overhead = extra / faulted.queries_executed
        lines.append(shape_line(
            f"{name}: wasted-query overhead",
            "< 10%", f"{overhead:.1%} ({extra} retries)", overhead < 0.10,
        ))

        assert faulted_keys == base_keys, f"bug-set mismatch on {name}"
        assert promoted == 0, f"flaky signals became bugs on {name}"
        assert not faulted.quarantined

    totals = {}
    for name in DIALECTS:
        for kind, count in pairs[name][1].fault_counters.items():
            totals[kind] = totals.get(kind, 0) + count
    lines.append(shape_line(
        "fault classes exercised (hang/drop/restart)",
        "all > 0",
        f"hang={totals.get('hang', 0)} drop={totals.get('drop', 0)} "
        f"restart_fail={totals.get('restart_fail', 0)}",
        all(totals.get(k, 0) > 0 for k in ("hang", "drop", "restart_fail")),
    ))

    emit("fault_resilience", "\n".join(lines))
