"""Shared machinery for the reproduction benchmarks.

Budgets model the paper's wall-clock windows (see DESIGN.md).  Expensive
campaigns are memoized in-process so the per-table benchmarks of one pytest
run share them; every benchmark writes its paper-vs-measured table to
``benchmarks/results/`` (and stdout) so the numbers survive pytest's
output capture.
"""

from __future__ import annotations

import functools
import os
import pathlib
from typing import Dict

from repro.analysis import ComparisonTable, run_comparison
from repro.core.campaign import Campaign, CampaignResult
from repro.core.config import CampaignConfig
from repro.dialects import dialect_by_name, dialect_names

#: scale factor for every budget: REPRO_BENCH_SCALE=0.2 runs a fast smoke
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: "24 hours" of testing per §7.5, as a query budget
BUDGET_24H = max(int(20_000 * SCALE), 500)
#: "two weeks" of testing per §7.3 (campaigns stop early at full recall)
BUDGET_2W = max(int(150_000 * SCALE), 2_000)
#: comparison budget for Tables 5/6 (coverage-instrumented, so smaller)
BUDGET_COMPARE = max(int(6_000 * SCALE), 300)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def shape_line(label: str, paper, measured, ok: bool) -> str:
    mark = "ok " if ok else "DIFF"
    return f"  [{mark}] {label:<42} paper={paper!s:<18} measured={measured!s}"


# ---------------------------------------------------------------------------
# heavyweight runs, shared within one process
# ---------------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def two_week_campaign(dialect_name: str) -> CampaignResult:
    """The §7.3 discovery campaign for one dialect (stops at full recall)."""

    dialect = dialect_by_name(dialect_name)
    return Campaign(dialect, config=CampaignConfig(
        dialect=dialect_name,
        budget=BUDGET_2W,
        stop_when_all_found=True,
        seed=0,
    )).run()


@functools.lru_cache(maxsize=None)
def all_two_week_campaigns() -> Dict[str, CampaignResult]:
    return {name: two_week_campaign(name) for name in dialect_names()}


@functools.lru_cache(maxsize=None)
def day_campaign(dialect_name: str) -> CampaignResult:
    """A 24-hour-budget SOFT campaign (for §7.5's bug comparison)."""

    dialect = dialect_by_name(dialect_name)
    return Campaign(dialect, config=CampaignConfig(
        dialect=dialect_name, budget=BUDGET_24H, seed=0)).run()


@functools.lru_cache(maxsize=None)
def comparison_table() -> ComparisonTable:
    """The shared Tables 5/6 run: 4 tools × 5 DBMSs, coverage on."""
    return run_comparison(budget=BUDGET_COMPARE, enable_coverage=True, seed=0)
