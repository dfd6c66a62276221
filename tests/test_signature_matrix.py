"""The behaviour lock: one pinned campaign signature per dialect and
statement family, whichever way the campaign is run.

Two invariants hold on every dialect and both statement families:

* **determinism** — a serial run, a ``jobs=3`` sharded run and a run
  resumed from the serial run's mid-stream checkpoint sign identically
  (one pinned ``digest``); the default fault plan, serial and sharded, signs
  one pinned ``faulted_digest`` and reports the fault-free bugs and
  findings; a sandboxed run (expression family) signs like the serial run
  plus its supervisor tuple;
* **zero false positives** — every cell of a dialect with no seeded logic
  flaw reports no findings;
* **recall** — every cell of a dialect with seeded logic flaws reports each
  flaw its statement family can reach (function-level flaws in the
  expression family, predicate-level flaws in the predicate family), and
  every finding it reports is attributed to a seeded flaw.

A deliberate behaviour change re-pins every cell with::

    PYTHONPATH=src python tests/test_signature_matrix.py --update

and the diff of ``tests/golden/signatures.json`` belongs in the change.
"""

import functools
import json
import os
import sys
import tempfile

import pytest

from repro.core.campaign import run_campaign
from repro.core.config import CampaignConfig
from repro.dialects import dialect_names
from repro.dialects.bugs import logic_flaws_for
from repro.dialects.flaws import LOGIC_KINDS, PREDICATE_KINDS
from repro.perf import run_parallel_campaign
from repro.service.jobs import signature_digest

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "signatures.json")

FAMILIES = {
    "expression": ("crash", "differential", "conformance"),
    "predicate": ("crash", "tlp", "norec"),
}

#: the seeded logic-flaw kinds each family's oracles can find
FAMILY_FLAW_KINDS = {
    "expression": LOGIC_KINDS,
    "predicate": PREDICATE_KINDS,
}

#: past every dialect's seed phase (217 statements on monetdb, 450 on
#: clickhouse) and past the last seeded flaw a family reaches on its
#: dialect (duckdb's LOWER flaw, stream position 938)
BUDGET = 1_000

#: the serial cell saves its state once, here, in the generated stream
#: of every dialect; the resumed cell continues from that save
CHECKPOINT_AT = 600

#: not a power of two: exercises the scaling step of ``shard_of``
JOBS = 3

FAULTS = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
FAULT_SEED = 5

#: the fault classes every faulted cell must see fire
ALWAYS_FIRED = ("hang", "drop", "flaky_crash")

MODES = ("serial", "jobs", "resumed", "faulted", "faulted_jobs", "sandboxed")

CELLS = [
    (dialect, family, mode)
    for dialect in dialect_names()
    for family in FAMILIES
    for mode in MODES
    if not (mode == "sandboxed" and family == "predicate")
]


@functools.lru_cache(maxsize=1)
def _checkpoints():
    """Where serial cells save their state; removed at interpreter exit."""
    return tempfile.TemporaryDirectory(prefix="signature-matrix-")


@functools.lru_cache(maxsize=None)
def run_cell(dialect, family, mode):
    """The result of one matrix cell (each cell runs once per process)."""
    config = CampaignConfig(
        dialect=dialect, budget=BUDGET, oracles=FAMILIES[family],
        statement_family=family,
    )
    faulted = config.replace(faults=FAULTS, fault_seed=FAULT_SEED)
    checkpointed = config.replace(
        checkpoint_path=os.path.join(_checkpoints().name, f"{dialect}-{family}"),
        checkpoint_every=CHECKPOINT_AT,
    )
    if mode == "serial":
        return run_campaign(config=checkpointed)
    if mode == "jobs":
        return run_parallel_campaign(config=config.replace(jobs=JOBS))
    if mode == "resumed":
        run_cell(dialect, family, "serial")
        return run_campaign(config=checkpointed, resume=True)
    if mode == "faulted":
        return run_campaign(config=faulted)
    if mode == "faulted_jobs":
        return run_parallel_campaign(config=faulted.replace(jobs=JOBS))
    if mode == "sandboxed":
        return run_campaign(config=config.replace(sandbox=True))
    raise ValueError(f"unknown matrix mode {mode!r}")


def current_pins():
    """Every (dialect, family) pin as the code computes it now."""
    return {
        dialect: {
            family: {
                "digest": signature_digest(run_cell(dialect, family, "serial")),
                "faulted_digest": signature_digest(
                    run_cell(dialect, family, "faulted")
                ),
            }
            for family in FAMILIES
        }
        for dialect in dialect_names()
    }


@functools.lru_cache(maxsize=1)
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _findings(result):
    return [finding.signature_tuple() for finding in result.findings]


@pytest.mark.parametrize("dialect, family, mode", CELLS)
def test_cell(dialect, family, mode):
    result = run_cell(dialect, family, mode)
    pins = golden()["cells"][dialect][family]

    seeded = {
        flaw.flaw_id
        for flaw in logic_flaws_for(dialect)
        if flaw.kind in FAMILY_FLAW_KINDS[family]
    }
    attributed = [finding.attribution for finding in result.findings]
    assert None not in attributed
    assert {flaw.flaw_id for flaw in attributed} == seeded

    if mode == "sandboxed":
        serial = run_cell(dialect, family, "serial")
        assert result.signature()[:-1] == serial.signature()
        return
    if mode.startswith("faulted"):
        assert signature_digest(result) == pins["faulted_digest"]
        serial = run_cell(dialect, family, "serial")
        assert result.bug_keys() == serial.bug_keys()
        assert _findings(result) == _findings(serial)
        for kind in ALWAYS_FIRED:
            assert result.fault_counters.get(kind, 0) > 0, kind
        assert result.flaky_signals
        assert not {bug.sql for bug in result.bugs} & set(result.flaky_signals)
        return
    assert signature_digest(result) == pins["digest"]
    # the generated stream must get a share of the budget, or both
    # families sign alike and the shards never fan out
    assert result.seeds_collected < BUDGET


def test_restart_failures_fire_somewhere():
    assert any(
        run_cell(dialect, family, mode).fault_counters.get("restart_fail", 0)
        for dialect, family, mode in CELLS
        if mode.startswith("faulted")
    )


def test_golden_file_pins_the_current_axes():
    assert golden()["budget"] == BUDGET
    assert golden()["checkpoint_at"] == CHECKPOINT_AT
    assert golden()["jobs"] == JOBS
    assert golden()["faults"] == FAULTS
    assert golden()["fault_seed"] == FAULT_SEED
    assert sorted(golden()["cells"]) == sorted(dialect_names())
    for dialect in dialect_names():
        assert sorted(golden()["cells"][dialect]) == sorted(FAMILIES)


def write_golden():
    data = {
        "budget": BUDGET,
        "checkpoint_at": CHECKPOINT_AT,
        "jobs": JOBS,
        "faults": FAULTS,
        "fault_seed": FAULT_SEED,
        "cells": current_pins(),
    }
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_signature_matrix.py --update")
    write_golden()
    print(f"wrote {GOLDEN}")
