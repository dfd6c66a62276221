"""Saved oracle state: the findings store every oracle shares.

For each of the five oracles, over the first 1,000 outcomes of a duckdb
campaign stream: export -> restore -> export is identical, merging the
states of a three-way split of the stream equals the serial export, and
every finding survives ``to_dict``/``from_dict`` with its attribution
re-resolved.  The pinned digests lock the saved format of a whole
pipeline, so any change to it fails here.

A campaign's counters are saved the same way, as one tally: on a faulted
duckdb stream and on a sandboxed stream with a quarantined seed, export ->
restore -> export is identical, and a three-shard run's merged tally
equals the serial one.
"""

import hashlib
import json
from itertools import islice

import pytest

from repro.core import campaign
from repro.core.campaign import run_campaign
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.oracles import ORACLE_NAMES, CaseInfo, build_pipeline
from repro.core.patterns import PatternEngine
from repro.core.runner import Runner
from repro.core.tables import TABLE_SETUP
from repro.dialects import dialect_by_name
from repro.robustness import SandboxConfig
from repro.robustness.tally import Tally

#: the statement family each oracle hunts in, and a campaign's oracle set
#: for that family
FAMILY = {
    "crash": "expression",
    "differential": "expression",
    "conformance": "expression",
    "tlp": "predicate",
    "norec": "predicate",
}
ORACLES = {
    "expression": "crash,differential,conformance",
    "predicate": "crash,tlp,norec",
}
STREAM = 1_000

#: sha256 of ``json.dumps(pipeline.export_state())`` at the end of a duckdb
#: campaign at budget 1,000 with the family's oracle set
PINNED_STATE = {
    "expression": "d5d29f975afec073565bc3ce0b018bede8540086f6072eb89b8e5dd9fff2c684",
    "predicate": "e1302628acee182f48a6e3e5562fce6269952702a47acb1836008054cfd7f537",
}


def _stream(family):
    """``(outcome, case, index)`` for the first STREAM statements of a
    duckdb campaign in *family*: the seed replay, then generated cases."""
    dialect = dialect_by_name("duckdb")
    build_pipeline(dialect, ORACLES[family])  # installs the logic flaws
    runner = Runner(
        dialect, bootstrap_sql=TABLE_SETUP if family == "predicate" else ()
    )
    runner.capture_fingerprints = True
    seeds = SeedCollector(dialect).collect()
    cases = [
        (f"SELECT {seed.sql};", CaseInfo("seed", seed.function, seed.family))
        for seed in seeds
    ]
    engine = PatternEngine(seeds, statement_family=family)
    cases.extend(
        (case.sql, CaseInfo(case.pattern, case.seed_function, case.seed_family))
        for case in islice(engine.generate_all(), STREAM - len(cases))
    )
    stream = [(runner.run(sql), info, index) for index, (sql, info) in enumerate(cases)]
    runner.close()
    return stream


def _oracle(name, stream=()):
    """A fresh *name* oracle, set up as a campaign would, fed *stream*."""
    family = FAMILY[name]
    oracle = build_pipeline(dialect_by_name("duckdb"), ORACLES[family]).get(name)
    for outcome, case, index in stream:
        oracle.observe(outcome, case, index)
    return oracle


def _dump(oracle):
    return json.dumps(oracle.export_state())


@pytest.fixture(scope="module")
def streams():
    return {family: _stream(family) for family in ORACLES}


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_restore_and_three_way_merge_equal_the_serial_state(name, streams):
    stream = streams[FAMILY[name]]
    serial = _oracle(name, stream)
    assert serial.findings(), "the stream should produce findings"
    state = _dump(serial)
    restored = _oracle(name)
    restored.restore_state(json.loads(state))
    assert _dump(restored) == state
    third = len(stream) // 3
    parts = [stream[:third], stream[third:2 * third], stream[2 * third:]]
    merged = _oracle(name)
    # reversed: the merge must replay global stream order, not shard order
    merged.merge([_oracle(name, part).export_state() for part in reversed(parts)])
    assert _dump(merged) == state


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_findings_round_trip_with_attribution(name, streams):
    findings = _oracle(name, streams[FAMILY[name]]).findings()
    assert any(finding.attribution is not None for finding in findings)
    for finding in findings:
        data = finding.to_dict()
        assert finding.attribution_field not in data
        again = type(finding).from_dict(json.loads(json.dumps(data)))
        assert again == finding
        assert again.attribution == finding.attribution


@pytest.mark.parametrize("family", sorted(PINNED_STATE))
def test_saved_pipeline_state_is_pinned(family, monkeypatch):
    pipelines = []
    build = campaign.build_pipeline

    def recording_build(*args, **kwargs):
        pipelines.append(build(*args, **kwargs))
        return pipelines[-1]

    monkeypatch.setattr(campaign, "build_pipeline", recording_build)
    run_campaign(
        "duckdb", budget=1_000, statement_family=family, oracles=ORACLES[family]
    )
    (pipeline,) = pipelines
    state = json.dumps(pipeline.export_state())
    assert hashlib.sha256(state.encode()).hexdigest() == PINNED_STATE[family]


def _quarantined_seed(dialect):
    seed = SeedCollector(dialect_by_name(dialect)).collect()[0]
    return SandboxConfig(quarantine=(f"SELECT {seed.sql};",))


#: each stream fills every tally section it can: injected and absorbed
#: faults; containment skips and the sandbox supervisor's counters
TALLY_STREAMS = {
    "faulted-duckdb": lambda: CampaignConfig(
        dialect="duckdb", budget=1_500, faults="default", fault_seed=1
    ),
    "sandboxed-quarantined-seed": lambda: CampaignConfig(
        dialect="mariadb", budget=600, sandbox=_quarantined_seed("mariadb")
    ),
}


def _dump_tally(tally):
    return json.dumps(tally.export(), sort_keys=True)


@pytest.mark.parametrize("name", sorted(TALLY_STREAMS))
def test_tally_round_trip_and_three_way_merge(name):
    config = TALLY_STREAMS[name]()
    serial = run_campaign(config=config).tally
    if config.faults is not None:
        assert serial.faults["flaky_crashes"] == serial.outcomes["flaky"] > 0
    else:
        assert serial.outcomes["skipped"] >= 1
        assert set(serial.supervisor) == {"kills", "worker_deaths", "respawns"}
    assert sum(serial.outcomes.values()) == config.budget
    state = _dump_tally(serial)
    restored = Tally()
    restored.restore(json.loads(state))
    assert _dump_tally(restored) == state
    # the parent's seed phase plus three shards, summed
    sharded = run_campaign(config=config.replace(jobs=3)).tally
    assert _dump_tally(sharded) == state
