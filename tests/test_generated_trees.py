"""Every generated statement's tree is exactly the parse of its text.

A campaign hands the runner each case's ``statement`` tree, and the
engine executes that tree instead of lexing and parsing the case's
``sql``.  That is sound only while, for every case,
``parse_statements(case.sql) == [case.statement]``: the tree then runs
exactly what the text would have.  A text that fails to lex or parse
used to be an ``error`` outcome, and its tree would now run instead, so
no case text may fail either.

The check walks a campaign's real statement stream (the seed phase's
``SELECT <seed>;`` statements, then the generated cases), shaped by the
result types a real seed phase observes.  The tier-1 tests check the
first 3,000 positions of each of the 14 streams (7 dialects x 2
statement families); run as a script, the module checks every position
of all 14 full streams (about 3 minutes on 2 vCPUs)::

    PYTHONPATH=src python tests/test_generated_trees.py

Generated trees share nodes with the seeds and with each other, across
statements, so nothing that runs them may write through them: a
campaign with every oracle of a family leaves every seed's expression
as it found it.
"""

from __future__ import annotations

import copy
import sys
from typing import Iterator, List, Optional, Tuple

import pytest

from repro.core.campaign import Campaign, Stream
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.patterns import GeneratedCase
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.sqlast import LexError, ParseError, parse_statements

FAMILIES = ("expression", "predicate")

#: stream positions the tier-1 tests check per (dialect, family)
TIER1_POSITIONS = 3_000

DIALECTS = [cls.name for cls in all_dialect_classes()]


def stream_cases(
    name: str, family: str, positions: Optional[int] = None
) -> Iterator[Tuple[int, GeneratedCase]]:
    """``(position, case)`` for the first *positions* positions of the
    (*name*, *family*) campaign stream; ``None`` walks all of it."""
    dialect = dialect_by_name(name)
    seeds = SeedCollector(dialect).collect()
    # the seed phase alone: a campaign whose budget ends with the seeds
    seed_phase = Campaign(dialect, config=CampaignConfig(
        dialect=name, budget=len(seeds), statement_family=family,
    ))
    seed_phase.run()
    return_types = seed_phase.stream.return_types
    budget = sys.maxsize if positions is None else positions
    campaign = Campaign(dialect, config=CampaignConfig(
        dialect=name, budget=budget, statement_family=family,
    ))
    stream = Stream(campaign, 0, None, (dict(return_types), None))
    try:
        yield from stream.share()
    finally:
        stream.runner.close()


def mismatches(
    name: str, family: str, positions: Optional[int] = None
) -> Tuple[int, List[Tuple[int, str, str]]]:
    """How many cases were checked, and ``(position, sql, problem)`` for
    every case whose text does not parse to exactly its tree."""
    checked = 0
    bad: List[Tuple[int, str, str]] = []
    for position, case in stream_cases(name, family, positions):
        checked += 1
        try:
            parsed = parse_statements(case.sql)
        except (LexError, ParseError, RecursionError) as exc:
            bad.append((position, case.sql, f"does not parse: {exc}"))
            continue
        if parsed != [case.statement]:
            bad.append((position, case.sql, "tree differs from its parse"))
    return checked, bad


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", DIALECTS)
def test_tree_is_the_parse_of_the_text(name, family):
    checked, bad = mismatches(name, family, TIER1_POSITIONS)
    assert checked == TIER1_POSITIONS
    assert bad == []


ORACLES_BY_FAMILY = {
    "expression": "crash,differential,conformance",
    "predicate": "crash,tlp,norec",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_a_campaign_never_writes_through_shared_trees(family):
    dialect = dialect_by_name("duckdb")
    before = copy.deepcopy(SeedCollector(dialect).collect())
    campaign = Campaign(dialect, config=CampaignConfig(
        dialect="duckdb", budget=2_000, statement_family=family,
        oracles=ORACLES_BY_FAMILY[family],
    ))
    campaign.run()
    seeds = campaign.stream.seeds
    assert len(seeds) == len(before)
    for seed, copied in zip(seeds, before):
        assert seed.expression == copied.expression, seed.sql


def main() -> int:
    failed = 0
    for name in DIALECTS:
        for family in FAMILIES:
            checked, bad = mismatches(name, family)
            failed += len(bad)
            print(f"{name:12} {family:10} {checked:8,} cases, "
                  f"{len(bad)} mismatches", flush=True)
            for position, sql, problem in bad[:5]:
                print(f"  position {position}: {problem}: {sql[:160]}")
    print("ok" if not failed else f"FAILED: {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
