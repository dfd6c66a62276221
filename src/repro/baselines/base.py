"""Shared driver for the baseline DBMS-testing tools (§7.5).

The comparison tools are re-implemented at the level that matters for
Tables 5 and 6: *what queries they generate*.  Each tool exposes the
dialects it supports (mirroring the paper: SQUIRREL → PostgreSQL, MySQL,
MariaDB; SQLsmith → PostgreSQL, MonetDB; SQLancer → PostgreSQL, MySQL,
MariaDB, ClickHouse) and a query stream; the driver executes the stream
under the same budget, runner, and oracle as SOFT, so coverage and
function-trigger numbers are measured identically across tools.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set

from ..core.oracles import CrashOracle, DiscoveredBug
from ..core.runner import Runner
from ..dialects import dialect_by_name
from ..dialects.base import Dialect


@dataclass
class ToolResult:
    """Outcome of one tool × dialect run (the Tables 5/6 cell)."""

    tool: str
    dialect: str
    queries_executed: int = 0
    triggered_functions: Set[str] = field(default_factory=set)
    branch_coverage: int = 0
    bugs: List[DiscoveredBug] = field(default_factory=list)
    logic_reports: int = 0  # SQLancer-style logic-oracle violations
    outcomes: dict = field(default_factory=dict)


class BaselineTool:
    """Interface of a baseline query generator."""

    name = "baseline"
    #: dialect names this tool supports, per the paper's §7.5
    supported_dialects: Sequence[str] = ()

    def supports(self, dialect: Dialect) -> bool:
        return dialect.name in self.supported_dialects

    def prepare(self, dialect: Dialect, rng: random.Random) -> None:
        """Inspect the target (catalog introspection, seed loading...)."""

    def queries(self, dialect: Dialect, rng: random.Random) -> Iterator[str]:
        """An unbounded stream of generated statements."""
        raise NotImplementedError

    def check_result(self, sql: str, outcome) -> Optional[str]:
        """Tool-specific oracle hook (e.g. PQS containment); returns a
        violation description or None."""
        return None


def run_tool(
    tool: BaselineTool,
    dialect_name: str,
    budget: int,
    enable_coverage: bool = False,
    seed: int = 0,
) -> ToolResult:
    """Run *tool* against a dialect under a query budget."""
    dialect = dialect_by_name(dialect_name)
    rng = random.Random(seed)
    result = ToolResult(tool=tool.name, dialect=dialect.name)
    if not tool.supports(dialect):
        return result
    runner = Runner(dialect, enable_coverage=enable_coverage)
    oracle = CrashOracle(dialect.name)
    tool.prepare(dialect, rng)
    stream = tool.queries(dialect, rng)
    for sql in stream:
        if runner.tally.executed >= budget:
            break
        outcome = runner.run(sql)
        result.outcomes[outcome.kind] = result.outcomes.get(outcome.kind, 0) + 1
        if outcome.kind == "crash" and outcome.crash is not None:
            oracle.observe_crash(outcome.crash, sql, tool.name, runner.tally.executed)
        violation = tool.check_result(sql, outcome)
        if violation is not None:
            result.logic_reports += 1
    result.queries_executed = runner.tally.executed
    result.triggered_functions = runner.triggered_functions
    result.branch_coverage = runner.branch_coverage
    result.bugs = list(oracle.bugs)
    return result


# -- shared random-value helpers --------------------------------------------
_WORDS = ("apple", "pear", "plum", "kiwi", "melon", "grape", "fig", "lime")


def random_int_literal(rng: random.Random) -> str:
    return str(rng.randint(1, 100))


def random_number_literal(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return f"{rng.uniform(0.5, 99.5):.2f}"
    return random_int_literal(rng)


def random_string_literal(rng: random.Random) -> str:
    word = rng.choice(_WORDS)
    return "'" + word[: rng.randint(1, len(word))] + "'"


def random_scalar_literal(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return random_number_literal(rng)
    if roll < 0.9:
        return random_string_literal(rng)
    return "NULL"
