"""Shared false-positive guards for result-comparing oracles.

Every oracle that judges a statement by *re-executing* something — the
differential oracle replaying on peers, the metamorphic oracles running
partition variants or an optimization-suppressed arm — faces the same
trap: a statement whose result legitimately varies between executions
will diverge without any bug.  The per-statement RNG is keyed on the
statement text, so even "the same" impure call re-rendered inside a
variant draws differently; and ``system``/``sequence`` functions answer
from ambient state no replay can reproduce.

This module is the single home for that exclusion logic, so the
differential, conformance, TLP, and NoREC oracles cannot drift apart on
what counts as replay-safe.  It also holds the one parse of a statement
that every re-executing oracle replays (:func:`parsed_statements`).
"""

from __future__ import annotations

import re
from typing import List, Sequence

from ...engine import connection
from ...sqlast import Statement
from ...sqlast.lexer import LexError
from ...sqlast.parser import ParseError
from ..runner import Outcome

#: ``name(`` shapes — how an oracle learns which functions a statement calls
CALL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")

#: families whose results depend on ambient state (session, sequences) and
#: therefore legitimately differ between executions or across dialects even
#: when the documentation matches word for word
INCOMPARABLE_FAMILIES = frozenset({"system", "sequence"})


def called_functions(sql: str, registry) -> List[str]:
    """Called names that exist in *registry*, in first-mention order."""
    out: List[str] = []
    for raw in CALL_RE.findall(sql):
        name = raw.lower()
        if name in out:
            continue
        if registry.contains(name):
            out.append(name)
    return out


def replay_safe(called: Sequence[str], registry) -> bool:
    """True when every called function gives the same answer on re-execution.

    A function qualifies when it is pure and outside the incomparable
    families; any impure, ``system``, or ``sequence`` call poisons the
    whole statement for comparison purposes.
    """
    for name in called:
        definition = registry.lookup(name)
        if not definition.pure or definition.family in INCOMPARABLE_FAMILIES:
            return False
    return True


def parsed_statements(outcome: Outcome) -> Sequence[Statement]:
    """``outcome.sql`` parsed once per outcome, for every oracle that asks.

    An in-process run hands over the parse it executed
    (``Outcome.statements``), so only sandboxed outcomes are parsed here.
    The parse goes through ``engine.connection.parse_statements``, the
    engine's own entry point, looked up at call time so that anything
    wrapping it (``benchmarks/e2e/trace.py``) sees this parse too.  Text
    that does not parse, or nests too deep, gives an empty list: nothing
    can be replayed from it.
    """
    statements = outcome.statements
    if statements is None:
        try:
            statements = connection.parse_statements(outcome.sql)
        except (LexError, ParseError, RecursionError):
            statements = []
        outcome.statements = statements
    return statements
