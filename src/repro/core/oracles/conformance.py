"""Error-conformance oracle: documented calls must not error.

A dialect's function reference is a promise: the documented example of a
function is, by definition, a well-defined call.  The conformance oracle
watches for statements that (a) are the exact rendering of a documented
example and (b) come back as an *error* — the signature of an over-strict
validation bug (the ``"strict"`` logic-flaw kind), where a range or
argument check rejects inputs the documentation says are fine.

The documented-statement table is built the same way the seed collector
builds seeds — parse the example expression, re-render with ``to_sql``,
wrap in ``SELECT ...;`` — so membership is an exact string match against
statements the campaign actually executes.  Impure functions and the
``system``/``sequence`` families are excluded: their examples can error
for environmental reasons (no sequence defined yet, no lock held) that say
nothing about conformance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_logic_flaw
from ...sqlast import FuncCall, ParseError, parse_expression, to_sql
from ...sqlast.lexer import LexError
from ..runner import Outcome
from .base import CaseInfo, Finding, Oracle
from .guards import INCOMPARABLE_FAMILIES

#: collapse counters/limits inside error messages so "beyond 10" and
#: "beyond 20" dedupe as one defect
_DIGIT_RE = re.compile(r"\d+")

#: families whose documented examples may error for environmental reasons
_EXEMPT_FAMILIES = INCOMPARABLE_FAMILIES


def _normalize_message(message: str) -> str:
    return _DIGIT_RE.sub("N", message.lower()).strip()


@dataclass
class ConformanceFinding(Finding):
    """A documented example that errored."""

    dbms: str
    function: str                # the documented function (lower-case)
    pattern: str                 # where the statement came from ("seed", ...)
    sql: str
    message: str                 # the error text
    query_index: int             # 1-based global statement position
    flaw: Optional[LogicFlaw] = field(default=None, compare=False)

    kind = "conformance"

    @property
    def key(self) -> Tuple:
        return (self.function, _normalize_message(self.message))

    @property
    def bug_type_label(self) -> str:
        return "STRICT"

    def lookup_attribution(self) -> Optional[LogicFlaw]:
        return find_logic_flaw(self.dbms, self.function, kind="strict")

    def one_liner(self) -> str:
        return (
            f"[STRICT] {self.function} via {self.pattern}: "
            f"{self.sql} -> {self.message}"
        )


class ErrorConformanceOracle(Oracle):
    """Flags errors on statements the documentation declares well-defined."""

    name = "conformance"
    finding_class = ConformanceFinding

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect.name)
        self._documented = self._documented_statements(dialect)

    @staticmethod
    def _documented_statements(dialect: Dialect) -> Dict[str, str]:
        """Exact documented statements -> documented function name.

        Iterates names in sorted order so aliases sharing an examples list
        resolve deterministically (last name wins, matching how crash
        attribution resolves aliased functions).
        """
        documented: Dict[str, str] = {}
        for name in sorted(dialect.registry.names()):
            definition = dialect.registry.lookup(name)
            if not definition.pure or definition.family in _EXEMPT_FAMILIES:
                continue
            for example in definition.examples:
                try:
                    expr = parse_expression(example)
                except (ParseError, LexError, RecursionError):
                    continue
                if not isinstance(expr, FuncCall):
                    continue
                documented[f"SELECT {to_sql(expr)};"] = definition.name
        return documented

    # ------------------------------------------------------------------
    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> Optional[Finding]:
        if outcome.kind != "error":
            return None
        function = self._documented.get(outcome.sql)
        if function is None:
            return None
        # infrastructure errors (exhausted reconnects under fault injection)
        # are resilience events, not conformance verdicts
        if "connection" in outcome.message.lower():
            return None
        return self._keep(
            ConformanceFinding(
                dbms=self.dbms,
                function=function,
                pattern=case.pattern,
                sql=outcome.sql,
                message=outcome.message,
                query_index=index + 1,
            )
        )
