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
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_logic_flaw
from ...sqlast import FuncCall, ParseError, parse_expression, to_sql
from ...sqlast.lexer import LexError
from ..runner import Outcome
from .base import CaseInfo, Finding, Oracle, check_state_version
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

    @property
    def attribution(self) -> Optional[LogicFlaw]:
        return self.flaw

    def one_liner(self) -> str:
        return (
            f"[STRICT] {self.function} via {self.pattern}: "
            f"{self.sql} -> {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dbms": self.dbms,
            "function": self.function,
            "pattern": self.pattern,
            "sql": self.sql,
            "message": self.message,
            "query_index": self.query_index,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ConformanceFinding":
        return cls(
            dbms=data["dbms"],
            function=data["function"],
            pattern=data["pattern"],
            sql=data["sql"],
            message=data["message"],
            query_index=int(data["query_index"]),
            flaw=find_logic_flaw(data["dbms"], data["function"], kind="strict"),
        )


ORACLE_STATE_VERSION = 1
_STATE_KEYS = ("dbms", "findings")


class ErrorConformanceOracle(Oracle):
    """Flags errors on statements the documentation declares well-defined."""

    name = "conformance"

    def __init__(self, dialect: Dialect) -> None:
        self.dbms = dialect.name
        self._documented = self._documented_statements(dialect)
        self._findings: List[ConformanceFinding] = []
        self._seen: Set[Tuple] = set()

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
        finding = ConformanceFinding(
            dbms=self.dbms,
            function=function,
            pattern=case.pattern,
            sql=outcome.sql,
            message=outcome.message,
            query_index=index + 1,
        )
        if finding.key in self._seen:
            return None
        finding.flaw = find_logic_flaw(self.dbms, function, kind="strict")
        self._seen.add(finding.key)
        self._findings.append(finding)
        return finding

    def findings(self) -> List[Finding]:
        return list(self._findings)

    # -- checkpoint/merge ---------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "version": ORACLE_STATE_VERSION,
            "dbms": self.dbms,
            "findings": [f.to_dict() for f in self._findings],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        check_state_version(
            state, ORACLE_STATE_VERSION, _STATE_KEYS, "conformance oracle"
        )
        self._findings = [
            ConformanceFinding.from_dict(row) for row in state.get("findings", [])
        ]
        self._seen = {f.key for f in self._findings}

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Replay shard findings in global stream order (first keeps)."""
        collected = list(self._findings)
        for state in shard_states:
            check_state_version(
                state, ORACLE_STATE_VERSION, _STATE_KEYS, "conformance oracle"
            )
            collected.extend(
                ConformanceFinding.from_dict(row)
                for row in state.get("findings", [])
            )
        collected.sort(key=lambda f: f.query_index)
        self._findings = []
        self._seen = set()
        for finding in collected:
            if finding.key in self._seen:
                continue
            self._seen.add(finding.key)
            self._findings.append(finding)
