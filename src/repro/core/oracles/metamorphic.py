"""Metamorphic logic-bug oracles: TLP and NoREC over the seeded table.

Differential testing needs a second system to disagree with; metamorphic
testing needs only a law the system must obey against itself.  Both
oracles here watch the predicate statement family
(``CampaignConfig(statement_family="predicate")`` — ``SELECT ... FROM
fuzz_t WHERE <p>``) and check one law each:

* **TLP** (ternary logic partitioning): any predicate splits the rows of
  a table into exactly three camps — ``p`` IS TRUE, ``p`` IS FALSE, and
  ``p`` IS NULL.  The multiset union of the three partition queries must
  therefore equal the unfiltered table, row for row.  A WHERE clause or
  null-test that mishandles three-valued logic breaks the reunion.
* **NoREC** (non-optimizing reference engine construction): the same
  statement executed with the optimizer suppressed
  (``SET optimizer_passes = 'none'`` — see
  :func:`repro.engine.optimizer.optimize_statement`) must return the
  same rows as the optimized plan.  A rewrite that is not
  semantics-preserving — the classic being a constant fold that loses
  NULL — shows up as a fingerprint divergence between the two arms.

Both laws are checked on **oracle-owned servers** built from the campaign
dialect, not on the campaign's own connection: the campaign runner may be
injecting infrastructure faults or caching plans, and a law verdict must
come from deterministic, interference-free executions.  Arm servers run
without a statement cache (variant texts execute once each, and a plan
cached under one optimizer configuration must never serve another).

False-positive discipline comes from :mod:`.guards`: statements calling
impure or ``system``/``sequence`` functions are skipped — the
per-statement RNG is keyed on statement text, so a partition variant of
an impure call legitimately draws differently.  An arm that raises an SQL
error skips the statement (strictness is the conformance oracle's
business); an arm that crashes is rebuilt and the statement skipped
(crashes are the crash oracle's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_predicate_flaw
from ...engine.connection import ServerCrashed
from ...engine.errors import SQLError
from ...engine.fingerprint import (
    ResultFingerprint,
    divergence_class,
    fingerprint_result,
)
from ...sqlast import Select, parse_statement, to_sql
from ...sqlast.lexer import LexError
from ...sqlast.parser import ParseError
from ...sqlast.visitor import clone
from ..runner import Outcome
from ..tables import BASE_QUERY, PREDICATE_PREFIX, TABLE_SETUP
from .base import CaseInfo, Finding, Oracle, check_state_version
from .guards import called_functions, replay_safe

#: report labels per divergence class (same vocabulary as the differential
#: oracle — a broken law is a wrong result, whoever noticed it)
_LABELS = {"cardinality": "WRONGCARD", "type": "WRONGTYPE", "value": "WRONG"}

#: the select head shared by the base query and every partition variant
_HEAD = BASE_QUERY[:-1]  # "SELECT k, i, s, d FROM fuzz_t"

#: ``optimizer_passes`` value that turns optimization off (the NoREC
#: reference arm)
SUPPRESS_PASSES = "none"


def tlp_partition_statement(head: str, predicate: str) -> str:
    """The three-way partition reunion for *predicate* over *head*.

    ``head`` is a complete ``SELECT ... FROM ...`` without a WHERE clause;
    the returned statement unions the IS-TRUE, IS-FALSE, and IS-NULL camps
    with ``UNION ALL`` so multiset cardinality survives.
    """
    return (
        f"{head} WHERE ({predicate}) "
        f"UNION ALL {head} WHERE NOT ({predicate}) "
        f"UNION ALL {head} WHERE ({predicate}) IS NULL;"
    )


def split_predicate(sql: str) -> Optional[Tuple[str, str]]:
    """``(head, predicate)`` for a single-table SELECT, via the AST.

    The minimizer rewrites statement text while shrinking, so anything
    that wants the predicate out of a *reduced* candidate must re-parse
    rather than match the generator's exact rendering.  Returns ``None``
    for anything that is not a WHERE-bearing plain SELECT.
    """
    try:
        stmt = parse_statement(sql)
    except (ParseError, LexError, RecursionError):
        return None
    if not isinstance(stmt, Select) or stmt.where is None or not stmt.from_:
        return None
    predicate = to_sql(stmt.where)
    trimmed = clone(stmt)
    trimmed.where = None
    return to_sql(trimmed), predicate


@dataclass
class MetamorphicFinding(Finding):
    """One violated metamorphic law on the campaign dialect."""

    dbms: str
    function: str                # seed function inside the predicate
    oracle: str                  # "tlp" | "norec"
    divergence: str              # cardinality | type | value
    pattern: str                 # generation pattern of the statement
    sql: str
    query_index: int             # 1-based global statement position
    own_digest: str              # base query (TLP) / optimized arm (NoREC)
    variant_digest: str          # partition union (TLP) / suppressed arm
    flaw: Optional[LogicFlaw] = field(default=None, compare=False)

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.oracle

    @property
    def key(self) -> Tuple:
        # the law is a property of the engine, not of the statement that
        # exposed it: re-breaking the same law the same way through another
        # predicate is not news
        return (self.oracle, self.divergence)

    @property
    def bug_type_label(self) -> str:
        return _LABELS[self.divergence]

    @property
    def attribution(self) -> Optional[LogicFlaw]:
        return self.flaw

    def one_liner(self) -> str:
        law = "partition law" if self.oracle == "tlp" else "optimization identity"
        return (
            f"[{self.bug_type_label}] {self.oracle}: {law} broken "
            f"via {self.pattern}: {self.sql}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dbms": self.dbms,
            "function": self.function,
            "oracle": self.oracle,
            "divergence": self.divergence,
            "pattern": self.pattern,
            "sql": self.sql,
            "query_index": self.query_index,
            "own_digest": self.own_digest,
            "variant_digest": self.variant_digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetamorphicFinding":
        return cls(
            dbms=data["dbms"],
            function=data["function"],
            oracle=data["oracle"],
            divergence=data["divergence"],
            pattern=data["pattern"],
            sql=data["sql"],
            query_index=int(data["query_index"]),
            own_digest=data["own_digest"],
            variant_digest=data["variant_digest"],
            flaw=find_predicate_flaw(data["dbms"], data["oracle"]),
        )


ORACLE_STATE_VERSION = 1
_STATE_KEYS = ("dbms", "findings", "checked", "compared", "skipped")


class _MetamorphicOracle(Oracle):
    """Shared harness: arm servers, FP guards, checkpoint/merge."""

    #: finding discriminator and PREDICATE_KINDS entry ("tlp" | "norec")
    oracle_kind = ""

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect
        self.dbms = dialect.name
        self._findings: List[MetamorphicFinding] = []
        self._seen: Set[Tuple] = set()
        # arm key -> (server, connection); built on first use so a campaign
        # that never emits a predicate statement pays nothing
        self._arms: Dict[str, Tuple] = {}
        # diagnostics (merged additively across shards, never in signatures)
        self.checked = 0
        self.compared = 0
        self.skipped = 0

    # ------------------------------------------------------------------
    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> Optional[Finding]:
        if outcome.kind != "ok":
            return None
        sql = outcome.sql
        if not sql.startswith(PREDICATE_PREFIX):
            return None
        self.checked += 1
        registry = self.dialect.registry
        if not replay_safe(called_functions(sql, registry), registry):
            self.skipped += 1
            return None
        pair = self._check(sql)
        if pair is None:
            self.skipped += 1
            return None
        self.compared += 1
        own_fp, variant_fp = pair
        divergence = divergence_class(own_fp, variant_fp)
        if divergence is None:
            return None
        finding = MetamorphicFinding(
            dbms=self.dbms,
            function=case.function,
            oracle=self.oracle_kind,
            divergence=divergence,
            pattern=case.pattern,
            sql=sql,
            query_index=index + 1,
            own_digest=own_fp.digest,
            variant_digest=variant_fp.digest,
        )
        if finding.key in self._seen:
            return None
        # attribute only new findings: repeats of a broken law are common
        finding.flaw = find_predicate_flaw(self.dbms, self.oracle_kind)
        self._seen.add(finding.key)
        self._findings.append(finding)
        return finding

    def findings(self) -> List[Finding]:
        return list(self._findings)

    def _check(
        self, sql: str
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        """Both arms of the law for *sql*, or ``None`` to skip."""
        raise NotImplementedError

    # -- arm lifecycle ------------------------------------------------------
    def _arm(self, key: str) -> Tuple:
        arm = self._arms.get(key)
        if arm is None:
            server = self.dialect.create_server()
            # no statement cache: each variant text runs once, and a plan
            # cached under one optimizer configuration must never be
            # replayed under another
            server.stmt_cache = None
            if key == "ref":
                server.ctx.set_config("optimizer_passes", SUPPRESS_PASSES)
            conn = server.connect()
            for ddl in TABLE_SETUP:
                conn.execute(ddl)
            self._arms[key] = arm = (server, conn)
        return arm

    def _fingerprint(self, key: str, sql: str) -> Optional[ResultFingerprint]:
        try:
            server, conn = self._arm(key)
        except (SQLError, ServerCrashed, RecursionError):
            self._arms.pop(key, None)
            return None
        server.ctx.clear_sequence_state()
        try:
            # rendering is inside: a result can be too large to render
            return fingerprint_result(conn.execute(sql))
        except SQLError:
            # an erroring variant says nothing about the law — strictness
            # bugs are the conformance oracle's department
            return None
        except ServerCrashed:
            # dropped arms are rebuilt (tables and knobs included) on next
            # use; the crash itself belongs to the crash oracle
            self._arms.pop(key, None)
            return None
        except RecursionError:
            self._arms.pop(key, None)
            return None

    # -- checkpoint/merge ---------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "version": ORACLE_STATE_VERSION,
            "dbms": self.dbms,
            "findings": [f.to_dict() for f in self._findings],
            "checked": self.checked,
            "compared": self.compared,
            "skipped": self.skipped,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        check_state_version(
            state, ORACLE_STATE_VERSION, _STATE_KEYS, f"{self.name} oracle"
        )
        self._findings = [
            MetamorphicFinding.from_dict(row) for row in state.get("findings", [])
        ]
        self._seen = {f.key for f in self._findings}
        self.checked = int(state.get("checked", 0))
        self.compared = int(state.get("compared", 0))
        self.skipped = int(state.get("skipped", 0))

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Replay shard findings in global stream order (first keeps)."""
        collected = list(self._findings)
        for state in shard_states:
            check_state_version(
                state, ORACLE_STATE_VERSION, _STATE_KEYS, f"{self.name} oracle"
            )
            collected.extend(
                MetamorphicFinding.from_dict(row)
                for row in state.get("findings", [])
            )
            self.checked += int(state.get("checked", 0))
            self.compared += int(state.get("compared", 0))
            self.skipped += int(state.get("skipped", 0))
        collected.sort(key=lambda f: f.query_index)
        self._findings = []
        self._seen = set()
        for finding in collected:
            if finding.key in self._seen:
                continue
            self._seen.add(finding.key)
            self._findings.append(finding)


class TLPOracle(_MetamorphicOracle):
    """Checks that the three-way predicate partition reunites the table."""

    name = "tlp"
    oracle_kind = "tlp"

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect)
        self._base_fp: Optional[ResultFingerprint] = None

    def _check(
        self, sql: str
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        base_fp = self._base_fingerprint()
        if base_fp is None:
            return None
        predicate = sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip()
        if not predicate:
            return None
        union_fp = self._fingerprint(
            "opt", tlp_partition_statement(_HEAD, predicate)
        )
        if union_fp is None:
            return None
        return base_fp, union_fp

    def _base_fingerprint(self) -> Optional[ResultFingerprint]:
        # campaign statements never mutate fuzz_t, so the unfiltered side
        # of the law is one execution per oracle lifetime
        if self._base_fp is None:
            self._base_fp = self._fingerprint("opt", BASE_QUERY)
        return self._base_fp


class NoRECOracle(_MetamorphicOracle):
    """Checks the optimized plan against an optimization-suppressed run."""

    name = "norec"
    oracle_kind = "norec"

    def _check(
        self, sql: str
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        opt_fp = self._fingerprint("opt", sql)
        if opt_fp is None:
            return None
        ref_fp = self._fingerprint("ref", sql)
        if ref_fp is None:
            return None
        return opt_fp, ref_fp


# ---------------------------------------------------------------------------
# law checks over an arbitrary statement — the minimizer's probe surface
# ---------------------------------------------------------------------------
def tlp_divergence(conn, sql: str) -> Optional[str]:
    """Divergence class of the partition law for *sql* on *conn*.

    Raises ``SQLError``/``ServerCrashed`` through to the caller (the
    minimizer treats those candidates as uninteresting); returns ``None``
    when the statement has no extractable predicate or the law holds.
    """
    parts = split_predicate(sql)
    if parts is None:
        return None
    head, predicate = parts
    base_fp = fingerprint_result(conn.execute(f"{head};"))
    union_fp = fingerprint_result(
        conn.execute(tlp_partition_statement(head, predicate))
    )
    return divergence_class(base_fp, union_fp)


def norec_divergence(opt_conn, ref_conn, sql: str) -> Optional[str]:
    """Divergence class between optimized and suppressed runs of *sql*."""
    opt_fp = fingerprint_result(opt_conn.execute(sql))
    ref_fp = fingerprint_result(ref_conn.execute(sql))
    return divergence_class(opt_fp, ref_fp)
