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
injecting infrastructure faults, and a law verdict must come from
deterministic, interference-free executions.  Each arm keeps its own
optimizer configuration for its whole life, so the reference arm never
shares a server with the optimized one.

False-positive discipline comes from :mod:`.guards`: statements calling
impure or ``system``/``sequence`` functions are skipped — the
per-statement RNG is keyed on statement text, so a partition variant of
an impure call legitimately draws differently.  An arm that raises an SQL
error skips the statement (strictness is the conformance oracle's
business); an arm that crashes is rebuilt and the statement skipped
(crashes are the crash oracle's).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_predicate_flaw
from ...engine.connection import ServerCrashed
from ...engine.errors import SQLError
from ...engine.fingerprint import (
    ResultFingerprint,
    divergence_class,
    fingerprint_result,
)
from ...sqlast import (
    Expr,
    IsNullExpr,
    Select,
    SetOp,
    Statement,
    UnaryOp,
    parse_statement,
    to_sql,
)
from ...sqlast.lexer import LexError
from ...sqlast.parser import ParseError
from ..runner import Outcome
from ..tables import BASE_QUERY, PREDICATE_PREFIX, TABLE_SETUP
from .base import DIAGNOSTICS, CaseInfo, Finding, Oracle
from .guards import called_functions, parsed_statements, replay_safe

#: report labels per divergence class (same vocabulary as the differential
#: oracle — a broken law is a wrong result, whoever noticed it)
_LABELS = {"cardinality": "WRONGCARD", "type": "WRONGTYPE", "value": "WRONG"}

#: the select head shared by the base query and every partition variant
_HEAD = BASE_QUERY[:-1]  # "SELECT k, i, s, d FROM fuzz_t"

#: ``optimizer_passes`` value that turns optimization off (the NoREC
#: reference arm)
SUPPRESS_PASSES = "none"


def tlp_partition_statement(head: str, predicate: str) -> str:
    """The text of the three-way partition reunion for *predicate*.

    ``head`` is a complete ``SELECT ... FROM ...`` without a WHERE clause;
    the statement unions the IS-TRUE, IS-FALSE, and IS-NULL camps with
    ``UNION ALL`` so multiset cardinality survives.  It parses to
    :func:`tlp_union`'s tree, which is what the arms execute; the text only
    keys the arm's per-statement RNG.
    """
    return (
        f"{head} WHERE ({predicate}) "
        f"UNION ALL {head} WHERE NOT ({predicate}) "
        f"UNION ALL {head} WHERE ({predicate}) IS NULL;"
    )


def tlp_union(stmt: Select) -> SetOp:
    """The three-way partition reunion of *stmt*, built as a tree.

    Equal to the parse of ``tlp_partition_statement(head, predicate)``
    for *stmt*'s head and WHERE, without lexing text that repeats the
    predicate three times.  The camps share *stmt*'s head and predicate
    nodes instead of copying them: execution only reads a tree (the
    optimizer rewrites a copy), so running the union never changes
    *stmt*.
    """
    predicate = stmt.where

    def camp(where: Expr) -> Select:
        return replace(stmt, where=where)

    true_or_false = SetOp(
        "UNION", camp(predicate), camp(UnaryOp("NOT", predicate)), all=True
    )
    return SetOp("UNION", true_or_false, camp(IsNullExpr(predicate)), all=True)


def _partitionable(stmt: Statement) -> bool:
    """True for a WHERE-bearing plain SELECT over a table."""
    return isinstance(stmt, Select) and stmt.where is not None and bool(stmt.from_)


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

    def lookup_attribution(self) -> Optional[LogicFlaw]:
        return find_predicate_flaw(self.dbms, self.oracle)

    def one_liner(self) -> str:
        law = "partition law" if self.oracle == "tlp" else "optimization identity"
        return (
            f"[{self.bug_type_label}] {self.oracle}: {law} broken "
            f"via {self.pattern}: {self.sql}"
        )


class _MetamorphicOracle(Oracle):
    """Shared harness: arm servers and FP guards."""

    finding_class = MetamorphicFinding
    counters = DIAGNOSTICS
    #: finding discriminator and PREDICATE_KINDS entry ("tlp" | "norec")
    oracle_kind = ""

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect.name)
        self.dialect = dialect
        # arm key -> (server, connection); built on first use so a campaign
        # that never emits a predicate statement pays nothing
        self._arms: Dict[str, Tuple] = {}

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
        pair = self._check(outcome)
        if pair is None:
            self.skipped += 1
            return None
        self.compared += 1
        own_fp, variant_fp = pair
        divergence = divergence_class(own_fp, variant_fp)
        if divergence is None:
            return None
        return self._keep(
            MetamorphicFinding(
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
        )

    def _check(
        self, outcome: Outcome
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        """Both arms of the law for ``outcome.sql``, or ``None`` to skip."""
        raise NotImplementedError

    # -- arm lifecycle ------------------------------------------------------
    def _arm(self, key: str) -> Tuple:
        arm = self._arms.get(key)
        if arm is None:
            server = self.dialect.create_server()
            if key == "ref":
                server.ctx.set_config("optimizer_passes", SUPPRESS_PASSES)
            conn = server.connect()
            for ddl in TABLE_SETUP:
                conn.execute(ddl)
            self._arms[key] = arm = (server, conn)
        return arm

    def _fingerprint(
        self,
        key: str,
        sql: str,
        statements: Optional[Sequence[Statement]] = None,
    ) -> Optional[ResultFingerprint]:
        """Fingerprint of *sql* on arm *key*; ``None`` when the arm cannot
        answer.  *statements*, when given, are *sql*'s parse: the arm runs
        them as they are (shared trees are only read) instead of parsing."""
        try:
            server, conn = self._arm(key)
        except (SQLError, ServerCrashed, RecursionError):
            self._arms.pop(key, None)
            return None
        server.ctx.clear_sequence_state()
        try:
            # rendering is inside: a result can be too large to render
            return fingerprint_result(conn.execute_parsed(sql, statements))
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


class TLPOracle(_MetamorphicOracle):
    """Checks that the three-way predicate partition reunites the table."""

    name = "tlp"
    oracle_kind = "tlp"

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect)
        self._base_fp: Optional[ResultFingerprint] = None

    def _check(
        self, outcome: Outcome
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        base_fp = self._base_fingerprint()
        if base_fp is None:
            return None
        statements = parsed_statements(outcome)
        if len(statements) != 1 or not _partitionable(statements[0]):
            return None
        union = tlp_union(statements[0])
        # the arm still gets the union's text: it keys the statement RNG
        sql = outcome.sql
        predicate = sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip()
        union_fp = self._fingerprint(
            "opt", tlp_partition_statement(_HEAD, predicate), [union]
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
        self, outcome: Outcome
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        # both arms run the one parse: the optimized arm rewrites a copy
        # (optimize_statement never changes its input), the reference arm
        # executes the tree as parsed
        statements = parsed_statements(outcome)
        if not statements:
            return None
        opt_fp = self._fingerprint("opt", outcome.sql, statements)
        if opt_fp is None:
            return None
        ref_fp = self._fingerprint("ref", outcome.sql, statements)
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
    The minimizer rewrites statement text while shrinking, so the
    predicate comes from each candidate's own parse, never from the
    generator's exact rendering.
    """
    try:
        stmt = parse_statement(sql)
    except (ParseError, LexError, RecursionError):
        return None
    if not _partitionable(stmt):
        return None
    bare = replace(stmt, where=None)
    head = to_sql(bare)
    base_fp = fingerprint_result(conn.execute_parsed(f"{head};", [bare]))
    union_fp = fingerprint_result(
        conn.execute_parsed(
            tlp_partition_statement(head, to_sql(stmt.where)), [tlp_union(stmt)]
        )
    )
    return divergence_class(base_fp, union_fp)


def norec_divergence(opt_conn, ref_conn, sql: str) -> Optional[str]:
    """Divergence class between optimized and suppressed runs of *sql*."""
    opt_fp = fingerprint_result(opt_conn.execute(sql))
    ref_fp = fingerprint_result(ref_conn.execute(sql))
    return divergence_class(opt_fp, ref_fp)
