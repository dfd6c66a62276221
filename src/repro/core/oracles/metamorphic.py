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
  NULL — shows up as a fingerprint divergence between the two runs.

Each oracle owns **one server** built from the campaign dialect, with the
``fuzz_t`` table seeded, and one optimizer configuration for its whole life:
TLP's server optimizes (it runs the base query and the IS-FALSE and IS-NULL
camps), NoREC's suppresses optimization (it runs the reference side).
Neither re-executes the statement itself: the campaign runner's own run
of it, on a server with the same dialect, flaw knobs and optimizer, is
TLP's IS-TRUE camp (``Outcome.rows``) and NoREC's optimized side
(``Outcome.fingerprint``).  It is interference-free even under
``--faults``: the fault injector either raises (hang, drop, flaky crash),
which makes the outcome something other than ``ok``, or only advances
the simulated clock (slow), so an ``ok`` result is a clean one.  A result
that cannot be fingerprinted (an unrenderable value) is skipped.

False-positive discipline comes from :mod:`.guards`: statements calling
impure or ``system``/``sequence`` functions are skipped — the
per-statement RNG is keyed on statement text, so a partition variant of
an impure call legitimately draws differently.  A statement that raises an
SQL error on the oracle's server is skipped (strictness is the conformance
oracle's business); a server that crashes is rebuilt and the statement
skipped (crashes are the crash oracle's).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_predicate_flaw
from ...engine.connection import ServerCrashed
from ...engine.errors import SQLError
from ...engine.executor import Result
from ...engine.fingerprint import (
    ResultFingerprint,
    divergence_class,
    fingerprint_result,
)
from ...sqlast import (
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

#: ``optimizer_passes`` value that turns optimization off (NoREC's
#: reference side)
SUPPRESS_PASSES = "none"


def tlp_camps_statement(head: str, predicate: str) -> str:
    """The IS-FALSE and IS-NULL camps of *predicate* under *head* (a
    ``SELECT ... FROM ...`` without WHERE), joined by ``UNION ALL``.  It
    parses to :func:`tlp_camps`'s tree, which TLP's server executes; the
    text only keys that server's per-statement RNG."""
    return (
        f"{head} WHERE NOT ({predicate}) "
        f"UNION ALL {head} WHERE ({predicate}) IS NULL;"
    )


def tlp_partition_statement(head: str, predicate: str) -> str:
    """The three-way partition reunion for *predicate*, the text of
    :func:`tlp_union`'s tree."""
    return (
        f"{head} WHERE ({predicate}) "
        f"UNION ALL {tlp_camps_statement(head, predicate)}"
    )


def tlp_camps(stmt: Select) -> SetOp:
    """*stmt*'s IS-FALSE and IS-NULL camps (*stmt* is the IS-TRUE one) as
    one ``UNION ALL``, built around *stmt*'s own head and predicate nodes.
    They stay shared through optimization (the optimizer rewrites
    copy-on-write) and execution only reads a tree, so running the camps
    never changes *stmt*."""
    predicate = stmt.where
    return SetOp(
        "UNION",
        replace(stmt, where=UnaryOp("NOT", predicate)),
        replace(stmt, where=IsNullExpr(predicate)),
        all=True,
    )


def tlp_union(stmt: Select) -> SetOp:
    """The three-way partition reunion of *stmt*: *stmt*, then the
    :func:`tlp_camps`, left-associated as the parse of its text is."""
    camps = tlp_camps(stmt)
    true_or_false = SetOp("UNION", stmt, camps.left, all=True)
    return SetOp("UNION", true_or_false, camps.right, all=True)


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
    own_digest: str              # base query (TLP) / the runner's run (NoREC)
    variant_digest: str          # runner's rows + camps / suppressed run
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
    """Shared harness: the oracle's own server and FP guards."""

    finding_class = MetamorphicFinding
    counters = DIAGNOSTICS
    #: finding discriminator and PREDICATE_KINDS entry ("tlp" | "norec")
    oracle_kind = ""
    #: ``optimizer_passes`` of the oracle's server; ``None`` keeps the
    #: dialect's optimizer on
    optimizer_passes: Optional[str] = None

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect.name)
        self.dialect = dialect
        # (server, connection); built on first use so a campaign that never
        # emits a predicate statement pays nothing
        self._server: Optional[Tuple] = None

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
        """Both sides of the law for ``outcome.sql``, or ``None`` to skip."""
        raise NotImplementedError

    # -- server lifecycle ---------------------------------------------------
    def _connect(self) -> Tuple:
        if self._server is None:
            server = self.dialect.create_server()
            if self.optimizer_passes is not None:
                server.ctx.set_config("optimizer_passes", self.optimizer_passes)
            conn = server.connect()
            for ddl in TABLE_SETUP:
                conn.execute(ddl)
            self._server = (server, conn)
        return self._server

    def _fingerprint(
        self, sql: str, statements: Optional[Sequence[Statement]] = None,
        rows: Sequence[List] = (),
    ) -> Optional[ResultFingerprint]:
        """Fingerprint of *rows* plus those of *sql* on the oracle's server;
        ``None`` when it cannot answer.  *statements*, when given, are
        *sql*'s parse: the server runs them as they are (shared trees are
        only read) instead of parsing."""
        try:
            server, conn = self._connect()
        except (SQLError, ServerCrashed, RecursionError):
            self._server = None
            return None
        server.ctx.clear_sequence_state()
        try:
            result = conn.execute_parsed(sql, statements)
            if rows:
                result = Result(rows=[*rows, *result.rows])
            # rendering is inside: a result can be too large to render
            return fingerprint_result(result)
        except SQLError:
            # an erroring variant says nothing about the law — strictness
            # bugs are the conformance oracle's department
            return None
        except (ServerCrashed, RecursionError):
            # a dropped server is rebuilt (table and knob included) on next
            # use; the crash itself belongs to the crash oracle
            self._server = None
            return None


class TLPOracle(_MetamorphicOracle):
    """Checks that the three-way predicate partition reunites the table.

    The runner's rows plus those of :func:`tlp_camps` on the oracle's
    server fingerprint like :func:`tlp_union`: on the family's fixed head
    ``SELECT k, i, s, d FROM fuzz_t`` the union's cast of each branch onto
    the first row's types (``Executor._unify_setop_rows``) is the identity,
    as each column has one declared type and NULLs and numeric pairs are
    never cast."""

    name = "tlp"
    oracle_kind = "tlp"
    #: the base query's fingerprint: campaign statements never mutate
    #: fuzz_t, so it is one execution per oracle lifetime
    _base_fp: Optional[ResultFingerprint] = None

    def _check(
        self, outcome: Outcome
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        rows = outcome.rows
        if rows is None:
            return None
        if self._base_fp is None:
            self._base_fp = self._fingerprint(BASE_QUERY)
            if self._base_fp is None:
                return None
        statements = parsed_statements(outcome)
        if len(statements) != 1 or not _partitionable(statements[0]):
            return None
        # the server still gets the camps' text: it keys the statement RNG
        sql = outcome.sql
        predicate = sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip()
        union_fp = self._fingerprint(
            tlp_camps_statement(_HEAD, predicate),
            [tlp_camps(statements[0])],
            rows,
        )
        if union_fp is None:
            return None
        return self._base_fp, union_fp


class NoRECOracle(_MetamorphicOracle):
    """Checks the runner's optimized run against an optimization-suppressed
    run of the same statement."""

    name = "norec"
    oracle_kind = "norec"
    optimizer_passes = SUPPRESS_PASSES

    def _check(
        self, outcome: Outcome
    ) -> Optional[Tuple[ResultFingerprint, ResultFingerprint]]:
        # the optimized side is the runner's own execution of the statement
        own_fp = outcome.fingerprint
        if own_fp is None:
            return None
        # the suppressed side executes the runner's tree as it is: the
        # runner's optimizer rewrote a copy of it (optimize_statement never
        # changes its input)
        statements = parsed_statements(outcome)
        if not statements:
            return None
        ref_fp = self._fingerprint(outcome.sql, statements)
        if ref_fp is None:
            return None
        return own_fp, ref_fp


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
