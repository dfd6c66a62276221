"""Row binding and per-SELECT evaluation in the executor.

Every FROM shape binds its rows through one name → slot map per scan
(:class:`~repro.engine.evaluator.RowScope`), and a SELECT over more than
one row evaluates each row-invariant subtree of its WHERE and projection
once (:func:`~repro.engine.evaluator.row_invariant_memo`).  These tests pin
what both must not change: every reference shape resolves as before,
impure calls still run per row, short-circuits still skip unreached errors,
and the predicate family executes identically — results, errors, crash
stages and backtraces — with the memo switched off.
"""

from dataclasses import replace
from itertools import islice

import pytest

from repro.core.collect import SeedCollector
from repro.core.oracles.metamorphic import (
    tlp_camps,
    tlp_camps_statement,
    tlp_partition_statement,
    tlp_union,
)
from repro.core.patterns import PatternEngine
from repro.core.tables import PREDICATE_PREFIX, TABLE_SETUP
from repro.dialects import dialect_by_name, dialect_names
from repro.dialects.base import Dialect
from repro.engine import executor
from repro.engine.connection import ServerCrashed
from repro.engine.errors import NameError_, SQLError
from repro.sqlast import LexError, ParseError, parse_statement, to_sql
from repro.sqlast.visitor import walk

#: generated predicate statements per dialect in the memo differential
DIFFERENTIAL_STATEMENTS = 2_000


def _fuzz_conn(dialect="duckdb", **config):
    server = dialect_by_name(dialect).create_server()
    for name, value in config.items():
        server.ctx.set_config(name, value)
    conn = server.connect()
    for ddl in TABLE_SETUP:
        conn.execute(ddl)
    return conn


def _rows(conn, sql):
    return conn.execute(sql).rendered()


def _switch_memo_off(monkeypatch):
    """Every node evaluates on every row, as without the memo."""
    monkeypatch.setattr(executor, "row_invariant_memo", lambda ctx, exprs: None)


# ---------------------------------------------------------------------------
# slot binding: every reference shape over every FROM shape
# ---------------------------------------------------------------------------
@pytest.fixture()
def conn():
    conn = Dialect().create_server().connect()
    conn.execute("CREATE TABLE Emp (Id INT, Name VARCHAR(10), Dept INT)")
    conn.execute("CREATE TABLE dept (id INT, title VARCHAR(10))")
    conn.execute(
        "INSERT INTO Emp VALUES (1, 'ann', 10), (2, 'bob', 20), (3, 'cy', NULL)"
    )
    conn.execute("INSERT INTO dept VALUES (10, 'ops'), (20, 'dev')")
    return conn


class TestSlotBinding:
    def test_star_expands_the_bare_names_in_column_order(self, conn):
        result = conn.execute("SELECT * FROM Emp WHERE id = 2")
        assert result.columns == ["id", "name", "dept"]
        assert result.rendered() == [["2", "bob", "20"]]

    def test_qualified_aliased_and_mixed_case_refs(self, conn):
        assert _rows(conn, "SELECT EMP.NAME, e.Id FROM Emp e ORDER BY E.id") == [
            ["ann", "1"], ["bob", "2"], ["cy", "3"],
        ]
        assert _rows(conn, "SELECT Emp.name FROM Emp WHERE EMP.DEPT = 10") == [
            ["ann"]
        ]

    def test_unknown_column_still_raises(self, conn):
        with pytest.raises(NameError_, match="unknown column 'nope'"):
            conn.execute("SELECT nope FROM Emp")

    def test_correlated_subquery_reads_the_outer_row(self, conn):
        sql = (
            "SELECT name, (SELECT title FROM dept WHERE dept.id = Emp.dept) "
            "FROM Emp ORDER BY id"
        )
        assert _rows(conn, sql) == [["ann", "ops"], ["bob", "dev"], ["cy", "NULL"]]

    def test_join_binds_both_sides_and_qualified_names_stay_apart(self, conn):
        sql = (
            "SELECT e.name, d.title, d.id FROM Emp e "
            "JOIN dept d ON e.dept = d.id ORDER BY e.id"
        )
        assert _rows(conn, sql) == [["ann", "ops", "10"], ["bob", "dev", "20"]]
        # a bare name bound on both sides resolves to the right side
        assert _rows(conn, "SELECT id FROM Emp e JOIN dept d ON e.dept = d.id") == [
            ["10"], ["20"],
        ]

    def test_left_join_pads_nulls_and_star_spans_both_sides(self, conn):
        result = conn.execute(
            "SELECT * FROM Emp e LEFT JOIN dept d ON e.dept = d.id ORDER BY name"
        )
        assert result.columns == ["id", "name", "dept", "title"]
        assert result.rendered()[2] == ["NULL", "cy", "NULL", "NULL"]

    def test_left_join_against_no_rows_binds_no_right_names(self, conn):
        conn.execute("CREATE TABLE empty_t (z INT)")
        sql = "SELECT * FROM Emp LEFT JOIN empty_t ON 1 = 1 ORDER BY id"
        assert conn.execute(sql).columns == ["id", "name", "dept"]
        with pytest.raises(NameError_):
            conn.execute("SELECT z FROM Emp LEFT JOIN empty_t ON 1 = 1")

    def test_comma_join_and_derived_table(self, conn):
        sql = (
            "SELECT s.n, dept.title FROM (SELECT name AS n, dept AS dd FROM Emp) "
            "AS s, dept WHERE s.dd = dept.id ORDER BY s.n"
        )
        assert _rows(conn, sql) == [["ann", "ops"], ["bob", "dev"]]
        assert _rows(conn, "SELECT N FROM (SELECT name AS n FROM Emp) AS s ORDER BY n") == [
            ["ann"], ["bob"], ["cy"],
        ]

    def test_derived_union_binds_no_more_names_than_values(self, conn):
        sql = "SELECT * FROM (SELECT id, name FROM Emp WHERE 1 = 0 UNION ALL SELECT 7) AS s"
        assert _rows(conn, sql) == [["7"]]

    def test_update_reads_the_row_as_it_was(self, conn):
        conn.execute("UPDATE Emp SET id = dept, dept = id WHERE EMP.name <> 'cy'")
        assert _rows(conn, "SELECT id, dept FROM Emp ORDER BY name") == [
            ["10", "1"], ["20", "2"], ["3", "NULL"],
        ]

    def test_delete_binds_qualified_and_mixed_case_names(self, conn):
        conn.execute("DELETE FROM Emp WHERE Emp.Dept IS NULL OR NAME = 'ann'")
        assert _rows(conn, "SELECT name FROM Emp") == [["bob"]]

    def test_order_by_an_output_alias_over_a_hidden_column(self, conn):
        sql = "SELECT name AS who FROM Emp ORDER BY WHO DESC, dept"
        assert _rows(conn, sql) == [["cy"], ["bob"], ["ann"]]


# ---------------------------------------------------------------------------
# DISTINCT keeps the scopes of the rows it keeps
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dialect", ["mysql", "duckdb"])
def test_distinct_order_by_reads_the_surviving_rows(dialect):
    conn = _fuzz_conn(dialect)
    # the first TRUE row is k = 3 (i = -1); the first FALSE row is k = 1 (i = 0)
    sql = "SELECT DISTINCT s IS NULL FROM fuzz_t ORDER BY i;"
    assert _rows(conn, sql) == [["true"], ["false"]]
    sql = "SELECT DISTINCT s IS NULL, k > 4 FROM fuzz_t ORDER BY d DESC;"
    assert _rows(conn, sql) == [
        ["false", "true"], ["false", "false"], ["true", "false"], ["true", "true"],
    ]


# ---------------------------------------------------------------------------
# the row-invariant memo
# ---------------------------------------------------------------------------
_RANDOM_SQL = [
    "SELECT k FROM fuzz_t WHERE RAND() < 0.5;",
    "SELECT k FROM fuzz_t WHERE ABS(RAND() - 0.5) < 0.25 AND NOT (1 = 2);",
    "SELECT k, RAND(), ROUND(RAND() * 10) FROM fuzz_t;",
]


@pytest.mark.parametrize("sql", _RANDOM_SQL)
def test_impure_calls_still_draw_per_row(sql, monkeypatch):
    memoized = _rows(_fuzz_conn(), sql)
    _switch_memo_off(monkeypatch)
    assert memoized == _rows(_fuzz_conn(), sql)


def test_rand_in_the_projection_differs_row_to_row():
    values = {row[1] for row in _rows(_fuzz_conn(), _RANDOM_SQL[2])}
    assert len(values) == 8


@pytest.mark.parametrize("optimizer_passes", ["all", "none"])
def test_an_unreached_erroring_call_raises_on_neither_norec_arm(optimizer_passes):
    conn = _fuzz_conn(optimizer_passes=optimizer_passes)
    assert _rows(conn, "SELECT k FROM fuzz_t WHERE k > 100 AND CHR(-1) = 'a';") == []
    assert _rows(conn, "SELECT k FROM fuzz_t WHERE k < 0 AND CHR(-1) = 'a';") == []
    # reached by one row (k = 8), the same call raises on every row order
    with pytest.raises(SQLError, match="CHR code -1 out of range"):
        conn.execute("SELECT k FROM fuzz_t WHERE k > 7 AND CHR(-1) = 'a';")


def test_memo_covers_only_maximal_row_invariant_subtrees():
    ctx = dialect_by_name("duckdb").make_context()
    stmt = parse_statement(
        "SELECT ABS(-1) + k, UPPER('a'), RAND(), COUNT(1), (SELECT 1) "
        "FROM fuzz_t WHERE (LENGTH('ab') * 2) > i AND NOT (1 = 2)"
    )
    exprs = [item.expr for item in stmt.items] + [stmt.where]
    memo = executor.row_invariant_memo(ctx, exprs)
    nodes = {id(node): node for expr in exprs for node in walk(expr)}
    # no column ref, impure call (RAND), aggregate (COUNT) or subquery,
    # and nothing inside them
    assert sorted(to_sql(nodes[key]) for key in memo) == [
        "(LENGTH('ab') * 2)", "ABS(-(1))", "NOT ((1 = 2))", "UPPER('a')",
    ]


# ---------------------------------------------------------------------------
# differential: the predicate family with and without the memo
# ---------------------------------------------------------------------------
def _outcome(run):
    try:
        result = run()
    except ServerCrashed as exc:
        crash = exc.crash
        return ("crash", type(crash).__name__, crash.stage, crash.function,
                tuple(crash.backtrace))
    except SQLError as exc:
        return ("error", type(exc).__name__, str(exc))
    except RecursionError:
        return ("recursion",)
    return ("ok", result.columns, result.rendered())


class _Arms:
    """The optimized, optimization-suppressed, TLP-union and TLP-camps
    executions of each statement, on servers rebuilt after every crash."""

    def __init__(self, dialect):
        self.dialect = dialect
        self.conns = {}

    def conn(self, key):
        conn = self.conns.get(key)
        if conn is None or not conn.server.alive:
            server = self.dialect.create_server()
            if key == "ref":
                server.ctx.set_config("optimizer_passes", "none")
            conn = server.connect()
            for ddl in TABLE_SETUP:
                conn.execute(ddl)
            self.conns[key] = conn
        return conn

    def transcript(self, statements):
        lines = []
        for sql in statements:
            lines.append(_outcome(lambda: self.conn("opt").execute(sql)))
            lines.append(_outcome(lambda: self.conn("ref").execute(sql)))
            try:
                stmt = parse_statement(sql)
            except (ParseError, LexError, RecursionError):
                continue
            if stmt.where is None or not sql.startswith(PREDICATE_PREFIX):
                continue
            predicate = sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip()
            head = to_sql(replace(stmt, where=None))
            union_sql = tlp_partition_statement(head, predicate)
            union = tlp_union(stmt)
            lines.append(_outcome(
                lambda: self.conn("opt").execute_parsed(union_sql, [union])
            ))
            # what TLP's server runs: the IS-FALSE and IS-NULL camps
            camps_sql = tlp_camps_statement(head, predicate)
            camps = tlp_camps(stmt)
            lines.append(_outcome(
                lambda: self.conn("opt").execute_parsed(camps_sql, [camps])
            ))
        return lines


@pytest.mark.parametrize("dialect_name", dialect_names())
def test_predicate_family_executes_alike_without_the_memo(dialect_name, monkeypatch):
    dialect = dialect_by_name(dialect_name)
    dialect.install_logic_flaws(("tlp", "norec"))
    engine = PatternEngine(
        SeedCollector(dialect).collect(), statement_family="predicate"
    )
    statements = [
        case.sql
        for case in islice(engine.generate_all(), DIFFERENTIAL_STATEMENTS)
    ]
    memoized = _Arms(dialect).transcript(statements)
    _switch_memo_off(monkeypatch)
    plain = _Arms(dialect).transcript(statements)
    assert len(memoized) == len(plain)
    for index, (got, want) in enumerate(zip(memoized, plain)):
        assert got == want, index
    # the stream reaches both rows and errors, or it proves little
    kinds = {line[0] for line in plain}
    assert {"ok", "error"} <= kinds
