"""Integration tests for the statement executor (the SELECT pipeline)."""

import random

import pytest

from repro.dialects.base import Dialect
from repro.engine.connection import Connection, Server
from repro.engine.errors import NameError_, SQLError, TypeError_, ValueError_


@pytest.fixture()
def conn():
    return Dialect().create_server().connect()


def rows(conn, sql):
    return conn.execute(sql).rendered()


@pytest.fixture()
def populated(conn):
    conn.execute("CREATE TABLE t (a INT, b VARCHAR(10), c DECIMAL(10, 2))")
    conn.execute(
        "INSERT INTO t VALUES (1, 'x', 1.50), (2, 'y', -2.25), (3, NULL, 0)"
    )
    return conn


class TestScalarSelect:
    def test_select_literal(self, conn):
        assert rows(conn, "SELECT 1") == [["1"]]

    def test_multiple_items(self, conn):
        assert rows(conn, "SELECT 1, 'a', NULL") == [["1", "a", "NULL"]]

    def test_column_names(self, conn):
        result = conn.execute("SELECT 1 AS one, 2")
        assert result.columns == ["one", "col2"]


class TestFromWhere:
    def test_scan(self, populated):
        assert len(rows(populated, "SELECT a FROM t")) == 3

    def test_where_filters(self, populated):
        assert rows(populated, "SELECT a FROM t WHERE a > 1") == [["2"], ["3"]]

    def test_where_null_excluded(self, populated):
        # b = NULL row: comparison yields NULL, row filtered out
        assert len(rows(populated, "SELECT a FROM t WHERE b = b")) == 2

    def test_star_expansion(self, populated):
        result = populated.execute("SELECT * FROM t WHERE a = 1")
        assert result.rendered() == [["1", "x", "1.50"]]

    def test_table_alias(self, populated):
        assert rows(populated, "SELECT u.a FROM t u WHERE u.a = 2") == [["2"]]

    def test_unknown_table(self, conn):
        with pytest.raises(NameError_):
            conn.execute("SELECT 1 FROM missing")

    def test_unknown_column(self, populated):
        with pytest.raises(NameError_):
            populated.execute("SELECT zzz FROM t")


class TestAggregation:
    def test_count_star(self, populated):
        assert rows(populated, "SELECT COUNT(*) FROM t") == [["3"]]

    def test_count_skips_nulls(self, populated):
        assert rows(populated, "SELECT COUNT(b) FROM t") == [["2"]]

    def test_sum_avg(self, populated):
        result = rows(populated, "SELECT SUM(a), AVG(a) FROM t")
        assert result == [["6", "2"]]

    def test_group_by(self, populated):
        result = rows(
            populated,
            "SELECT a > 1, COUNT(*) FROM t GROUP BY a > 1 ORDER BY 2",
        )
        assert sorted(result) == [["false", "1"], ["true", "2"]]

    def test_having(self, populated):
        result = rows(
            populated,
            "SELECT a > 0, COUNT(*) FROM t GROUP BY a > 0 HAVING COUNT(*) > 2",
        )
        assert result == [["true", "3"]]

    def test_aggregate_without_rows(self, conn):
        conn.execute("CREATE TABLE e (x INT)")
        assert rows(conn, "SELECT COUNT(*), SUM(x) FROM e") == [["0", "NULL"]]

    def test_distinct_aggregate(self, conn):
        conn.execute("CREATE TABLE d (x INT)")
        conn.execute("INSERT INTO d VALUES (1), (1), (2)")
        assert rows(conn, "SELECT COUNT(DISTINCT x) FROM d") == [["2"]]

    def test_group_concat_with_separator(self, conn):
        conn.execute("CREATE TABLE g (x VARCHAR(5))")
        conn.execute("INSERT INTO g VALUES ('a'), ('b')")
        assert rows(conn, "SELECT GROUP_CONCAT(x, '-') FROM g") == [["a-b"]]


class TestOrderLimit:
    def test_order_asc(self, populated):
        assert rows(populated, "SELECT a FROM t ORDER BY a") == [["1"], ["2"], ["3"]]

    def test_order_desc(self, populated):
        assert rows(populated, "SELECT a FROM t ORDER BY a DESC")[0] == ["3"]

    def test_order_by_position(self, populated):
        assert rows(populated, "SELECT a FROM t ORDER BY 1 DESC")[0] == ["3"]

    def test_order_by_source_column_not_in_output(self, populated):
        # the a=3 row has b = NULL, and CONCAT propagates NULL
        result = rows(populated, "SELECT CONCAT(b, a) FROM t ORDER BY a DESC LIMIT 1")
        assert result == [["NULL"]]

    def test_nulls_first_ascending(self, populated):
        assert rows(populated, "SELECT b FROM t ORDER BY b")[0] == ["NULL"]

    def test_limit_offset(self, populated):
        assert rows(populated, "SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 1") == [["2"]]

    def test_negative_limit_rejected(self, populated):
        with pytest.raises(ValueError_):
            populated.execute("SELECT a FROM t LIMIT -1")

    def test_distinct_rows(self, conn):
        conn.execute("CREATE TABLE d (x INT)")
        conn.execute("INSERT INTO d VALUES (1), (1), (2)")
        assert len(rows(conn, "SELECT DISTINCT x FROM d")) == 2

    @pytest.mark.parametrize("count", [1, 2, 100])
    def test_order_key_is_evaluated_once_per_row(self, conn, monkeypatch, count):
        from repro.engine import evaluator
        from repro.sqlast import nodes

        conn.execute("CREATE TABLE o (id INT)")
        ids = list(range(count))
        random.Random(7).shuffle(ids)
        conn.execute(
            "INSERT INTO o VALUES " + ", ".join(f"({i})" for i in ids)
        )
        unary = evaluator._DISPATCH[nodes.UnaryOp]
        calls = []

        def counted(self, expr):
            calls.append(expr)
            return unary(self, expr)

        monkeypatch.setitem(evaluator._DISPATCH, nodes.UnaryOp, counted)
        result = rows(conn, "SELECT id FROM o ORDER BY -id")
        assert result == [[str(i)] for i in reversed(range(count))]
        # a single row is never compared, so its key is never evaluated
        assert len(calls) == (count if count > 1 else 0)


class TestJoins:
    @pytest.fixture()
    def two_tables(self, conn):
        conn.execute("CREATE TABLE l (id INT, v VARCHAR(5))")
        conn.execute("CREATE TABLE r (id INT, w VARCHAR(5))")
        conn.execute("INSERT INTO l VALUES (1, 'a'), (2, 'b')")
        conn.execute("INSERT INTO r VALUES (1, 'X'), (3, 'Z')")
        return conn

    def test_inner_join(self, two_tables):
        result = rows(
            two_tables, "SELECT l.v, r.w FROM l JOIN r ON l.id = r.id"
        )
        assert result == [["a", "X"]]

    def test_left_join_pads_nulls(self, two_tables):
        result = rows(
            two_tables,
            "SELECT l.v, r.w FROM l LEFT JOIN r ON l.id = r.id ORDER BY l.v",
        )
        assert result == [["a", "X"], ["b", "NULL"]]

    def test_cross_join_cardinality(self, two_tables):
        assert len(rows(two_tables, "SELECT 1 FROM l CROSS JOIN r")) == 4

    def test_comma_join(self, two_tables):
        assert len(rows(two_tables, "SELECT 1 FROM l, r")) == 4


class TestSetOperations:
    def test_union_dedups(self, conn):
        assert rows(conn, "SELECT 1 UNION SELECT 1") == [["1"]]

    def test_union_all_keeps(self, conn):
        assert len(rows(conn, "SELECT 1 UNION ALL SELECT 1")) == 2

    def test_except(self, conn):
        result = rows(conn, "SELECT 1 UNION SELECT 2 EXCEPT SELECT 2")
        assert result == [["1"]]

    def test_intersect(self, conn):
        result = rows(conn, "SELECT 1 UNION SELECT 2 INTERSECT SELECT 2")
        assert result == [["2"]]

    def test_union_column_count_mismatch(self, conn):
        with pytest.raises(TypeError_):
            conn.execute("SELECT 1, 2 UNION SELECT 1")

    def test_union_coerces_types(self, conn):
        # implicit cast surface: the integer branch coerces to the string
        # type of the first branch (Pattern 2.2's mechanism)
        result = rows(conn, "SELECT 'a' UNION SELECT 1 ORDER BY 1")
        assert sorted(result) == [["1"], ["a"]]


class TestSubqueries:
    def test_scalar_subquery(self, conn):
        assert rows(conn, "SELECT (SELECT 5)") == [["5"]]

    def test_empty_subquery_is_null(self, conn):
        conn.execute("CREATE TABLE e (x INT)")
        assert rows(conn, "SELECT (SELECT x FROM e)") == [["NULL"]]

    def test_in_subquery(self, populated):
        result = rows(
            populated, "SELECT a FROM t WHERE a IN (SELECT a FROM t WHERE a > 2)"
        )
        assert result == [["3"]]

    def test_exists(self, populated):
        assert rows(populated, "SELECT EXISTS (SELECT 1 FROM t)") == [["true"]]

    def test_aggregate_in_a_scalar_subquery_groups_the_subquery(self, conn):
        conn.execute("CREATE TABLE e (id INT)")
        conn.execute("INSERT INTO e VALUES (1), (2), (3)")
        result = rows(conn, "SELECT id, (SELECT COUNT(*) FROM e) FROM e")
        assert result == [["1", "3"], ["2", "3"], ["3", "3"]]
        assert rows(conn, "SELECT COUNT(*), (SELECT MAX(id) FROM e) FROM e") == [
            ["3", "3"]
        ]

    def test_derived_table(self, populated):
        result = rows(
            populated, "SELECT q.a FROM (SELECT a FROM t WHERE a = 2) q"
        )
        assert result == [["2"]]


class TestDML:
    def test_insert_casts_to_column_type(self, conn):
        conn.execute("CREATE TABLE c (x DECIMAL(6, 2))")
        conn.execute("INSERT INTO c VALUES ('3.14159')")
        assert rows(conn, "SELECT x FROM c") == [["3.14"]]

    def test_insert_column_subset(self, conn):
        conn.execute("CREATE TABLE s (a INT, b INT)")
        conn.execute("INSERT INTO s (b) VALUES (5)")
        assert rows(conn, "SELECT a, b FROM s") == [["NULL", "5"]]

    def test_not_null_enforced(self, conn):
        conn.execute("CREATE TABLE nn (a INT NOT NULL)")
        with pytest.raises(ValueError_):
            conn.execute("INSERT INTO nn VALUES (NULL)")

    def test_wrong_value_count(self, conn):
        conn.execute("CREATE TABLE w (a INT, b INT)")
        with pytest.raises(ValueError_):
            conn.execute("INSERT INTO w VALUES (1)")

    def test_drop_table(self, conn):
        conn.execute("CREATE TABLE dd (a INT)")
        conn.execute("DROP TABLE dd")
        with pytest.raises(NameError_):
            conn.execute("SELECT 1 FROM dd")

    def test_create_duplicate_rejected(self, conn):
        conn.execute("CREATE TABLE dup (a INT)")
        with pytest.raises(NameError_):
            conn.execute("CREATE TABLE dup (a INT)")

    def test_create_if_not_exists(self, conn):
        conn.execute("CREATE TABLE ine (a INT)")
        conn.execute("CREATE TABLE IF NOT EXISTS ine (a INT)")  # no raise

    def test_set_statement_updates_config(self, conn):
        conn.execute("SET myvar = 'hello'")
        assert conn.server.ctx.get_config("myvar") == "hello"


class TestResourceLimits:
    def test_giant_join_rejected(self, conn):
        from repro.engine.errors import ResourceError

        conn.execute("CREATE TABLE big (x INT)")
        values = ", ".join(f"({i})" for i in range(400))
        conn.execute(f"INSERT INTO big VALUES {values}")
        with pytest.raises(ResourceError):
            conn.execute("SELECT 1 FROM big a, big b, big c")
