"""Microbenchmarks of the substrate itself: parsing, execution, pattern
generation, and the coverage tracker's overhead.

These are conventional timing benchmarks (pytest-benchmark's bread and
butter); the table/figure benchmarks above use ``pedantic`` single-shot
mode because their payloads are campaigns, not inner loops.
"""

import itertools
import random

import pytest

from repro.core.collect import SeedCollector
from repro.core.patterns import PatternEngine
from repro.dialects import dialect_by_name
from repro.dialects.base import Dialect
from repro.sqlast import parse_statement, to_sql

QUERY = (
    "SELECT a, COUNT(*), CONCAT(UPPER(b), '-', a) FROM t "
    "WHERE a BETWEEN 1 AND 100 AND b LIKE '%x%' "
    "GROUP BY a HAVING COUNT(*) > 0 ORDER BY a DESC LIMIT 10"
)


def test_parse_throughput(benchmark):
    stmt = benchmark(parse_statement, QUERY)
    assert stmt is not None


def test_print_throughput(benchmark):
    stmt = parse_statement(QUERY)
    sql = benchmark(to_sql, stmt)
    assert sql.startswith("SELECT")


@pytest.fixture(scope="module")
def populated_connection():
    conn = Dialect().create_server().connect()
    conn.execute("CREATE TABLE t (a INT, b VARCHAR(16))")
    values = ", ".join(f"({i}, 'r{i}x')" for i in range(200))
    conn.execute(f"INSERT INTO t VALUES {values}")
    return conn


def test_scalar_query_throughput(benchmark, populated_connection):
    result = benchmark(populated_connection.execute, "SELECT LENGTH('abcdef');")
    assert result.rows[0][0].value == 6


def test_table_scan_throughput(benchmark, populated_connection):
    result = benchmark(populated_connection.execute,
                       "SELECT COUNT(*) FROM t WHERE a > 50;")
    assert result.rows[0][0].value == 149


def test_grouped_query_throughput(benchmark, populated_connection):
    result = benchmark(populated_connection.execute, QUERY)
    assert result.rows


def test_json_function_throughput(benchmark, populated_connection):
    result = benchmark(
        populated_connection.execute,
        "SELECT JSON_EXTRACT('{\"a\": [1, 2, {\"b\": 3}]}', '$.a[2].b');",
    )
    assert result.rows[0][0].render() == "3"


def test_coverage_overhead(benchmark):
    """One query with the arc tracker enabled (contrast with the scalar
    benchmark above to see the settrace cost)."""
    from repro.core.runner import Runner

    runner = Runner(dialect_by_name("mariadb"), enable_coverage=True)
    outcome = benchmark(runner.run, "SELECT LENGTH('abcdef');")
    assert outcome.kind == "ok"


@pytest.fixture(scope="module")
def pattern_engine():
    dialect = dialect_by_name("duckdb")
    seeds = SeedCollector(dialect).collect()
    return PatternEngine(seeds, rng=random.Random(0))


def test_pattern_generation_throughput(benchmark, pattern_engine):
    def generate_batch():
        return list(itertools.islice(pattern_engine.generate_all(), 500))

    cases = benchmark(generate_batch)
    assert len(cases) == 500


def test_seed_collection(benchmark):
    dialect = dialect_by_name("monetdb")
    seeds = benchmark(lambda: SeedCollector(dialect).collect())
    assert len(seeds) > 100
