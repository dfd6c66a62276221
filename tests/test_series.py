"""Integer series (``RANGE``/``GENERATE_SERIES``/``SEQUENCE_ARRAY``) and JSON
string escaping.

A series result stays a Python ``range`` inside its :class:`SQLArray` until
something reads ``items``.  These tests pin three things:

* a golden per-dialect digest of outcome kind, message, result type and
  fingerprint digest for series of every shape, every reader of their
  elements, and ``JSON_QUOTE`` of the characters JSON escapes;
* a series nobody reads is never materialized;
* a lazy array and the eager array of the same integers are
  indistinguishable to every reader.
"""

import hashlib
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import Runner
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.engine.evaluator import compare_values
from repro.engine.values import SQLArray, SQLInteger

#: sha256 of :func:`_series_transcript` per dialect, generated before series
#: became lazy; regenerate only for a deliberate behaviour change
GOLDEN_DIGESTS = {
    "postgresql": "3fcbabfdb5c112f22e748aa001ba208821760f0a4a6a8becdaa4eaba7faa8e22",
    "mysql": "63df946e8db496525f8fdb1890da38d7e8a75df7d4ff41cacf66dc251dcf70b5",
    "mariadb": "63df946e8db496525f8fdb1890da38d7e8a75df7d4ff41cacf66dc251dcf70b5",
    "clickhouse": "3fcbabfdb5c112f22e748aa001ba208821760f0a4a6a8becdaa4eaba7faa8e22",
    "monetdb": "3c6ee2698b0c03ad1c3d76ce5e2710648b2af959964c73e0c315d062363135ed",
    "duckdb": "3fcbabfdb5c112f22e748aa001ba208821760f0a4a6a8becdaa4eaba7faa8e22",
    "virtuoso": "3fcbabfdb5c112f22e748aa001ba208821760f0a4a6a8becdaa4eaba7faa8e22",
}

#: rows for the DISTINCT / GROUP BY / ORDER BY statements
_ROWS = (
    "(SELECT RANGE(3) AS x UNION ALL SELECT [0, 1, 2] UNION ALL SELECT RANGE(2)"
    " UNION ALL SELECT GENERATE_SERIES(-1, 2) UNION ALL SELECT RANGE(0)) AS s"
)


def _series_statements():
    for fn in ("RANGE", "GENERATE_SERIES", "SEQUENCE_ARRAY"):
        for args in ("5", "2, 7", "0, 10, 3", "10, 0, -3", "-5, 5", "5, -5, -2",
                     "0", "-3", "5, 1", "1, 5, -1", "1, 5, 0", "NULL", "1, NULL",
                     "1, 5, NULL", "'3'", "2.5"):
            yield f"SELECT {fn}({args});"
        yield f"SELECT ARRAY_LENGTH({fn}(99999));"
        yield f"SELECT {fn}(1000000) IS NULL;"
        yield f"SELECT {fn}(0, 2000001, 2) IS NULL;"
        yield f"SELECT {fn}(1000001);"
        yield f"SELECT {fn}(-1000000, 1);"
    yield "SELECT GENERATE_SERIES(99999);"
    yield "SELECT LENGTH(CAST(RANGE(99999) AS VARCHAR));"
    yield "SELECT ELEMENT_AT(SEQUENCE_ARRAY(99999), 99999);"
    # readers
    for sql in (
        "ARRAY_LENGTH(RANGE(10))", "CARDINALITY(RANGE(3, 0, -1))",
        "ELEMENT_AT(RANGE(10), 3)", "ELEMENT_AT(RANGE(10), -1)",
        "ELEMENT_AT(RANGE(10), 11)", "RANGE(10)[2]", "RANGE(10)[0]",
        "RANGE(10)[11]", "RANGE(-3, 3)[1]",
        "RANGE(3) = [0, 1, 2]", "[0, 1, 2] = RANGE(3)", "RANGE(3) = [0, 1]",
        "RANGE(3) = RANGE(0, 3)", "RANGE(3) <> [0, 1, 2]",
        "RANGE(3) < RANGE(4)", "RANGE(3) < [0, 2]", "[0, 2] < RANGE(3)",
        "RANGE(0) < RANGE(1)", "RANGE(3) > [0, 1, 1.5]",
        "1 IN (RANGE(3))", "[0, 1] IN (RANGE(2), RANGE(3))",
        "ARRAY_CONCAT(RANGE(3), RANGE(2))", "ARRAY_CONCAT(RANGE(0), [7])",
        "ARRAY_APPEND(RANGE(3), 9)", "ARRAY_PREPEND(9, RANGE(3))",
        "ARRAY_CONTAINS(RANGE(5), 4)", "ARRAY_POSITION(RANGE(5), 4)",
        "ARRAY_SLICE(RANGE(10), 2, 4)", "ARRAY_REVERSE(RANGE(4))",
        "ARRAY_DISTINCT(RANGE(4))", "ARRAY_SORT(RANGE(5, 0, -1))",
        "ARRAY_SUM(RANGE(101))", "ARRAY_MIN(RANGE(-4, 4))",
        "ARRAY_MAX(RANGE(-4, 4))", "ARRAY_FLATTEN([RANGE(2), RANGE(3)])",
        "MAP_FROM_ARRAYS(RANGE(3), RANGE(3, 6))",
        "MAP_FROM_ARRAYS(RANGE(3), RANGE(2))",
        "CAST(RANGE(5) AS VARCHAR)", "CAST(RANGE(-2, 2) AS JSON)",
        "CAST(RANGE(0) AS JSON)", "CAST([RANGE(2), RANGE(0)] AS JSON)",
        "JSON_ARRAY(RANGE(3))", "CAST(RANGE(3) AS INTEGER[])",
        "CASE WHEN RANGE(0) THEN 1 ELSE 0 END",
        "CASE WHEN RANGE(2) THEN 1 ELSE 0 END", "NOT RANGE(1)",
        "COALESCE(RANGE(2), [9])",
    ):
        yield f"SELECT {sql};"
    yield f"SELECT DISTINCT x FROM {_ROWS};"
    yield f"SELECT x, COUNT(*) FROM {_ROWS} GROUP BY x;"
    yield f"SELECT x FROM {_ROWS} ORDER BY x;"
    yield f"SELECT x FROM {_ROWS} ORDER BY x DESC;"
    yield "SELECT RANGE(3) UNION SELECT [0, 1, 2];"
    yield "SELECT RANGE(3) UNION SELECT RANGE(4) UNION SELECT RANGE(0, 3);"
    yield "SELECT COUNT(DISTINCT x) FROM (SELECT RANGE(2) AS x UNION ALL SELECT [0, 1]) AS s;"
    # JSON string escaping
    for code in list(range(0x20)) + [34, 92, 47, 127, 233, 0xD800, 0xDFFF, 0x1F600]:
        yield f"SELECT JSON_QUOTE(CHR({code}));"
    yield "SELECT JSON_QUOTE(CONCAT('a', CHR(0), 'b', CHR(34), CHR(92), CHR(10)));"
    yield "SELECT JSON_QUOTE('a\"b');"
    yield "SELECT LENGTH(JSON_QUOTE(REPEAT('a\"b', 99999)));"
    yield "SELECT CAST(CONCAT(CHR(9), CHR(34)) AS JSON);"
    yield "SELECT JSON_ARRAY(CHR(31), CHR(92), CHR(128512));"
    yield "SELECT JSON_OBJECT(CHR(10), CHR(13));"


def _series_transcript(dialect_name):
    """Yield one line per statement: kind, message, type, fingerprint."""
    runner = Runner(dialect_by_name(dialect_name))
    for sql in _series_statements():
        outcome = runner.run(sql)
        fingerprint = outcome.fingerprint
        yield "\t".join((
            sql, outcome.kind, outcome.message, str(outcome.result_type),
            fingerprint.digest if fingerprint is not None else "-",
        ))


def series_digest(dialect_name):
    digest = hashlib.sha256()
    for line in _series_transcript(dialect_name):
        digest.update(line.encode("utf-8", "surrogatepass"))
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("cls", all_dialect_classes(), ids=lambda c: c.name)
def test_golden_series_digest(cls):
    assert series_digest(cls.name) == GOLDEN_DIGESTS[cls.name]


# ---------------------------------------------------------------------------
# an unread series stays a range
# ---------------------------------------------------------------------------
def test_unread_series_is_never_materialized():
    runner = Runner(dialect_by_name("duckdb"))
    runner.run("SELECT GENERATE_SERIES(3);")  # warm the code paths
    results = []
    execute = runner.connection.execute

    def keep(sql):
        results.append(execute(sql))
        return results[-1]

    runner.connection.execute = keep
    tracemalloc.start()
    try:
        outcome = runner.run("SELECT GENERATE_SERIES(99999);")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.kind == "ok" and outcome.result_type == "array"
    assert peak < 1_000_000, peak
    assert type(results[-1].rows[0][0]._items) is range


# ---------------------------------------------------------------------------
# the lazy and the eager form are the same value
# ---------------------------------------------------------------------------
_ends = st.integers(-40, 40)
_series = st.builds(range, _ends, _ends, st.integers(-7, 7).filter(bool))


@settings(max_examples=150, deadline=None)
@given(series=_series, other=_series)
def test_lazy_and_eager_arrays_agree(series, other):
    """Every check reads a fresh lazy array: the first read materializes it."""
    ctx = dialect_by_name("duckdb").make_context()

    def lazy(r=series):
        return SQLArray(r)

    def eager(r=series):
        return SQLArray(tuple(map(SQLInteger, r)))

    assert type(lazy()) is SQLArray
    assert lazy().as_bool() == eager().as_bool()
    assert lazy().sort_key() == eager().sort_key()
    assert lazy().render() == eager().render()
    assert lazy() == eager() and eager() == lazy()
    assert hash(lazy()) == hash(eager())
    assert lazy().items == eager().items
    for right in (other, series):
        expected = compare_values(ctx, eager(), eager(right))
        assert compare_values(ctx, lazy(), lazy(right)) == expected
        assert compare_values(ctx, lazy(), eager(right)) == expected
        assert compare_values(ctx, eager(right), lazy()) == -expected
        assert compare_values(ctx, lazy(right), lazy()) == -expected
        assert (lazy() == lazy(right)) == (expected == 0)
    for value in (lazy(), eager()):
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is SQLArray
        assert restored == eager() and restored.items == eager().items
        assert restored.render() == eager().render()


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print({cls.name: series_digest(cls.name) for cls in all_dialect_classes()})
