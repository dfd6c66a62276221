"""Unit tests for the casting machinery."""

import decimal

import pytest

from repro.dialects import dialect_by_name
from repro.engine.casting import (
    TypeLimits,
    cast_value,
    parse_date_text,
    parse_datetime_text,
    parse_inet_text,
    parse_time_text,
)
from repro.engine.context import ExecutionContext
from repro.engine.errors import TypeError_, ValueError_
from repro.engine.functions import build_base_registry
from repro.engine.values import (
    NULL,
    SQLBoolean,
    SQLBytes,
    SQLDate,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLJson,
    SQLString,
)
from repro.sqlast import TypeName


@pytest.fixture(scope="module")
def ctx():
    return ExecutionContext(build_base_registry())


def cast(ctx, value, name, params=()):
    return cast_value(ctx, value, TypeName(name, list(params)))


class TestNullAndIdentity:
    def test_null_casts_to_null(self, ctx):
        for target in ("INT", "VARCHAR", "JSON", "DATE", "BINARY"):
            assert cast(ctx, NULL, target).is_null

    def test_unknown_type_rejected(self, ctx):
        with pytest.raises(TypeError_):
            cast(ctx, SQLInteger(1), "FROBNICATOR")


class TestIntegerCasts:
    def test_decimal_truncates_toward_zero(self, ctx):
        assert cast(ctx, SQLDecimal.from_text("-1.9"), "INT").value == -1

    def test_string_prefix_parse(self, ctx):
        assert cast(ctx, SQLString("12abc"), "INT").value == 12

    def test_string_no_digits_is_zero(self, ctx):
        assert cast(ctx, SQLString("abc"), "INT").value == 0

    def test_negative_string(self, ctx):
        assert cast(ctx, SQLString("-7"), "INT").value == -7

    def test_date_becomes_yyyymmdd(self, ctx):
        assert cast(ctx, SQLDate(2020, 5, 6), "INT").value == 20200506

    def test_out_of_range_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLDecimal.from_text("1" + "0" * 30), "INT")

    def test_unsigned_reinterprets_negative(self, ctx):
        result = cast(ctx, SQLInteger(-1), "UNSIGNED")
        assert result.value == 2**64 - 1


class TestDecimalCasts:
    def test_quantizes_to_scale(self, ctx):
        result = cast(ctx, SQLDecimal.from_text("1.2345"), "DECIMAL", (10, 2))
        assert result.render() == "1.23"

    def test_overflow_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLDecimal.from_text("12345"), "DECIMAL", (4, 2))

    def test_precision_above_dialect_limit_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLInteger(1), "DECIMAL", (200, 0))

    def test_scale_above_precision_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLInteger(1), "DECIMAL", (5, 9))

    def test_clickhouse_decimal256_param_is_scale(self, ctx):
        limits = TypeLimits(decimal_max_digits=76, decimal_max_scale=76)
        wide_ctx = ExecutionContext(build_base_registry(), limits=limits)
        result = cast(wide_ctx, SQLString("110"), "Decimal256", (45,))
        assert result.integer_digits == 3
        assert result.fraction_digits == 45

    def test_string_garbage_becomes_zero(self, ctx):
        assert cast(ctx, SQLString("xyz"), "DECIMAL", (5, 1)).render() == "0.0"


#: a bare DECIMAL/NUMERIC per dialect: PostgreSQL's is unconstrained,
#: MySQL/MariaDB/ClickHouse default to (10,0), DuckDB/MonetDB to (18,3)
BARE_DECIMAL_CASTS = {
    "postgresql": ("123", "1.2345", "-7.5", "100000"),
    "mysql": ("123", "1", "-8", "100000"),
    "mariadb": ("123", "1", "-8", "100000"),
    "clickhouse": ("123", "1", "-8", "100000"),
    "duckdb": ("123.000", "1.235", "-7.500", "100000.000"),
    "monetdb": ("123.000", "1.235", "-7.500", "100000.000"),
    "virtuoso": ("123.000000000000000", "1.234500000000000",
                 "-7.500000000000000", "100000.000000000000000"),
}


@pytest.mark.parametrize("dialect_name", sorted(BARE_DECIMAL_CASTS))
def test_bare_decimal_cast_follows_the_dialect_default(dialect_name):
    conn = dialect_by_name(dialect_name).create_server().connect()
    casts = (
        "CAST('123' AS NUMERIC)", "CAST('1.2345' AS DECIMAL)",
        "CAST('-7.5' AS DEC)", "CAST('1E+5' AS NUMERIC)",
    )
    rendered = tuple(
        conn.execute(f"SELECT {sql};").scalar().render() for sql in casts
    )
    assert rendered == BARE_DECIMAL_CASTS[dialect_name]
    # the default bounds the integer digits too, except unconstrained
    wide = "CAST(REPEAT('9', 30) AS DECIMAL)"
    if dialect_name == "postgresql":
        assert conn.execute(f"SELECT {wide};").scalar().render() == "9" * 30
    else:
        with pytest.raises(ValueError_, match="does not fit"):
            conn.execute(f"SELECT {wide};")


#: DECIMAL(p) means DECIMAL(p,0), and casts round half away from zero,
#: as ROUND does
DECIMAL_CAST_CASES = [
    ("CAST(1.5 AS DECIMAL(5))", "2"),
    ("CAST(-1.5 AS NUMERIC(5))", "-2"),
    ("CAST('12345' AS DECIMAL(5))", "12345"),
    ("CAST(2.5 AS DECIMAL(5,0))", "3"),
    ("CAST(-2.5 AS DECIMAL(5,0))", "-3"),
    ("CAST(3.5 AS DECIMAL(5,0))", "4"),
    ("CAST('0.125' AS DECIMAL(5,2))", "0.13"),
    ("CAST(-0.125 AS DECIMAL(5,2))", "-0.13"),
    ("CAST(0.124 AS DECIMAL(5,2))", "0.12"),
]


@pytest.mark.parametrize("dialect_name", ["mysql", "postgresql", "duckdb"])
@pytest.mark.parametrize("sql, expected", DECIMAL_CAST_CASES)
def test_decimal_cast_scale_and_rounding(dialect_name, sql, expected):
    conn = dialect_by_name(dialect_name).create_server().connect()
    assert conn.execute(f"SELECT {sql};").scalar().render() == expected


def test_one_parameter_decimal_bounds_the_integer_digits():
    conn = dialect_by_name("mysql").create_server().connect()
    with pytest.raises(ValueError_, match=r"does not fit DECIMAL\(5,0\)"):
        conn.execute("SELECT CAST(123456 AS DECIMAL(5));")


class TestStringCasts:
    def test_truncates_to_declared_length(self, ctx):
        assert cast(ctx, SQLString("hello"), "VARCHAR", (3,)).value == "hel"

    def test_renders_numbers(self, ctx):
        assert cast(ctx, SQLDecimal.from_text("1.50"), "CHAR").value == "1.50"


class TestBooleanCasts:
    @pytest.mark.parametrize("text,expected", [
        ("true", True), ("T", True), ("on", True), ("1", True),
        ("false", False), ("off", False), ("", False), ("0", False),
    ])
    def test_boolean_words(self, ctx, text, expected):
        assert cast(ctx, SQLString(text), "BOOLEAN").value is expected

    def test_invalid_boolean_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLString("maybe"), "BOOLEAN")

    def test_numeric_boolean(self, ctx):
        assert cast(ctx, SQLInteger(7), "BOOLEAN").value is True


class TestTemporalCasts:
    def test_date_from_string(self, ctx):
        result = cast(ctx, SQLString("2020-05-06"), "DATE")
        assert (result.year, result.month, result.day) == (2020, 5, 6)

    def test_date_with_slashes(self, ctx):
        assert parse_date_text("2020/05/06").month == 5

    def test_invalid_date_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLString("2020-02-30"), "DATE")

    def test_integer_yyyymmdd(self, ctx):
        assert cast(ctx, SQLInteger(20200506), "DATE").day == 6

    def test_time_parse(self):
        t = parse_time_text("12:30:45.5")
        assert (t.hour, t.minute, t.second) == (12, 30, 45)
        assert t.microsecond == 500000

    def test_time_out_of_range(self):
        with pytest.raises(ValueError_):
            parse_time_text("25:00:00")

    def test_datetime_parse(self):
        dt = parse_datetime_text("2020-05-06 12:30:45")
        assert dt.date.year == 2020
        assert dt.time.hour == 12

    def test_datetime_t_separator(self):
        assert parse_datetime_text("2020-05-06T01:02:03").time.minute == 2


class TestDocumentCasts:
    def test_json_from_string(self, ctx):
        result = cast(ctx, SQLString('{"a": [1, 2]}'), "JSON")
        assert result.document == {"a": [1, 2]}

    @pytest.mark.parametrize("flag, text", [(True, "true"), (False, "false")])
    def test_json_from_boolean_is_a_json_boolean(self, ctx, flag, text):
        result = cast(ctx, SQLBoolean(flag), "JSON")
        assert result.document is flag
        assert result.render() == text

    def test_json_from_integer_stays_a_number(self, ctx):
        assert cast(ctx, SQLInteger(1), "JSON").render() == "1"

    def test_json_invalid_rejected(self, ctx):
        with pytest.raises(ValueError_):
            cast(ctx, SQLString("{oops"), "JSON")

    def test_json_depth_limit_enforced(self, ctx):
        deep = "[" * 200 + "]" * 200
        with pytest.raises(ValueError_):
            cast(ctx, SQLString(deep), "JSON")

    def test_xml_from_string(self, ctx):
        result = cast(ctx, SQLString("<a><b>x</b></a>"), "XML")
        assert result.render() == "<a><b>x</b></a>"

    def test_bytes_from_string(self, ctx):
        assert cast(ctx, SQLString("ab"), "BINARY").value == b"ab"

    def test_geometry_from_wkt(self, ctx):
        result = cast(ctx, SQLString("POINT(1 2)"), "GEOMETRY")
        assert result.render() == "POINT(1 2)"


class TestInetParsing:
    def test_ipv4(self):
        assert parse_inet_text("127.0.0.1").packed == bytes([127, 0, 0, 1])

    def test_ipv4_octet_range(self):
        with pytest.raises(ValueError_):
            parse_inet_text("256.0.0.1")

    def test_ipv6_full(self):
        addr = parse_inet_text("2001:db8:0:0:0:0:0:1")
        assert addr.is_v6
        assert addr.packed[:2] == b"\x20\x01"

    def test_ipv6_compressed(self):
        assert parse_inet_text("::1").packed == b"\x00" * 15 + b"\x01"

    def test_ipv6_invalid(self):
        with pytest.raises(ValueError_):
            parse_inet_text("::1::2")

    def test_ipv6_render_roundtrip(self):
        addr = parse_inet_text("::1")
        assert parse_inet_text(addr.render()).packed == addr.packed


class TestCastOverrides:
    def test_dialect_override_takes_precedence(self):
        ctx = ExecutionContext(build_base_registry())

        def flawed(ctx_, value, tn):
            return SQLString("hijacked")

        ctx.cast_overrides["integer"] = flawed
        assert cast(ctx, SQLString("5"), "INT").value == "hijacked"

    def test_override_returning_none_falls_through(self):
        ctx = ExecutionContext(build_base_registry())
        ctx.cast_overrides["integer"] = lambda c, v, t: None
        assert cast(ctx, SQLString("5"), "INT").value == 5
