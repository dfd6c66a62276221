"""The engine's big-number boundary (``decimal_to_int`` / ``digits_to_int``).

The boundary patterns feed built-ins 10^5-digit numeric strings.  These
tests pin five things:

* the two conversions are exactly ``int()``, and long digit texts are
  memoized (at most eight, never a short or malformed text); repeated,
  nearly repeated and zero-padded texts, which take the one-power
  shortcuts, convert exactly as plain divide and conquer does;
* integers compare, order and hash as ints exactly as they did as
  Decimals, against every other numeric kind;
* every converted engine site computes what its old ``int(Decimal)``
  formula computed, at 5,000 and 99,999 digits;
* integers past the interpreter's 4,300-digit int<->str limit surface as
  handled SQL errors, never as raw Python exceptions, on every dialect and
  through a whole campaign;
* so do numbers past a double's range (``1e999``, ``inf``, ``NaN``) that
  reach JSON, which has no literal for them.
"""

import decimal
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.runner import Runner
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.engine import ServerCrashed
from repro.engine.context import ExecutionContext
from repro.engine.errors import SQLError
from repro.engine.evaluator import compare_values
from repro.engine.executor import Result
from repro.engine.fingerprint import fingerprint_result
from repro.engine.functions import build_base_registry
from repro.engine.values import (
    DECIMAL_CONTEXT,
    NULL,
    SQLBoolean,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLInterval,
    SQLJson,
    _big_digits_to_int,
    _digits_by_halves,
    decimal_to_int,
    digits_to_int,
    numeric_as_decimal,
)

D = decimal.Decimal
SIZES = (5000, 99999)


def repunit(n: int) -> int:
    """The integer written as *n* ones, computed without any conversion."""
    return (10**n - 1) // 9


# ---------------------------------------------------------------------------
# the conversions themselves
# ---------------------------------------------------------------------------
class TestDecimalToInt:
    def test_matches_int_on_random_values(self):
        rng = random.Random(7)
        for _ in range(80):
            digits = rng.choice([1, 19, 200, 2999, 3001, 5000, rng.randint(1, 20000)])
            coefficient = "".join(rng.choices("0123456789", k=digits))
            exponent = rng.randint(-digits - 20, 4000)
            value = D(f"{rng.choice('+-')}{coefficient}E{exponent}")
            assert decimal_to_int(value) == int(value), value.adjusted()

    @pytest.mark.parametrize(
        "text",
        ["0", "-0", "0E+5000", "-0E-40", "-0.9", "0.9", "-1E+3500",
         "9" * 4000 + ".999", "-" + "9" * 4000 + ".5"],
    )
    def test_edge_values(self, text):
        value = D(text)
        assert decimal_to_int(value) == int(value)

    @pytest.mark.parametrize("text", ["NaN", "-NaN", "sNaN", "Infinity", "-Infinity"])
    def test_non_finite_raise_like_int(self, text):
        value = D(text)
        with pytest.raises(Exception) as expected:
            int(value)
        with pytest.raises(type(expected.value)) as got:
            decimal_to_int(value)
        assert str(got.value) == str(expected.value)


class TestDigitsToInt:
    def test_matches_int_below_the_limit(self):
        rng = random.Random(11)
        lengths = [1, 2, 1999, 2000, 2001, 3999, 4000, 4001, 4300]
        lengths += [rng.randint(1, 4300) for _ in range(40)]
        for length in lengths:
            text = "".join(rng.choices("0123456789", k=length))
            assert digits_to_int(text) == int(text)
            assert digits_to_int("000" + text) == int(text)

    @pytest.mark.parametrize("n", (4301, 20000) + SIZES)
    def test_exact_past_the_limit(self, n):
        assert digits_to_int("1" * n) == repunit(n)
        assert digits_to_int("9" * n) == 10**n - 1


class TestDigitsToIntMemo:
    """Texts past ``_INT_CHUNK_DIGITS`` go through an 8-entry LRU memo."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        _big_digits_to_int.cache_clear()
        yield
        _big_digits_to_int.cache_clear()

    def test_second_conversion_is_a_memo_hit(self):
        first = digits_to_int("1" * 99999)
        before = _big_digits_to_int.cache_info()
        # an equal text built separately, as each statement builds its own
        second = digits_to_int("".join(["1"] * 99999))
        after = _big_digits_to_int.cache_info()
        assert first == second == repunit(99999)
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_memo_holds_at_most_eight_texts(self):
        for n in range(4301, 4321):
            assert digits_to_int("7" * n) == 7 * repunit(n)
            assert _big_digits_to_int.cache_info().currsize <= 8
        assert _big_digits_to_int.cache_info().currsize == 8

    def test_short_texts_never_enter_the_memo(self):
        for n in (1, 19, 1999, 2000):
            assert digits_to_int("3" * n) == 3 * repunit(n)
        info = _big_digits_to_int.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_malformed_text_raises_on_every_call(self):
        text = "1" * 3000 + "x" + "1" * 3000
        for _ in range(3):
            with pytest.raises(ValueError):
                digits_to_int(text)
        assert _big_digits_to_int.cache_info().currsize == 0


@st.composite
def repetitive_digits(draw):
    """Digit texts shaped like the boundary patterns' arguments: leading
    zeros, copies of a 1-16 digit unit filling about 2,000 or 8,000
    digits, maybe one changed digit, a short tail and trailing zeros."""
    unit = draw(st.text("0123456789", min_size=1, max_size=16))
    length = draw(st.sampled_from([2000, 8000])) + draw(st.integers(-40, 40))
    body = (unit * (length // len(unit) + 1))[:length]
    if draw(st.booleans()):
        at = draw(st.integers(0, length - 1))
        body = body[:at] + draw(st.sampled_from("0123456789")) + body[at + 1:]
    return (
        "0" * draw(st.sampled_from([0, 1, 3]))
        + body
        + draw(st.text("0123456789", max_size=40))
        + "0" * draw(st.sampled_from([0, 7, 1999, 2000, 2001, 2600]))
    )


class TestRepetitiveDigits:
    """The one-power shortcuts agree with plain divide and conquer."""

    @given(repetitive_digits())
    @settings(max_examples=150, deadline=None)
    def test_matches_divide_and_conquer(self, text):
        _big_digits_to_int.cache_clear()
        assert digits_to_int(text) == _digits_by_halves(text)

    @pytest.mark.parametrize("n", [2001, 2600, 8000])
    def test_all_zeros(self, n):
        assert digits_to_int("0" * n) == 0

    def test_non_ascii_decimals_take_the_shortcut_exactly(self):
        # int() reads every Unicode decimal digit; so does the shortcut
        text = "\u0663" * 3000  # ARABIC-INDIC DIGIT THREE
        assert digits_to_int(text) == 3 * repunit(3000)


# ---------------------------------------------------------------------------
# integers compared as ints agree with the Decimal path
# ---------------------------------------------------------------------------
def _decimal_compare(a, b):
    """The three-way comparison of two numerics as Decimals, with NaN
    after every number and equal to itself."""
    x, y = numeric_as_decimal(a), numeric_as_decimal(b)
    if x.is_nan() or y.is_nan():
        return (x.is_nan() and not y.is_nan()) - (y.is_nan() and not x.is_nan())
    return (x > y) - (x < y)


def _decimal_key(value):
    """``sort_key`` with an integer widened to Decimal."""
    if isinstance(value, SQLInteger):
        return ("num", D(value.value))
    return value.sort_key()


def _outcome_of(call):
    try:
        return ("value", call())
    except Exception as exc:  # the Decimal path raises on NaN ordering
        return ("raises", type(exc))


_big_ints = st.integers(1, 10**4).flatmap(
    lambda digits: st.integers(-(10**digits), 10**digits)
)
numerics = st.one_of(
    _big_ints.map(SQLInteger),
    st.integers(-3, 3).map(SQLInteger),
    st.booleans().map(SQLBoolean),
    st.decimals(allow_nan=False, allow_infinity=False, places=3).map(SQLDecimal),
    _big_ints.map(lambda n: SQLDecimal(D(n).scaleb(-2, DECIMAL_CONTEXT))),
    st.floats(allow_nan=False, allow_infinity=False).map(SQLDouble),
    st.sampled_from([D("NaN"), D("Infinity"), D("-Infinity")]).map(SQLDecimal),
)


class TestIntegersCompareAsIntegers:
    CTX = ExecutionContext(build_base_registry())

    @given(numerics, numerics)
    @settings(max_examples=300, deadline=None)
    def test_compare_values_agrees(self, a, b):
        assert compare_values(self.CTX, a, b) == _decimal_compare(a, b)

    @given(numerics, numerics)
    @settings(max_examples=300, deadline=None)
    def test_sort_key_and_hash_agree(self, a, b):
        key_a, key_b = a.sort_key(), b.sort_key()
        old_a, old_b = _decimal_key(a), _decimal_key(b)
        assert (key_a == key_b) == (old_a == old_b) == (a == b)
        assert hash(key_a) == hash(old_a) == hash(a)
        assert _outcome_of(lambda: key_a < key_b) == _outcome_of(lambda: old_a < old_b)

    def test_equal_integers_share_a_group_with_equal_decimals(self):
        n = 7 * repunit(5000)
        keys = {SQLInteger(n), SQLDecimal(D(n)), SQLInteger(-n)}
        assert len(keys) == 2


# ---------------------------------------------------------------------------
# per-site differential against the old int(Decimal) formula
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def conn():
    # postgresql carries no injected bug in any function used below
    return dialect_by_name("postgresql").create_server().connect()


@pytest.fixture(scope="module")
def operands(conn):
    """n -> the engine's ``CEILING(REPEAT('1', n))`` and that ``+ 0.5``."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = tuple(
                conn.execute(f"SELECT {sql};").rows[0][0]
                for sql in (f"CEILING(REPEAT('1', {n}))", f"CEILING(REPEAT('1', {n})) + 0.5")
            )
        return cache[n]

    return get


def _outcome(conn, sql):
    """("ok", comparable Python value) or ("error", message)."""
    try:
        result = conn.execute(sql)
    except SQLError as exc:
        return ("error", exc.message)
    if not result.rows:
        return ("ok", "no rows")
    cell = result.rows[0][0]
    if cell is NULL:
        return ("ok", None)
    if isinstance(cell, SQLInteger):
        return ("ok", cell.value)
    if isinstance(cell, SQLJson):
        return ("ok", cell.document)
    if isinstance(cell, SQLInterval):
        return ("ok", (cell.months, cell.days, cell.microseconds))
    raise AssertionError(f"unexpected result {cell!r}")


def _rendered(value):
    try:
        return str(value)
    except ValueError:
        return f"integer of {value.bit_length()} bits"


def _bit(op, n):
    text = "1" * n
    if op == "and":
        return ((1 << 64) - 1) & int(D(text))
    return int(D(text))  # OR / XOR into a zero accumulator


def _old_mod(a, b):
    result = a - b * (a / b).to_integral_value(decimal.ROUND_DOWN)
    return int(result) if result == result.to_integral_value() else result


def _old_round(value):
    try:
        result = value.quantize(D(1), rounding=decimal.ROUND_HALF_UP,
                                context=decimal.Context(prec=200))
    except decimal.InvalidOperation:
        return ("error", "ROUND result out of range")
    return ("ok", int(result))


def _old_decimal_div(a, b):
    try:
        return ("ok", int(DECIMAL_CONTEXT.divide_int(a, b)))
    except decimal.InvalidOperation:
        return ("error", f"decimal operation DIV failed for {a}, {b}")


#: (label, SQL, old formula) — ``big`` is the engine's value of
#: ``CEILING(REPEAT('1', n))`` (an integer) and ``wide`` its value of
#: ``CEILING(REPEAT('1', n)) + 0.5`` (a 200-digit-coefficient decimal)
SITES = [
    ("need_int/string", "TRY_CAST_INT(REPEAT('1', {n}))",
     lambda n, big, wide: ("ok", int(D("1" * n)))),
    ("need_int/integer", "TRY_CAST_INT(CEILING(REPEAT('1', {n})))",
     lambda n, big, wide: ("ok", int(D(big.value).to_integral_value(decimal.ROUND_DOWN)))),
    ("need_int/decimal", "TRY_CAST_INT(CEILING(REPEAT('1', {n})) + 0.5)",
     lambda n, big, wide: ("ok", int(wide.value.to_integral_value(decimal.ROUND_DOWN)))),
    ("ceil", "CEIL(REPEAT('1', {n}) || '.5')",
     lambda n, big, wide: ("ok", int(D("1" * n + ".5").to_integral_value(decimal.ROUND_CEILING)))),
    ("ceil/negative", "CEIL('-' || REPEAT('1', {n}) || '.5')",
     lambda n, big, wide: ("ok", int(D("-" + "1" * n + ".5").to_integral_value(decimal.ROUND_CEILING)))),
    ("floor", "FLOOR(REPEAT('1', {n}) || '.5')",
     lambda n, big, wide: ("ok", int(D("1" * n + ".5").to_integral_value(decimal.ROUND_FLOOR)))),
    ("floor/negative", "FLOOR('-' || REPEAT('1', {n}) || '.5')",
     lambda n, big, wide: ("ok", int(D("-" + "1" * n + ".5").to_integral_value(decimal.ROUND_FLOOR)))),
    ("round", "ROUND(CEILING(REPEAT('1', {n})) + 0.5)",
     lambda n, big, wide: _old_round(wide.value)),
    ("mod", "MOD(REPEAT('1', {n}), 7)",
     lambda n, big, wide: ("ok", _old_mod(D("1" * n), D(7)))),
    ("sum", "SUM(REPEAT('1', {n}))",
     lambda n, big, wide: ("ok", int(sum([D("1" * n)], D(0))))),
    ("bit_and", "BIT_AND(REPEAT('1', {n}))", lambda n, big, wide: ("ok", _bit("and", n))),
    ("bit_or", "BIT_OR(REPEAT('1', {n}))", lambda n, big, wide: ("ok", _bit("or", n))),
    ("bit_xor", "BIT_XOR(REPEAT('1', {n}))", lambda n, big, wide: ("ok", _bit("xor", n))),
    ("array_sum", "ARRAY_SUM([CEILING(REPEAT('1', {n}))])",
     lambda n, big, wide: ("ok", int(D(0) + D(big.value)))),
    ("cast/decimal->bigint", "CAST(CEILING(REPEAT('1', {n})) + 0.5 AS BIGINT)",
     lambda n, big, wide: ("error", "integer value "
                           f"{_rendered(int(wide.value.to_integral_value(decimal.ROUND_DOWN)))}"
                           " out of 64-bit range")),
    ("cast/string->bigint", "CAST(REPEAT('1', {n}) AS BIGINT)",
     lambda n, big, wide: ("error", f"integer value {_rendered(int(D('1' * n)))} out of 64-bit range")),
    ("cast/json", "CAST(CEILING(REPEAT('1', {n})) * 1.0 AS JSON)",
     lambda n, big, wide: ("ok", int(DECIMAL_CONTEXT.multiply(D(big.value), D("1.0"))))),
    ("interval", "INTERVAL ABS(CEILING(REPEAT('1', {n})) + 0.5) DAY",
     lambda n, big, wide: ("ok", (0, int(abs(wide.value)), 0))),
    ("index/array", "[1, 2, 3][CEILING(REPEAT('1', {n})) + 0.5]",
     lambda n, big, wide: ("ok", None if int(wide.value) > 3 else int(wide.value))),
    ("index/string", "'abc'[CEILING(REPEAT('1', {n})) + 0.5]",
     lambda n, big, wide: ("ok", None if int(wide.value) > 3 else int(wide.value))),
    ("index/json", "CAST('[1, 2]' AS JSON)[CEILING(REPEAT('1', {n})) + 0.5]",
     lambda n, big, wide: ("ok", None if int(wide.value) > 1 else int(wide.value))),
    ("bitop/decimal", "(CEILING(REPEAT('1', {n})) + 0.5) | 0",
     lambda n, big, wide: ("ok", int(wide.value) | 0)),
    ("bitop/integer", "CEILING(REPEAT('1', {n})) | 0",
     lambda n, big, wide: ("ok", int(D(big.value)) | 0)),
    ("integer arith", "CEILING(REPEAT('1', {n})) - CEILING(REPEAT('1', {n}))",
     lambda n, big, wide: ("ok", int(D(big.value)) - int(D(big.value)))),
    ("integer divide", "CEILING(REPEAT('1', {n})) / 1",
     lambda n, big, wide: ("ok", int(DECIMAL_CONTEXT.divide(D(big.value), D(1))))),
    ("decimal DIV", "(CEILING(REPEAT('1', {n})) + 0.5) DIV 3",
     lambda n, big, wide: _old_decimal_div(wide.value, D(3))),
    ("limit", "1 LIMIT CEILING(REPEAT('1', {n}))",
     lambda n, big, wide: ("ok", 1)),
]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("label,template,old", SITES, ids=[s[0] for s in SITES])
def test_site_matches_old_formula(conn, operands, n, label, template, old):
    big, wide = operands(n)
    assert _outcome(conn, f"SELECT {template.format(n=n)};") == old(n, big, wide)


# ---------------------------------------------------------------------------
# exact integer % and DIV; the int<->str limit never escapes
# ---------------------------------------------------------------------------
#: statement -> the exact value (None: a handled error is the only answer)
REPROS = {
    "SELECT 9223372036854775807 % 10;": 7,
    "SELECT 4611686018427387905 % 3;": 2,
    "SELECT 9223372036854775807 DIV 10;": 922337203685477580,
    "SELECT -7 % 3;": -1,
    "SELECT 7 DIV -2;": -3,
    "SELECT CEILING(REPEAT('1', 400)) % 3;": 1,
    "SELECT CAST(REPEAT('1', 5000) AS BIGINT);": None,
    "SELECT CEILING(REPEAT('1', 5000)) + 0;": None,
    "SELECT CAST(REPEAT('9', 5000) AS DECIMAL);": None,
    "SELECT 3 << -1;": None,
}


@pytest.mark.parametrize("cls", all_dialect_classes(), ids=lambda c: c.name)
def test_repros_are_exact_or_handled(cls):
    conn = cls().create_server().connect()
    for sql, expected in REPROS.items():
        try:
            result = conn.execute(sql)
            fingerprint_result(result)
        except SQLError:
            continue
        assert expected is not None, sql
        cell = result.rows[0][0]
        assert isinstance(cell, SQLInteger) and cell.value == expected, sql


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter renders integers of any length",
)
@pytest.mark.parametrize("cls", all_dialect_classes(), ids=lambda c: c.name)
def test_unrenderable_integers_are_handled_errors(cls):
    conn = cls().create_server().connect()
    try:
        result = conn.execute("SELECT CEILING(REPEAT('1', 99999));")
    except (SQLError, ServerCrashed):
        return  # no CEILING/REPEAT here, or an injected crash on it
    with pytest.raises(SQLError, match="too large to render"):
        fingerprint_result(result)
    for sql in (
        "SELECT CAST(CEILING(REPEAT('1', 99999)) AS VARCHAR);",
        "SELECT CAST(CEILING(REPEAT('1', 5000)) AS JSON);",
    ):
        with pytest.raises(SQLError):
            fingerprint_result(conn.execute(sql))


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter renders integers of any length",
)
@pytest.mark.parametrize("fingerprint_read_first", [False, True])
def test_unrenderable_result_stays_ok_when_fingerprinting(
    monkeypatch, fingerprint_read_first
):
    # a statement that ran fine is ``ok`` whether or not an oracle has read
    # its fingerprint yet; one whose result cannot be rendered has none
    runner = Runner(dialect_by_name("duckdb"))
    stub = Result(columns=["x"], rows=[[SQLInteger(10 ** 5000)]])
    monkeypatch.setattr(runner.connection, "execute", lambda sql: stub)
    outcome = runner.run("SELECT 1;")
    if fingerprint_read_first:
        assert outcome.fingerprint is None
    assert outcome.kind == "ok", outcome.message
    assert outcome.result_type == "integer"
    assert outcome.fingerprint is None


# ---------------------------------------------------------------------------
# integer literals: exact values or handled errors, never Python exceptions
# ---------------------------------------------------------------------------
WIDE = "1" * 5000

#: statement -> the exact first cell (None: a handled error is the only
#: answer; ... : a value or a handled error, depending on the dialect)
LITERAL_REPROS = {
    "SELECT 0x;": None,
    f"SELECT 1{WIDE};": D(repunit(5001)),
    f"SELECT 1 LIMIT {WIDE};": 1,
    "SELECT CAST(1 AS DECIMAL(1e999));": None,
    f"SELECT CAST(1 AS DECIMAL({WIDE}));": None,
    "SELECT CAST(1 AS DECIMAL(0x1F));": None,
    f"SELECT SUBSTR('abc', {WIDE});": ...,
    f"SELECT [1, 2][{WIDE}];": ...,
}


@pytest.mark.parametrize("cls", all_dialect_classes(), ids=lambda c: c.name)
def test_integer_literals_are_exact_or_handled(cls):
    conn = cls().create_server().connect()
    for sql, expected in LITERAL_REPROS.items():
        try:
            result = conn.execute(sql)
            fingerprint_result(result)
        except SQLError:
            assert expected is None or expected is ..., sql
            continue
        except ServerCrashed:
            assert expected is ..., sql  # an injected crash on the call
            continue
        assert expected is not None, sql
        if expected is not ...:
            cell = result.rows[0][0]
            assert cell.value == DECIMAL_CONTEXT.plus(expected), sql


def test_order_by_a_wide_position_is_a_handled_error():
    conn = dialect_by_name("duckdb").create_server().connect()
    conn.execute("CREATE TABLE t0 (c0 INT);")
    conn.execute("INSERT INTO t0 VALUES (1), (2);")
    with pytest.raises(SQLError, match="ORDER BY position"):
        conn.execute(f"SELECT c0 FROM t0 ORDER BY {WIDE};")


def test_malformed_hex_literal_is_an_error_outcome():
    from repro.core.runner import Runner

    runner = Runner(dialect_by_name("postgresql"))
    outcome = runner.run("SELECT 0x;")
    assert outcome.kind == "error"
    assert "hexadecimal" in outcome.message
    assert runner.run("SELECT 0x1F + 1;").kind == "ok"


#: the repros wrapped in function calls, so seed collection picks them up
REPRO_SUITE = [
    "SELECT ABS(9223372036854775807 % 10);",
    "SELECT ABS(9223372036854775807 DIV 10);",
    "SELECT ABS(CEILING(REPEAT('1', 400)) % 3);",
    "SELECT SIGN(CEILING(REPEAT('1', 5000)) + 0);",
    "SELECT SIGN(CAST(REPEAT('1', 5000) AS BIGINT));",
    "SELECT LENGTH(CAST(CEILING(REPEAT('1', 99999)) AS VARCHAR));",
    "SELECT CEILING(REPEAT('1', 99999));",
]


@pytest.mark.parametrize("name", ["postgresql", "duckdb"])
def test_campaign_with_repros_runs_to_completion(name):
    base = type(dialect_by_name(name))

    class WithRepros(base):
        def test_suite(self):
            return REPRO_SUITE + super().test_suite()

    dialect = WithRepros()
    seeds = [seed.sql for seed in SeedCollector(dialect).collect()]
    assert "CEILING(REPEAT('1', 99999))" in seeds
    budget = len(seeds) + 200
    campaign = Campaign(
        dialect,
        config=CampaignConfig(budget=budget, oracles=("crash", "differential")),
    )
    result = campaign.run()
    assert result.queries_executed == budget


# ---------------------------------------------------------------------------
# non-finite numbers reaching JSON
# ---------------------------------------------------------------------------
#: statement -> the exact rendering (None: a handled error is the only answer)
NON_FINITE_JSON = {
    "SELECT CAST('[1e999]' AS JSON);": None,
    "SELECT JSON_EXTRACT('[1e999]', '$[0]');": None,
    "SELECT JSON_EXTRACT('{\"a\": -1e400}', '$.a');": None,
    "SELECT JSON_ARRAY(CAST('inf' AS DOUBLE));": None,
    "SELECT JSON_OBJECT('a', CAST('inf' AS DOUBLE));": None,
    "SELECT CAST(CAST('inf' AS DOUBLE) AS JSON);": None,
    "SELECT CAST(CAST('-inf' AS DOUBLE) AS JSON);": None,
    "SELECT CAST(CAST('NaN' AS DOUBLE) AS JSON);": None,
    # parsing is unchanged: 1e999 is valid JSON text
    "SELECT JSON_VALID('1e999');": "true",
    "SELECT JSON_LENGTH('[1e999]');": "1",
}


@pytest.mark.parametrize("cls", all_dialect_classes(), ids=lambda c: c.name)
def test_non_finite_json_is_exact_or_handled(cls):
    conn = cls().create_server().connect()
    for sql, expected in NON_FINITE_JSON.items():
        try:
            result = conn.execute(sql)
            fingerprint_result(result)
        except SQLError:
            assert expected is None, sql
            continue
        assert result.rows[0][0].render() == expected, sql


@pytest.mark.parametrize("name", ["mysql", "duckdb"])
def test_campaign_with_non_finite_json_runs_to_completion(name):
    base = type(dialect_by_name(name))

    class WithRepro(base):
        def test_suite(self):
            return [
                "SELECT JSON_EXTRACT(CAST('[1e999]' AS JSON), '$[0]');",
            ] + super().test_suite()

    dialect = WithRepro()
    seeds = [seed.sql for seed in SeedCollector(dialect).collect()]
    assert "JSON_EXTRACT(CAST('[1e999]' AS JSON), '$[0]')" in seeds
    budget = len(seeds) + 200
    campaign = Campaign(
        dialect,
        config=CampaignConfig(budget=budget, oracles=("crash", "differential")),
    )
    result = campaign.run()
    assert result.queries_executed == budget
