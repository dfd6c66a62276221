"""The engine's big-number boundary (``decimal_to_int`` / ``digits_to_int``).

The boundary patterns feed built-ins 10^5-digit numeric strings.  These
tests pin three things:

* the two conversions are exactly ``int()``;
* every converted engine site computes what its old ``int(Decimal)``
  formula computed, at 5,000 and 99,999 digits;
* integers past the interpreter's 4,300-digit int<->str limit surface as
  handled SQL errors, never as raw Python exceptions, on every dialect and
  through a whole campaign.
"""

import decimal
import random
import sys

import pytest

from repro.core.campaign import Campaign
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.engine import ServerCrashed
from repro.engine.errors import SQLError
from repro.engine.fingerprint import fingerprint_result
from repro.engine.values import (
    DECIMAL_CONTEXT,
    NULL,
    SQLInteger,
    SQLInterval,
    SQLJson,
    decimal_to_int,
    digits_to_int,
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
