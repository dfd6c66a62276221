"""Unit and property tests for the runtime value model."""

import decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import TypeError_, ValueError_
from repro.engine.values import (
    FALSE,
    NULL,
    TRUE,
    SQLArray,
    SQLBoolean,
    SQLBytes,
    SQLDate,
    SQLDateTime,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLInterval,
    SQLMap,
    SQLRow,
    SQLString,
    SQLTime,
    civil_from_days,
    days_from_civil,
    days_in_month,
    is_leap_year,
    numeric_as_decimal,
    validate_civil,
)


class TestScalars:
    def test_null_is_null(self):
        assert NULL.is_null
        assert NULL.render() == "NULL"

    def test_boolean_render(self):
        assert TRUE.render() == "true"
        assert FALSE.render() == "false"

    def test_integer_render(self):
        assert SQLInteger(-42).render() == "-42"

    def test_decimal_render_not_scientific(self):
        value = SQLDecimal(decimal.Decimal("1E+5"))
        assert value.render() == "100000"

    def test_decimal_digit_accounting(self):
        value = SQLDecimal.from_text("123.4567")
        assert value.integer_digits == 3
        assert value.fraction_digits == 4
        assert value.total_digits == 7

    def test_decimal_zero_has_one_integer_digit(self):
        assert SQLDecimal.from_text("0.5").integer_digits == 1

    def test_decimal_invalid_literal(self):
        with pytest.raises(ValueError_):
            SQLDecimal.from_text("not-a-number")

    def test_string_as_bool(self):
        assert SQLString("yes").as_bool()
        assert not SQLString("").as_bool()

    def test_bytes_render_hex(self):
        assert SQLBytes(b"\xff\x00").render() == "0xFF00"

    def test_numeric_cross_type_equality(self):
        assert SQLInteger(5) == SQLDecimal(decimal.Decimal(5))

    def test_numeric_as_decimal_rejects_strings(self):
        with pytest.raises(TypeError_):
            numeric_as_decimal(SQLString("5"))

    def test_row_as_bool_raises(self):
        with pytest.raises(TypeError_):
            SQLRow((SQLInteger(1),)).as_bool()


class TestContainers:
    def test_array_render_quotes_strings(self):
        arr = SQLArray((SQLString("a'b"), SQLInteger(1)))
        assert arr.render() == "['a''b', 1]"

    def test_map_lookup(self):
        mapping = SQLMap((SQLInteger(1),), (SQLString("x"),))
        assert mapping.lookup(SQLInteger(1)) == SQLString("x")
        assert mapping.lookup(SQLInteger(2)) is None

    def test_row_render(self):
        assert SQLRow((SQLInteger(1), SQLInteger(2))).render() == "(1, 2)"

    def test_array_hashable(self):
        a = SQLArray((SQLInteger(1),))
        b = SQLArray((SQLInteger(1),))
        assert hash(a) == hash(b)
        assert a == b


class TestCalendar:
    def test_epoch(self):
        assert days_from_civil(1970, 1, 1) == 0
        assert civil_from_days(0) == (1970, 1, 1)

    def test_known_date(self):
        # 2024-06-15 is 19889 days after the epoch
        assert days_from_civil(2024, 6, 15) == 19889

    def test_leap_years(self):
        assert is_leap_year(2024)
        assert not is_leap_year(2023)
        assert not is_leap_year(1900)
        assert is_leap_year(2000)

    def test_days_in_month_february(self):
        assert days_in_month(2024, 2) == 29
        assert days_in_month(2023, 2) == 28

    def test_validate_rejects_bad_day(self):
        with pytest.raises(ValueError_):
            validate_civil(2023, 2, 29)

    def test_validate_rejects_bad_month(self):
        with pytest.raises(ValueError_):
            validate_civil(2023, 13, 1)

    def test_date_render(self):
        assert SQLDate(2024, 6, 15).render() == "2024-06-15"

    def test_date_from_days_out_of_range(self):
        with pytest.raises(ValueError_):
            SQLDate.from_days(10**9)

    def test_time_render_with_microseconds(self):
        assert SQLTime(1, 2, 3, 450000).render() == "01:02:03.45"

    def test_datetime_sort_before_after(self):
        early = SQLDateTime(SQLDate(2020, 1, 1), SQLTime(0, 0, 0))
        late = SQLDateTime(SQLDate(2020, 1, 1), SQLTime(0, 0, 1))
        assert early.sort_key() < late.sort_key()

    def test_interval_render(self):
        assert SQLInterval(months=1, days=2).render() == "1 mon 2 day"

    @given(st.integers(min_value=-1_000_000, max_value=1_000_000))
    @settings(max_examples=200)
    def test_civil_round_trip(self, days):
        """days -> (y, m, d) -> days is the identity."""
        year, month, day = civil_from_days(days)
        assert days_from_civil(year, month, day) == days

    @given(
        st.integers(min_value=1, max_value=9999),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=28),
    )
    @settings(max_examples=200)
    def test_civil_inverse(self, year, month, day):
        assert civil_from_days(days_from_civil(year, month, day)) == (
            year, month, day
        )

    @given(st.integers(min_value=-100_000, max_value=100_000))
    def test_consecutive_days_are_consecutive_dates(self, days):
        y1, m1, d1 = civil_from_days(days)
        y2, m2, d2 = civil_from_days(days + 1)
        assert (y2, m2, d2) != (y1, m1, d1)
        assert days_from_civil(y2, m2, d2) - days_from_civil(y1, m1, d1) == 1

    @pytest.mark.parametrize("days, civil", [
        (-719469, (0, 2, 29)),
        (-719470, (0, 2, 28)),
        (-719529, (-1, 12, 31)),
        (-719894, (-2, 12, 31)),
        (-4371587, (-9999, 1, 1)),
    ])
    def test_civil_before_march_of_year_zero(self, days, civil):
        """Floor division already rounds negative eras down; no C-style
        pre-adjustment may be applied on top of it."""
        assert civil_from_days(days) == civil
        assert days_from_civil(*civil) == days


class TestSortKeys:
    @given(st.integers(), st.integers())
    def test_integer_ordering_matches_python(self, a, b):
        if a == b:
            assert SQLInteger(a).sort_key() == SQLInteger(b).sort_key()
        else:
            assert (SQLInteger(a).sort_key() < SQLInteger(b).sort_key()) == (a < b)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_string_ordering_matches_python(self, a, b):
        assert (SQLString(a).sort_key() < SQLString(b).sort_key()) == (a < b) or a == b
