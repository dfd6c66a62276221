"""Runtime value model for the simulated DBMS engines.

Every value flowing through the evaluator is a :class:`SQLValue`.  The model
covers the data types the paper's bugs exercise: fixed-width integers,
arbitrary-precision decimals, doubles, strings, bytes, booleans, dates and
times (hand-rolled proleptic-Gregorian arithmetic — no reliance on Python's
``datetime`` range), intervals, arrays, maps, rows, JSON and XML documents,
IPv4/IPv6 addresses, and WKT geometries.

Conversions that SQL performs implicitly live in
:mod:`repro.engine.casting`; this module only defines the values, their
rendering, and their comparison semantics.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .errors import TypeError_, ValueError_

#: Arbitrary-precision context for decimal computation.  Real DBMSs cap
#: decimal precision (MySQL: 65 digits); dialects enforce their own caps in
#: casting — the engine context is simply "wide enough".
DECIMAL_CONTEXT = decimal.Context(prec=200)


class SQLValue:
    """Base class for all runtime values."""

    type_name = "unknown"

    @property
    def is_null(self) -> bool:
        return False

    # -- conversions used by the evaluator --------------------------------
    def as_bool(self) -> bool:
        raise TypeError_(f"cannot use {self.type_name} as a boolean")

    def render(self) -> str:
        """Client-visible textual rendering (what a result row shows)."""
        raise NotImplementedError

    def sort_key(self) -> Tuple:
        """A tuple usable to order/group heterogeneous values."""
        return (self.type_name, self.render())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SQLValue) and self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash(self.sort_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.render()!r}>"


class SQLNull(SQLValue):
    """The SQL NULL value (one per engine is fine; identity not required)."""

    type_name = "null"

    @property
    def is_null(self) -> bool:
        return True

    def as_bool(self) -> bool:
        return False

    def render(self) -> str:
        return "NULL"

    def sort_key(self) -> Tuple:
        return ("\x00null",)


NULL = SQLNull()


@dataclass(frozen=True, eq=False)
class SQLBoolean(SQLValue):
    value: bool
    type_name = "boolean"

    def as_bool(self) -> bool:
        return self.value

    def render(self) -> str:
        return "true" if self.value else "false"

    def sort_key(self) -> Tuple:
        return ("bool", self.value)


TRUE = SQLBoolean(True)
FALSE = SQLBoolean(False)


@dataclass(frozen=True, eq=False)
class SQLInteger(SQLValue):
    """A 64-bit-style integer.  Width enforcement happens in casting."""

    value: int
    type_name = "integer"

    def as_bool(self) -> bool:
        return self.value != 0

    def render(self) -> str:
        return render_int(self.value)

    def sort_key(self) -> Tuple:
        return ("num", decimal.Decimal(self.value))


@dataclass(frozen=True, eq=False)
class SQLDecimal(SQLValue):
    """Arbitrary-precision decimal."""

    value: decimal.Decimal
    type_name = "decimal"

    @classmethod
    def from_text(cls, text: str) -> "SQLDecimal":
        try:
            return cls(DECIMAL_CONTEXT.create_decimal(text))
        except decimal.InvalidOperation as exc:
            raise ValueError_(f"invalid decimal literal {text!r}") from exc

    @property
    def integer_digits(self) -> int:
        """Digits left of the decimal point (at least 1 for '0')."""
        sign, digits, exponent = self.value.as_tuple()
        if isinstance(exponent, str):  # NaN / Inf
            return 1
        return max(len(digits) + exponent, 1)

    @property
    def fraction_digits(self) -> int:
        _, _, exponent = self.value.as_tuple()
        if isinstance(exponent, str):
            return 0
        return max(-exponent, 0)

    @property
    def total_digits(self) -> int:
        return self.integer_digits + self.fraction_digits

    def as_bool(self) -> bool:
        return self.value != 0

    def render(self) -> str:
        return format(self.value, "f")

    def sort_key(self) -> Tuple:
        return ("num", self.value)


@dataclass(frozen=True, eq=False)
class SQLDouble(SQLValue):
    value: float
    type_name = "double"

    def as_bool(self) -> bool:
        return self.value != 0.0

    def render(self) -> str:
        return repr(self.value)

    def sort_key(self) -> Tuple:
        try:
            return ("num", decimal.Decimal(self.value))
        except (decimal.InvalidOperation, OverflowError, ValueError):
            return ("num-special", repr(self.value))


@dataclass(frozen=True, eq=False)
class SQLString(SQLValue):
    value: str
    type_name = "string"

    def as_bool(self) -> bool:
        return bool(self.value) and self.value not in ("0", "false", "FALSE")

    def render(self) -> str:
        return self.value

    def sort_key(self) -> Tuple:
        return ("str", self.value)


@dataclass(frozen=True, eq=False)
class SQLBytes(SQLValue):
    value: bytes
    type_name = "bytes"

    def as_bool(self) -> bool:
        return bool(self.value)

    def render(self) -> str:
        return "0x" + self.value.hex().upper()

    def sort_key(self) -> Tuple:
        return ("bytes", self.value)


# ---------------------------------------------------------------------------
# temporal values — hand-rolled civil calendar (Howard Hinnant's algorithms)
# ---------------------------------------------------------------------------
def days_from_civil(year: int, month: int, day: int) -> int:
    """Days since 1970-01-01 for a proleptic-Gregorian civil date."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def civil_from_days(days: int) -> Tuple[int, int, int]:
    """Inverse of :func:`days_from_civil`."""
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + (3 if mp < 10 else -9)
    return year + (month <= 2), month, day


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


DAYS_IN_MONTH = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def days_in_month(year: int, month: int) -> int:
    if month == 2 and is_leap_year(year):
        return 29
    return DAYS_IN_MONTH[month - 1]


def validate_civil(year: int, month: int, day: int) -> None:
    if not 1 <= month <= 12:
        raise ValueError_(f"month {int_text(month)} out of range")
    if not 1 <= day <= days_in_month(year, month):
        raise ValueError_(f"day {int_text(day)} out of range for {int_text(year)}-{month:02d}")
    if not -9999 <= year <= 9999:
        raise ValueError_(f"year {int_text(year)} out of range")


@dataclass(frozen=True, eq=False)
class SQLDate(SQLValue):
    year: int
    month: int
    day: int
    type_name = "date"

    @classmethod
    def from_days(cls, days: int) -> "SQLDate":
        y, m, d = civil_from_days(days)
        if not -9999 <= y <= 9999:
            raise ValueError_(f"date out of range ({int_text(days)} days from epoch)")
        return cls(y, m, d)

    def to_days(self) -> int:
        return days_from_civil(self.year, self.month, self.day)

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"

    def sort_key(self) -> Tuple:
        return ("date", self.to_days(), 0)


@dataclass(frozen=True, eq=False)
class SQLTime(SQLValue):
    hour: int
    minute: int
    second: int
    microsecond: int = 0
    type_name = "time"

    def total_microseconds(self) -> int:
        return ((self.hour * 60 + self.minute) * 60 + self.second) * 1_000_000 + self.microsecond

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        base = f"{self.hour:02d}:{self.minute:02d}:{self.second:02d}"
        if self.microsecond:
            base += f".{self.microsecond:06d}".rstrip("0")
        return base

    def sort_key(self) -> Tuple:
        return ("time", self.total_microseconds())


@dataclass(frozen=True, eq=False)
class SQLDateTime(SQLValue):
    date: SQLDate
    time: SQLTime
    type_name = "datetime"

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        return f"{self.date.render()} {self.time.render()}"

    def sort_key(self) -> Tuple:
        return ("date", self.date.to_days(), self.time.total_microseconds())


@dataclass(frozen=True, eq=False)
class SQLInterval(SQLValue):
    """Mixed-unit interval: months are kept separate because a month has no
    fixed length in days."""

    months: int = 0
    days: int = 0
    microseconds: int = 0
    type_name = "interval"

    def as_bool(self) -> bool:
        return bool(self.months or self.days or self.microseconds)

    def render(self) -> str:
        parts = []
        if self.months:
            parts.append(f"{render_int(self.months)} mon")
        if self.days:
            parts.append(f"{render_int(self.days)} day")
        if self.microseconds or not parts:
            try:
                seconds = self.microseconds / 1_000_000
            except OverflowError:
                raise ValueError_("interval seconds out of range") from None
            parts.append(f"{seconds:g} sec")
        return " ".join(parts)

    def sort_key(self) -> Tuple:
        approx = (self.months * 30 + self.days) * 86_400_000_000 + self.microseconds
        return ("interval", approx)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SQLArray(SQLValue):
    items: Tuple[SQLValue, ...]
    type_name = "array"

    @classmethod
    def of(cls, items: Sequence[SQLValue]) -> "SQLArray":
        return cls(tuple(items))

    def as_bool(self) -> bool:
        return bool(self.items)

    def render(self) -> str:
        return "[" + ", ".join(render_quoted(v) for v in self.items) + "]"

    def sort_key(self) -> Tuple:
        return ("array", tuple(v.sort_key() for v in self.items))


@dataclass(frozen=True, eq=False)
class SQLMap(SQLValue):
    keys: Tuple[SQLValue, ...]
    values: Tuple[SQLValue, ...]
    type_name = "map"

    def as_bool(self) -> bool:
        return bool(self.keys)

    def lookup(self, key: SQLValue) -> Optional[SQLValue]:
        for k, v in zip(self.keys, self.values):
            if k == key:
                return v
        return None

    def render(self) -> str:
        pairs = ", ".join(
            f"{render_quoted(k)}: {render_quoted(v)}"
            for k, v in zip(self.keys, self.values)
        )
        return "{" + pairs + "}"

    def sort_key(self) -> Tuple:
        return (
            "map",
            tuple(k.sort_key() for k in self.keys),
            tuple(v.sort_key() for v in self.values),
        )


@dataclass(frozen=True, eq=False)
class SQLRow(SQLValue):
    """The ROW composite type.

    Note: most dialects do *not* define ordering for rows — the paper's
    MDEV-14596 crash came from comparing ROWs.  Comparison helpers in the
    evaluator must check :attr:`comparable` explicitly; the reference
    implementations raise :class:`TypeError_` when it is False.
    """

    items: Tuple[SQLValue, ...]
    type_name = "row"
    comparable = False

    def as_bool(self) -> bool:
        raise TypeError_("cannot use a ROW value as a boolean")

    def render(self) -> str:
        return "(" + ", ".join(render_quoted(v) for v in self.items) + ")"

    def sort_key(self) -> Tuple:
        return ("row", tuple(v.sort_key() for v in self.items))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class SQLJson(SQLValue):
    """A parsed JSON document (Python structure of dict/list/str/num/bool/None)."""

    document: Any
    type_name = "json"

    def as_bool(self) -> bool:
        return bool(self.document)

    def render(self) -> str:
        from .json_impl import json_serialize

        return json_serialize(self.document)

    def sort_key(self) -> Tuple:
        return ("json", self.render())


@dataclass(frozen=True, eq=False)
class SQLXml(SQLValue):
    """A parsed XML document (root :class:`repro.engine.xml_impl.XmlNode`)."""

    root: Any
    type_name = "xml"

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        return self.root.serialize()

    def sort_key(self) -> Tuple:
        return ("xml", self.render())


@dataclass(frozen=True, eq=False)
class SQLInet(SQLValue):
    """An IPv4 or IPv6 address held as its packed byte form."""

    packed: bytes  # 4 or 16 bytes
    type_name = "inet"

    @property
    def is_v6(self) -> bool:
        return len(self.packed) == 16

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        if not self.is_v6:
            return ".".join(str(b) for b in self.packed)
        groups = [
            f"{(self.packed[i] << 8) | self.packed[i + 1]:x}" for i in range(0, 16, 2)
        ]
        return ":".join(groups)

    def sort_key(self) -> Tuple:
        return ("inet", self.packed)


@dataclass(frozen=True, eq=False)
class SQLGeometry(SQLValue):
    """A geometry value (see :mod:`repro.engine.geo`)."""

    shape: Any
    type_name = "geometry"

    def as_bool(self) -> bool:
        return True

    def render(self) -> str:
        return self.shape.to_wkt()

    def sort_key(self) -> Tuple:
        return ("geometry", self.render())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def render_quoted(value: SQLValue) -> str:
    """Render nested values the way container renderings quote strings."""
    if isinstance(value, SQLString):
        return "'" + value.value.replace("'", "''") + "'"
    return value.render()


def is_numeric(value: SQLValue) -> bool:
    return isinstance(value, (SQLInteger, SQLDecimal, SQLDouble, SQLBoolean))


def numeric_as_decimal(value: SQLValue) -> decimal.Decimal:
    """Widen any numeric value to Decimal for mixed arithmetic."""
    if isinstance(value, SQLInteger):
        return decimal.Decimal(value.value)
    if isinstance(value, SQLDecimal):
        return value.value
    if isinstance(value, SQLDouble):
        try:
            return decimal.Decimal(repr(value.value))
        except decimal.InvalidOperation as exc:
            raise ValueError_(f"non-finite double {value.value!r}") from exc
    if isinstance(value, SQLBoolean):
        return decimal.Decimal(1 if value.value else 0)
    raise TypeError_(f"{value.type_name} is not numeric")


# ---------------------------------------------------------------------------
# the big-number boundary: Decimal / digit text -> int
#
# The boundary patterns feed built-ins 10^5-digit numeric strings, and
# CPython converts those to int in quadratic time: ``int(Decimal)`` takes
# ~0.4 s at 10^5 digits, and ``int(str)`` refuses more than 4,300 digits.
# Every engine site that turns a Decimal or a digit string into an int goes
# through these two functions instead.  Both are exact; below a few
# thousand digits they are the plain built-in call.
# ---------------------------------------------------------------------------
#: digit-text length that ``int()`` converts directly (under 4,300, the
#: interpreter's default int<->str limit)
_INT_CHUNK_DIGITS = 2000
#: integer digits below which ``int(Decimal)`` is already cheap
_INT_FAST_DIGITS = 3000


def digits_to_int(text: str) -> int:
    """Exactly ``int(text)`` for a string of decimal digits of any length.

    Divide and conquer: the high half times ``10**k`` plus the low ``k``
    digits, with ``10**k`` formed as ``5**k << k``.  With Karatsuba
    multiplication this is subquadratic, and it never meets the
    interpreter's int<->str digit limit.  The powers are memoized for this
    call only.
    """
    if len(text) <= _INT_CHUNK_DIGITS:
        return int(text)
    fives: Dict[int, int] = {}

    def convert(start: int, end: int) -> int:
        if end - start <= _INT_CHUNK_DIGITS:
            return int(text[start:end])
        mid = (start + end + 1) // 2
        width = end - mid
        power = fives.get(width)
        if power is None:
            power = fives[width] = 5 ** width
        return convert(mid, end) + ((convert(start, mid) * power) << width)

    return convert(0, len(text))


def decimal_to_int(value: decimal.Decimal) -> int:
    """Exactly ``int(value)``: truncation toward zero, ``-0`` gives 0, and
    NaN/Infinity raise the same ``ValueError``/``OverflowError``."""
    if not value.is_finite() or value.adjusted() < _INT_FAST_DIGITS:
        return int(value)
    whole = format(value, "f").partition(".")[0]
    if whole[0] == "-":
        return -digits_to_int(whole[1:])
    return digits_to_int(whole)


def numeric_as_int(value: SQLValue) -> int:
    """``int(numeric_as_decimal(value))`` without widening integers first
    (``Decimal(int)`` is quadratic too)."""
    if isinstance(value, SQLInteger):
        return int(value.value)
    return decimal_to_int(numeric_as_decimal(value))


def render_int(value: int) -> str:
    """``str(value)``; past the interpreter's int->str digit limit a
    handled :class:`ValueError_` (a client would see an out-of-range error)."""
    try:
        return str(value)
    except ValueError:
        raise ValueError_(
            f"integer of {value.bit_length()} bits is too large to render"
        ) from None


def int_text(value: int) -> str:
    """``str(value)`` for messages, abbreviated past the int->str limit."""
    try:
        return str(value)
    except ValueError:
        return f"integer of {value.bit_length()} bits"


class SQLStarMarker(SQLValue):
    """The bare ``*`` smuggled into an argument position.

    ``COUNT(*)`` consumes the star before evaluation; any other function
    receiving one must reject it (``TypeError_``).  The paper's Virtuoso
    CONTAINS crash (Listing 7) is exactly a function that forgot to."""

    type_name = "star"

    def as_bool(self) -> bool:
        raise TypeError_("'*' is not a value")

    def render(self) -> str:
        return "*"

    def sort_key(self) -> Tuple:
        return ("star",)


STAR_MARKER = SQLStarMarker()
