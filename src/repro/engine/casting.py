"""Type-casting machinery (explicit ``CAST`` and implicit coercions).

The paper identifies boundary *type castings* as the root cause of 23.3% of
studied bugs (§5.2): values survive the cast but produce broken internal
instances.  The reference implementations here are correct; dialects inject
flaws by overriding individual cast paths (see ``repro.dialects``).

Dialect-specific numeric limits (max decimal digits, integer widths) arrive
via the :class:`TypeLimits` on the execution context, mirroring how real
systems differ (MySQL caps DECIMAL at 65 digits, MonetDB at 38, ...).
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from ..sqlast import TypeName
from .errors import TypeError_, ValueError_
from .memory import INT32_MAX, INT32_MIN, INT64_MAX, INT64_MIN, UINT64_MAX
from .values import (
    DECIMAL_CONTEXT,
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
    SQLGeometry,
    SQLInet,
    SQLInteger,
    SQLInterval,
    SQLJson,
    SQLMap,
    SQLNull,
    SQLRow,
    SQLString,
    SQLTime,
    SQLValue,
    SQLXml,
    days_in_month,
    decimal_to_int,
    digits_to_int,
    int_text,
    is_numeric,
    numeric_as_decimal,
    validate_civil,
)

if TYPE_CHECKING:  # pragma: no cover
    from .context import ExecutionContext


@dataclass
class TypeLimits:
    """Per-dialect numeric and string limits."""

    decimal_max_digits: int = 65
    decimal_max_scale: int = 30
    varchar_default_length: int = 65535
    max_string_length: int = 16 * 1024 * 1024
    json_max_depth: Optional[int] = 128
    xml_max_depth: Optional[int] = 128


#: canonical spelling for each accepted type keyword
_TYPE_ALIASES = {
    "int": "integer", "integer": "integer", "bigint": "integer",
    "smallint": "integer", "tinyint": "integer", "int2": "integer",
    "int4": "integer", "int8": "integer", "int32": "integer",
    "int64": "integer", "serial": "integer",
    "signed": "integer", "unsigned": "unsigned", "uint64": "unsigned",
    "decimal": "decimal", "numeric": "decimal", "dec": "decimal",
    "number": "decimal",
    "float": "double", "double": "double", "real": "double",
    "double precision": "double", "float8": "double", "float4": "double",
    "varchar": "string", "char": "string", "text": "string",
    "string": "string", "character": "string", "nvarchar": "string",
    "clob": "string", "longtext": "string", "mediumtext": "string",
    "fixedstring": "string", "name": "string",
    "binary": "bytes", "varbinary": "bytes", "blob": "bytes",
    "bytea": "bytes", "longblob": "bytes",
    "bool": "boolean", "boolean": "boolean",
    "date": "date", "date32": "date",
    "time": "time",
    "datetime": "datetime", "timestamp": "datetime", "datetime64": "datetime",
    "interval": "interval",
    "json": "json", "jsonb": "json",
    "xml": "xml",
    "array": "array",
    "map": "map",
    "row": "row", "tuple": "row",
    "inet": "inet", "inet4": "inet", "inet6": "inet", "ipv4": "inet",
    "ipv6": "inet",
    "geometry": "geometry", "point": "geometry",
    "uuid": "string",
}

#: wide-decimal dialect spellings, e.g. ClickHouse Decimal256(45)
for _width in (32, 64, 128, 256):
    _TYPE_ALIASES[f"decimal{_width}"] = "decimal"


def canonical_type(type_name: TypeName) -> str:
    """Map a parsed type name to its canonical family, or raise."""
    key = type_name.key()
    family = _TYPE_ALIASES.get(key)
    if family is None:
        raise TypeError_(f"unknown type {type_name.name!r}")
    return family


def cast_value(ctx: "ExecutionContext", value: SQLValue, type_name: TypeName) -> SQLValue:
    """Cast *value* to *type_name* with SQL semantics.

    NULL casts to NULL for every target type.  Dialects hook individual
    paths by registering overrides on the context's ``cast_overrides``.
    """
    family = canonical_type(type_name)
    override = ctx.cast_overrides.get(family)
    if override is not None:
        result = override(ctx, value, type_name)
        if result is not None:
            return result
    if value.is_null:
        return NULL
    caster = _CASTERS.get(family)
    if caster is None:
        raise TypeError_(f"unsupported cast target {family!r}")
    return caster(ctx, value, type_name)


# ---------------------------------------------------------------------------
# individual cast paths
# ---------------------------------------------------------------------------
#: optional sign and leading decimal digits (``\d`` matches exactly the
#: characters ``int()`` accepts as digits)
_INTEGER_PREFIX = re.compile(r"([+-]?)(\d*)")


def _to_integer(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLInteger):
        result = value.value
    elif isinstance(value, (SQLDecimal, SQLDouble, SQLBoolean)):
        result = decimal_to_int(
            numeric_as_decimal(value).to_integral_value(decimal.ROUND_DOWN)
        )
    elif isinstance(value, SQLString):
        # SQL-style prefix parse: '12abc' -> 12, 'abc' -> 0
        sign, digits = _INTEGER_PREFIX.match(value.value.strip()).groups()
        result = digits_to_int(digits) if digits else 0
        if sign == "-":
            result = -result
    elif isinstance(value, SQLDate):
        result = value.year * 10000 + value.month * 100 + value.day
    elif isinstance(value, SQLBytes):
        result = int.from_bytes(value.value[-8:], "big") if value.value else 0
    else:
        raise TypeError_(f"cannot cast {value.type_name} to integer")
    if not INT64_MIN <= result <= INT64_MAX:
        raise ValueError_(f"integer value {int_text(result)} out of 64-bit range")
    return SQLInteger(result)


def _to_unsigned(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    signed = _to_integer(ctx, value, tn)
    assert isinstance(signed, SQLInteger)
    result = signed.value
    if result < 0:
        result += UINT64_MAX + 1  # two's-complement reinterpretation
    if result > UINT64_MAX:
        raise ValueError_(f"unsigned value {result} out of range")
    return SQLInteger(result)


def _to_decimal(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if is_numeric(value):
        dec = numeric_as_decimal(value)
    elif isinstance(value, SQLString):
        try:
            dec = DECIMAL_CONTEXT.create_decimal(value.value.strip() or "0")
        except decimal.InvalidOperation:
            dec = decimal.Decimal(0)
        if not dec.is_finite():
            dec = decimal.Decimal(0)
    else:
        raise TypeError_(f"cannot cast {value.type_name} to decimal")
    widths = {"decimal32": 9, "decimal64": 18, "decimal128": 38, "decimal256": 76}
    fixed_precision = widths.get(tn.key())
    if fixed_precision is not None:
        # ClickHouse-style DecimalN(S): precision fixed by width, param = scale
        precision = fixed_precision
        scale = tn.params[0] if tn.params else 0
    else:
        precision = tn.params[0] if tn.params else ctx.limits.decimal_max_digits
        scale = tn.params[1] if len(tn.params) > 1 else min(ctx.limits.decimal_max_scale, precision)
    if precision > ctx.limits.decimal_max_digits:
        raise ValueError_(
            f"decimal precision {precision} exceeds maximum "
            f"{ctx.limits.decimal_max_digits}"
        )
    if scale > precision:
        raise ValueError_(f"decimal scale {scale} exceeds precision {precision}")
    try:
        quantized = dec.quantize(
            decimal.Decimal(1).scaleb(-scale), context=DECIMAL_CONTEXT
        )
    except decimal.InvalidOperation:  # more digits than the context holds
        raise ValueError_(f"value does not fit DECIMAL({precision},{scale})") from None
    sign, digits, exponent = quantized.as_tuple()
    int_digits = max(len(digits) + exponent, 0)
    if int_digits > precision - scale:
        raise ValueError_(
            f"value {dec} does not fit DECIMAL({precision},{scale})"
        )
    return SQLDecimal(quantized)


def _to_double(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if is_numeric(value):
        try:
            return SQLDouble(float(numeric_as_decimal(value)))
        except OverflowError:
            raise ValueError_("value out of double range")
    if isinstance(value, SQLString):
        try:
            return SQLDouble(float(value.value.strip() or "0"))
        except ValueError:
            return SQLDouble(0.0)
    raise TypeError_(f"cannot cast {value.type_name} to double")


def _to_string(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    text = value.render()
    if tn.params:
        limit = tn.params[0]
        if len(text) > limit:
            text = text[:limit]
    if len(text) > ctx.limits.max_string_length:
        raise ValueError_("string exceeds maximum length")
    return SQLString(text)


def _to_bytes(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLBytes):
        return value
    if isinstance(value, SQLString):
        return SQLBytes(value.value.encode("utf-8", "surrogateescape"))
    if isinstance(value, SQLInteger):
        size = max((value.value.bit_length() + 7) // 8, 1)
        return SQLBytes(value.value.to_bytes(size, "big", signed=value.value < 0))
    if isinstance(value, SQLInet):
        return SQLBytes(value.packed)
    raise TypeError_(f"cannot cast {value.type_name} to bytes")


def _to_boolean(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLBoolean):
        return value
    if is_numeric(value):
        return TRUE if numeric_as_decimal(value) != 0 else FALSE
    if isinstance(value, SQLString):
        word = value.value.strip().lower()
        if word in ("t", "true", "yes", "on", "1"):
            return TRUE
        if word in ("f", "false", "no", "off", "0", ""):
            return FALSE
        raise ValueError_(f"invalid boolean literal {value.value!r}")
    raise TypeError_(f"cannot cast {value.type_name} to boolean")


def parse_date_text(text: str) -> SQLDate:
    parts = text.strip().replace("/", "-").split("-")
    if len(parts) != 3:
        raise ValueError_(f"invalid date literal {text!r}")
    try:
        year, month, day = (int(p) for p in parts)
    except ValueError:
        raise ValueError_(f"invalid date literal {text!r}")
    validate_civil(year, month, day)
    return SQLDate(year, month, day)


def parse_time_text(text: str) -> SQLTime:
    main, _, frac = text.strip().partition(".")
    parts = main.split(":")
    if len(parts) not in (2, 3):
        raise ValueError_(f"invalid time literal {text!r}")
    try:
        hour = int(parts[0])
        minute = int(parts[1])
        second = int(parts[2]) if len(parts) == 3 else 0
        micro = int((frac + "000000")[:6]) if frac else 0
    except ValueError:
        raise ValueError_(f"invalid time literal {text!r}")
    if not (0 <= hour < 24 and 0 <= minute < 60 and 0 <= second < 62):
        raise ValueError_(f"time {text!r} out of range")
    return SQLTime(hour, minute, min(second, 59), micro)


def parse_datetime_text(text: str) -> SQLDateTime:
    text = text.strip()
    sep = "T" if "T" in text else " "
    date_part, _, time_part = text.partition(sep)
    date = parse_date_text(date_part)
    time = parse_time_text(time_part) if time_part else SQLTime(0, 0, 0)
    return SQLDateTime(date, time)


def _to_date(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLDate):
        return value
    if isinstance(value, SQLDateTime):
        return value.date
    if isinstance(value, SQLString):
        return parse_date_text(value.value)
    if isinstance(value, SQLInteger):
        # YYYYMMDD integer form
        text = value.render()
        if len(text) == 8:
            year, month, day = int(text[:4]), int(text[4:6]), int(text[6:])
            validate_civil(year, month, day)
            return SQLDate(year, month, day)
        raise ValueError_(f"invalid integer date {value.value}")
    raise TypeError_(f"cannot cast {value.type_name} to date")


def _to_time(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLTime):
        return value
    if isinstance(value, SQLDateTime):
        return value.time
    if isinstance(value, SQLString):
        return parse_time_text(value.value)
    raise TypeError_(f"cannot cast {value.type_name} to time")


def _to_datetime(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLDateTime):
        return value
    if isinstance(value, SQLDate):
        return SQLDateTime(value, SQLTime(0, 0, 0))
    if isinstance(value, SQLString):
        return parse_datetime_text(value.value)
    raise TypeError_(f"cannot cast {value.type_name} to datetime")


def _to_json(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    from .json_impl import json_parse

    if isinstance(value, SQLJson):
        return value
    if isinstance(value, SQLString):
        document = json_parse(
            value.value,
            stack=ctx.stack,
            max_depth=ctx.limits.json_max_depth,
            function="cast_to_json",
        )
        return SQLJson(document)
    if is_numeric(value):
        dec = numeric_as_decimal(value)
        return SQLJson(decimal_to_int(dec) if dec == dec.to_integral_value() else float(dec))
    if isinstance(value, SQLBoolean):
        return SQLJson(value.value)
    if isinstance(value, SQLArray):
        return SQLJson([_json_doc(ctx, item) for item in value.items])
    raise TypeError_(f"cannot cast {value.type_name} to json")


def _json_doc(ctx: "ExecutionContext", value: SQLValue) -> object:
    if value.is_null:
        return None
    if isinstance(value, SQLJson):
        return value.document
    if isinstance(value, SQLBoolean):
        return value.value
    if isinstance(value, SQLInteger):
        return value.value
    if isinstance(value, (SQLDecimal, SQLDouble)):
        return float(numeric_as_decimal(value))
    if isinstance(value, SQLString):
        return value.value
    if isinstance(value, SQLArray):
        return [_json_doc(ctx, v) for v in value.items]
    if isinstance(value, SQLMap):
        return {k.render(): _json_doc(ctx, v) for k, v in zip(value.keys, value.values)}
    return value.render()


def _to_xml(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    from .xml_impl import xml_parse

    if isinstance(value, SQLXml):
        return value
    if isinstance(value, SQLString):
        document = xml_parse(
            value.value,
            stack=ctx.stack,
            max_depth=ctx.limits.xml_max_depth,
            function="cast_to_xml",
        )
        return SQLXml(document)
    raise TypeError_(f"cannot cast {value.type_name} to xml")


def _to_array(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLArray):
        return value
    if isinstance(value, SQLRow):
        return SQLArray(value.items)
    return SQLArray((value,))


def _to_map(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLMap):
        return value
    raise TypeError_(f"cannot cast {value.type_name} to map")


def _to_row(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLRow):
        return value
    return SQLRow((value,))


def parse_inet_text(text: str) -> SQLInet:
    text = text.strip()
    if ":" in text:
        return SQLInet(_parse_ipv6(text))
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError_(f"invalid IPv4 address {text!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError:
        raise ValueError_(f"invalid IPv4 address {text!r}")
    if any(not 0 <= o <= 255 for o in octets):
        raise ValueError_(f"IPv4 octet out of range in {text!r}")
    return SQLInet(bytes(octets))


def _parse_ipv6(text: str) -> bytes:
    if text.count("::") > 1:
        raise ValueError_(f"invalid IPv6 address {text!r}")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 0:
            raise ValueError_(f"invalid IPv6 address {text!r}")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise ValueError_(f"invalid IPv6 address {text!r}")
    out = bytearray()
    for group in groups:
        try:
            value = int(group or "0", 16)
        except ValueError:
            raise ValueError_(f"invalid IPv6 group {group!r}")
        if not 0 <= value <= 0xFFFF:
            raise ValueError_(f"IPv6 group out of range {group!r}")
        out += value.to_bytes(2, "big")
    return bytes(out)


def _to_inet(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLInet):
        return value
    if isinstance(value, SQLString):
        return parse_inet_text(value.value)
    if isinstance(value, SQLBytes) and len(value.value) in (4, 16):
        return SQLInet(value.value)
    raise TypeError_(f"cannot cast {value.type_name} to inet")


def _to_geometry(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    from .geo import geometry_from_bytes, wkt_parse

    if isinstance(value, SQLGeometry):
        return value
    if isinstance(value, SQLString):
        return SQLGeometry(wkt_parse(value.value))
    if isinstance(value, SQLBytes):
        geometry = geometry_from_bytes(value.value, validate=True)
        return SQLGeometry(geometry)
    raise TypeError_(f"cannot cast {value.type_name} to geometry")


def _to_interval(ctx: "ExecutionContext", value: SQLValue, tn: TypeName) -> SQLValue:
    if isinstance(value, SQLInterval):
        return value
    if isinstance(value, SQLInteger):
        return SQLInterval(days=value.value)
    raise TypeError_(f"cannot cast {value.type_name} to interval")


_CASTERS: Dict[str, Callable[["ExecutionContext", SQLValue, TypeName], SQLValue]] = {
    "integer": _to_integer,
    "unsigned": _to_unsigned,
    "decimal": _to_decimal,
    "double": _to_double,
    "string": _to_string,
    "bytes": _to_bytes,
    "boolean": _to_boolean,
    "date": _to_date,
    "time": _to_time,
    "datetime": _to_datetime,
    "json": _to_json,
    "xml": _to_xml,
    "array": _to_array,
    "map": _to_map,
    "row": _to_row,
    "inet": _to_inet,
    "geometry": _to_geometry,
    "interval": _to_interval,
}
