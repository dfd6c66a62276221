"""Argument-handling helpers shared by the built-in implementations.

The *reference* implementations are deliberately careful: they validate
argument counts, types, and ranges, and raise handled
:class:`~repro.engine.errors.SQLError` subclasses for anything off the rails
— this is the behaviour a fixed DBMS exhibits.  Dialects inject bugs by
replacing individual implementations with flawed variants that skip exactly
one of these checks.
"""

from __future__ import annotations

import decimal
from typing import Callable, List, Optional

from ..context import ExecutionContext
from ..errors import TypeError_, ValueError_
from ..values import (
    NULL,
    SQLArray,
    SQLBoolean,
    SQLBytes,
    SQLDate,
    SQLDateTime,
    SQLDecimal,
    SQLDouble,
    SQLInet,
    SQLInteger,
    SQLJson,
    SQLMap,
    SQLGeometry,
    SQLRow,
    SQLStarMarker,
    SQLString,
    SQLTime,
    SQLValue,
    SQLXml,
    decimal_to_int,
    is_numeric,
    numeric_as_decimal,
)

#: maximum string a well-behaved function will materialise
MAX_FUNC_STRING = 8 * 1024 * 1024


def reject_star(args: List[SQLValue], name: str) -> None:
    """Correct implementations refuse the smuggled ``*`` argument."""
    for arg in args:
        if isinstance(arg, SQLStarMarker):
            raise TypeError_(f"{name.upper()} does not accept '*' as an argument")


def any_null(args: List[SQLValue]) -> bool:
    return any(a.is_null for a in args)


def need_string(value: SQLValue, name: str) -> str:
    """Coerce to string the way most engines do for string functions."""
    if isinstance(value, SQLStarMarker):
        raise TypeError_(f"{name.upper()}: '*' is not a string")
    if isinstance(value, (SQLRow,)):
        raise TypeError_(f"{name.upper()}: ROW value where a string is expected")
    if value.is_null:
        raise TypeError_(f"{name.upper()}: NULL where a string is expected")
    if isinstance(value, SQLBytes):
        return value.value.decode("utf-8", "replace")
    return value.render()


def need_int(value: SQLValue, name: str) -> int:
    if isinstance(value, SQLStarMarker):
        raise TypeError_(f"{name.upper()}: '*' is not a number")
    if value.is_null:
        raise TypeError_(f"{name.upper()}: NULL where an integer is expected")
    if isinstance(value, SQLString):
        try:
            return decimal_to_int(decimal.Decimal(value.value.strip() or "0"))
        except decimal.InvalidOperation:
            raise ValueError_(f"{name.upper()}: invalid integer {value.value!r}")
    if not is_numeric(value):
        raise TypeError_(f"{name.upper()}: {value.type_name} where an integer is expected")
    if isinstance(value, SQLInteger):
        return int(value.value)
    return decimal_to_int(numeric_as_decimal(value).to_integral_value(decimal.ROUND_DOWN))


def need_decimal(value: SQLValue, name: str) -> decimal.Decimal:
    if isinstance(value, SQLStarMarker):
        raise TypeError_(f"{name.upper()}: '*' is not a number")
    if value.is_null:
        raise TypeError_(f"{name.upper()}: NULL where a number is expected")
    if isinstance(value, SQLString):
        try:
            return decimal.Decimal(value.value.strip() or "0")
        except decimal.InvalidOperation:
            return decimal.Decimal(0)
    return numeric_as_decimal(value)


def need_double(value: SQLValue, name: str) -> float:
    return float(need_decimal(value, name))


def need_bool(value: SQLValue, name: str) -> bool:
    if value.is_null:
        raise TypeError_(f"{name.upper()}: NULL where a boolean is expected")
    return value.as_bool()


def need_json(ctx: ExecutionContext, value: SQLValue, name: str):
    """Return the parsed JSON document for a JSON or string argument."""
    from ..json_impl import json_parse

    if isinstance(value, SQLJson):
        return value.document
    if isinstance(value, SQLString):
        return json_parse(
            value.value,
            stack=ctx.stack,
            max_depth=ctx.limits.json_max_depth,
            function=name,
        )
    raise TypeError_(f"{name.upper()}: {value.type_name} where JSON is expected")


def need_array(value: SQLValue, name: str) -> SQLArray:
    if isinstance(value, SQLArray):
        return value
    raise TypeError_(f"{name.upper()}: {value.type_name} where an array is expected")


def need_geometry(ctx: ExecutionContext, value: SQLValue, name: str):
    """Return the geometry shape for a geometry/WKT-string argument."""
    from ..geo import wkt_parse

    if isinstance(value, SQLGeometry):
        return value.shape
    if isinstance(value, SQLString):
        return wkt_parse(value.value)
    if isinstance(value, SQLBytes):
        from ..geo import geometry_from_bytes

        return geometry_from_bytes(value.value, validate=True)
    raise TypeError_(f"{name.upper()}: {value.type_name} where a geometry is expected")


def out_string(text: str, name: str) -> SQLString:
    """Wrap a produced string, enforcing the sane-size cap."""
    if len(text) > MAX_FUNC_STRING:
        from ..errors import ResourceError

        raise ResourceError(f"{name.upper()} result exceeds string size limit")
    return SQLString(text)


def out_int(value: int) -> SQLInteger:
    return SQLInteger(value)


def out_decimal(value: decimal.Decimal) -> SQLDecimal:
    return SQLDecimal(value)


def out_double(value: float) -> SQLDouble:
    if value != value:  # NaN
        return SQLDouble(float("nan"))
    return SQLDouble(value)


def out_bool(flag: bool) -> SQLBoolean:
    from ..values import FALSE, TRUE

    return TRUE if flag else FALSE


def null_propagating(name: str) -> Callable:
    """Decorator: return NULL when any argument is NULL (the common SQL
    convention), and reject the ``*`` marker before the body runs."""

    def wrapper(impl: Callable) -> Callable:
        def guarded(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            reject_star(args, name)
            if any_null(args):
                return NULL
            return impl(ctx, args)

        guarded.__name__ = f"fn_{name}"
        guarded.__qualname__ = f"fn_{name}"
        return guarded

    return wrapper


def nonnull_values(column: List[SQLValue]) -> List[SQLValue]:
    """Aggregate helper: drop NULLs (and reject stray stars)."""
    return [v for v in column if not v.is_null and not isinstance(v, SQLStarMarker)]
