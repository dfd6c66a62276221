"""Reference implementations of the aggregate function family.

Aggregate implementations receive one list per argument; each list holds
that argument's value for every row in the group (``COUNT(*)`` receives the
star marker once per row).  The paper singles aggregates out as the second
most bug-prone family (Figure 1) because they must accept every data type.
"""

from __future__ import annotations

import decimal
from typing import List

from ..context import ExecutionContext
from ..errors import TypeError_, ValueError_
from ..values import (
    NULL,
    SQLArray,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLJson,
    SQLRow,
    SQLStarMarker,
    SQLString,
    SQLValue,
    decimal_to_int,
    is_numeric,
    numeric_as_decimal,
)
from .helpers import nonnull_values, out_bool, out_decimal, out_double, out_int, out_string
from .registry import FunctionRegistry

Columns = List[List[SQLValue]]


def _numeric_column(column: List[SQLValue], name: str) -> List[decimal.Decimal]:
    out: List[decimal.Decimal] = []
    for value in column:
        if value.is_null:
            continue
        if isinstance(value, SQLStarMarker):
            raise TypeError_(f"{name.upper()} cannot aggregate '*'")
        if isinstance(value, SQLString):
            try:
                out.append(decimal.Decimal(value.value.strip() or "0"))
            except decimal.InvalidOperation:
                out.append(decimal.Decimal(0))
            continue
        if not is_numeric(value):
            raise TypeError_(f"{name.upper()} cannot aggregate {value.type_name}")
        out.append(numeric_as_decimal(value))
    return out


def register_aggregate(reg: FunctionRegistry) -> None:
    define = reg.define

    @define("count", "aggregate", min_args=0, max_args=1, is_aggregate=True,
            signature="COUNT(*) | COUNT(expr)",
            doc="Row count (ignoring NULLs when given an expression).",
            examples=["COUNT(*)", "COUNT(1)"])
    def fn_count(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        if not columns:
            return out_int(0)
        column = columns[0]
        if column and isinstance(column[0], SQLStarMarker):
            return out_int(len(column))
        return out_int(len(nonnull_values(column)))

    @define("sum", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="SUM(expr)", doc="Sum of non-NULL values.",
            examples=["SUM(2)"])
    def fn_sum(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = _numeric_column(columns[0], "sum")
        if not values:
            return NULL
        total = sum(values, decimal.Decimal(0))
        if total == total.to_integral_value() and all(
            v == v.to_integral_value() for v in values
        ):
            return out_int(decimal_to_int(total))
        return out_decimal(total)

    @define("avg", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="AVG(expr)", doc="Average of non-NULL values.",
            examples=["AVG(1.5)"])
    def fn_avg(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = _numeric_column(columns[0], "avg")
        if not values:
            return NULL
        total = sum(values, decimal.Decimal(0))
        try:
            return out_decimal(
                decimal.Context(prec=65).divide(total, decimal.Decimal(len(values)))
            )
        except decimal.InvalidOperation:
            raise ValueError_("AVG result out of range")

    @define("min", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="MIN(expr)", doc="Minimum of non-NULL values.",
            examples=["MIN(3)"])
    def fn_min(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        from ..evaluator import compare_values

        values = nonnull_values(columns[0])
        if not values:
            return NULL
        best = values[0]
        for candidate in values[1:]:
            if compare_values(ctx, candidate, best) < 0:
                best = candidate
        return best

    @define("max", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="MAX(expr)", doc="Maximum of non-NULL values.",
            examples=["MAX(3)", "MAX('FF')"])
    def fn_max(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        from ..evaluator import compare_values

        values = nonnull_values(columns[0])
        if not values:
            return NULL
        best = values[0]
        for candidate in values[1:]:
            if compare_values(ctx, candidate, best) > 0:
                best = candidate
        return best

    @define("group_concat", "aggregate", min_args=1, max_args=2, is_aggregate=True,
            signature="GROUP_CONCAT(expr[, sep])",
            doc="Concatenate non-NULL values with a separator.",
            examples=["GROUP_CONCAT('a')"])
    def fn_group_concat(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = nonnull_values(columns[0])
        if not values:
            return NULL
        separator = ","
        if len(columns) > 1 and columns[1] and not columns[1][0].is_null:
            separator = columns[1][0].render()
        return out_string(separator.join(v.render() for v in values), "group_concat")

    reg.alias("group_concat", "string_agg", "listagg")

    @define("stddev", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="STDDEV(expr)", doc="Population standard deviation.",
            examples=["STDDEV(1)"])
    def fn_stddev(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = [float(v) for v in _numeric_column(columns[0], "stddev")]
        if not values:
            return NULL
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return out_double(variance ** 0.5)

    reg.alias("stddev", "stddev_pop", "std")

    @define("variance", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="VARIANCE(expr)", doc="Population variance.",
            examples=["VARIANCE(1)"])
    def fn_variance(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = [float(v) for v in _numeric_column(columns[0], "variance")]
        if not values:
            return NULL
        mean = sum(values) / len(values)
        return out_double(sum((v - mean) ** 2 for v in values) / len(values))

    reg.alias("variance", "var_pop")

    @define("median", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="MEDIAN(expr)", doc="Median of non-NULL values.",
            examples=["MEDIAN(2)"])
    def fn_median(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = sorted(float(v) for v in _numeric_column(columns[0], "median"))
        if not values:
            return NULL
        mid = len(values) // 2
        if len(values) % 2:
            return out_double(values[mid])
        return out_double((values[mid - 1] + values[mid]) / 2)

    @define("bit_and", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="BIT_AND(expr)", doc="Bitwise AND of all values.",
            examples=["BIT_AND(7)"])
    def fn_bit_and(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = _numeric_column(columns[0], "bit_and")
        if not values:
            return out_int((1 << 64) - 1)
        acc = (1 << 64) - 1
        for value in values:
            acc &= decimal_to_int(value)
        return out_int(acc)

    @define("bit_or", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="BIT_OR(expr)", doc="Bitwise OR of all values.",
            examples=["BIT_OR(1)"])
    def fn_bit_or(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = _numeric_column(columns[0], "bit_or")
        acc = 0
        for value in values:
            acc |= decimal_to_int(value)
        return out_int(acc)

    @define("bit_xor", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="BIT_XOR(expr)", doc="Bitwise XOR of all values.",
            examples=["BIT_XOR(3)"])
    def fn_bit_xor(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = _numeric_column(columns[0], "bit_xor")
        acc = 0
        for value in values:
            acc ^= decimal_to_int(value)
        return out_int(acc)

    @define("bool_and", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="BOOL_AND(expr)", doc="TRUE when every value is true.",
            examples=["BOOL_AND(TRUE)"])
    def fn_bool_and(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = nonnull_values(columns[0])
        if not values:
            return NULL
        return out_bool(all(v.as_bool() for v in values))

    reg.alias("bool_and", "every")

    @define("bool_or", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="BOOL_OR(expr)", doc="TRUE when any value is true.",
            examples=["BOOL_OR(FALSE)"])
    def fn_bool_or(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = nonnull_values(columns[0])
        if not values:
            return NULL
        return out_bool(any(v.as_bool() for v in values))

    @define("array_agg", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="ARRAY_AGG(expr)", doc="Collect values into an array.",
            examples=["ARRAY_AGG(1)"])
    def fn_array_agg(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = [v for v in columns[0] if not isinstance(v, SQLStarMarker)]
        return SQLArray(tuple(values))

    reg.alias("array_agg", "grouparray")

    @define("json_arrayagg", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="JSON_ARRAYAGG(expr)", doc="Collect values into a JSON array.",
            examples=["JSON_ARRAYAGG(1)"])
    def fn_json_arrayagg(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        from ..casting import _json_doc

        docs = [_json_doc(ctx, v) for v in columns[0] if not isinstance(v, SQLStarMarker)]
        return SQLJson(docs)

    @define("json_objectagg", "aggregate", min_args=2, max_args=2, is_aggregate=True,
            signature="JSON_OBJECTAGG(key, value)",
            doc="Collect key/value pairs into a JSON object.",
            examples=["JSON_OBJECTAGG('k', 1)"])
    def fn_json_objectagg(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        from ..casting import _json_doc

        keys, values = columns[0], columns[1]
        document = {}
        for key, value in zip(keys, values):
            if key.is_null or isinstance(key, SQLStarMarker):
                raise ValueError_("JSON_OBJECTAGG key must not be NULL")
            document[key.render()] = _json_doc(ctx, value)
        return SQLJson(document)

    reg.alias("json_objectagg", "jsonb_object_agg", "json_object_agg")

    @define("any_value", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="ANY_VALUE(expr)", doc="An arbitrary value from the group.",
            examples=["ANY_VALUE(1)"])
    def fn_any_value(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = nonnull_values(columns[0])
        return values[0] if values else NULL

    @define("count_distinct", "aggregate", min_args=1, max_args=1, is_aggregate=True,
            signature="COUNT_DISTINCT(expr)", doc="Count of distinct non-NULL values.",
            examples=["COUNT_DISTINCT(1)"])
    def fn_count_distinct(ctx: ExecutionContext, columns: Columns) -> SQLValue:
        values = nonnull_values(columns[0])
        return out_int(len({v.sort_key() for v in values}))
