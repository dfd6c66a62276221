"""Reference implementations of the array function family (DuckDB /
ClickHouse style)."""

from __future__ import annotations

from typing import List

from ..context import ExecutionContext
from ..errors import TypeError_, ValueError_
from ..values import NULL, SQLArray, SQLInteger, SQLValue
from .helpers import need_array, need_int, null_propagating, out_bool, out_int, reject_star
from .registry import FunctionRegistry


def register_array(reg: FunctionRegistry) -> None:
    define = reg.define

    @define("array_length", "array", min_args=1, max_args=2,
            signature="ARRAY_LENGTH(arr)", doc="Number of elements.",
            examples=["ARRAY_LENGTH([1, 2, 3])"])
    @null_propagating("array_length")
    def fn_array_length(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_int(len(need_array(args[0], "array_length").items))

    reg.alias("array_length", "cardinality", "len")

    @define("array_append", "array", min_args=2, max_args=2,
            signature="ARRAY_APPEND(arr, value)", doc="Append an element.",
            examples=["ARRAY_APPEND([1], 2)"])
    def fn_array_append(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "array_append")
        if args[0].is_null:
            return NULL
        arr = need_array(args[0], "array_append")
        return SQLArray(arr.items + (args[1],))

    @define("array_prepend", "array", min_args=2, max_args=2,
            signature="ARRAY_PREPEND(value, arr)", doc="Prepend an element.",
            examples=["ARRAY_PREPEND(0, [1])"])
    def fn_array_prepend(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "array_prepend")
        if args[1].is_null:
            return NULL
        arr = need_array(args[1], "array_prepend")
        return SQLArray((args[0],) + arr.items)

    @define("array_concat", "array", min_args=2,
            signature="ARRAY_CONCAT(arr, arr, ...)", doc="Concatenate arrays.",
            examples=["ARRAY_CONCAT([1], [2, 3])"])
    @null_propagating("array_concat")
    def fn_array_concat(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        items: tuple = ()
        for arg in args:
            items += need_array(arg, "array_concat").items
        return SQLArray(items)

    reg.alias("array_concat", "array_cat")

    @define("array_contains", "array", min_args=2, max_args=2,
            signature="ARRAY_CONTAINS(arr, value)", doc="Membership test.",
            examples=["ARRAY_CONTAINS([1, 2], 2)"])
    def fn_array_contains(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "array_contains")
        if args[0].is_null:
            return NULL
        arr = need_array(args[0], "array_contains")
        needle = args[1]
        return out_bool(any(item == needle for item in arr.items))

    reg.alias("array_contains", "has", "list_contains")

    @define("array_position", "array", min_args=2, max_args=2,
            signature="ARRAY_POSITION(arr, value)",
            doc="1-based index of the first match, 0 when absent.",
            examples=["ARRAY_POSITION([1, 2], 2)"])
    @null_propagating("array_position")
    def fn_array_position(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        arr = need_array(args[0], "array_position")
        for idx, item in enumerate(arr.items, start=1):
            if item == args[1]:
                return out_int(idx)
        return out_int(0)

    reg.alias("array_position", "indexof", "list_position")

    @define("array_slice", "array", min_args=3, max_args=3,
            signature="ARRAY_SLICE(arr, begin, end)",
            doc="1-based inclusive slice.",
            examples=["ARRAY_SLICE([1, 2, 3, 4], 2, 3)"])
    @null_propagating("array_slice")
    def fn_array_slice(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        arr = need_array(args[0], "array_slice")
        begin = need_int(args[1], "array_slice")
        end = need_int(args[2], "array_slice")
        n = len(arr.items)
        if begin < 0:
            begin = n + begin + 1
        if end < 0:
            end = n + end + 1
        begin = max(begin, 1)
        end = min(end, n)
        if begin > end:
            return SQLArray(())
        return SQLArray(arr.items[begin - 1 : end])

    reg.alias("array_slice", "list_slice")

    @define("array_reverse", "array", min_args=1, max_args=1,
            signature="ARRAY_REVERSE(arr)", doc="Reverse the elements.",
            examples=["ARRAY_REVERSE([1, 2, 3])"])
    @null_propagating("array_reverse")
    def fn_array_reverse(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return SQLArray(tuple(reversed(need_array(args[0], "array_reverse").items)))

    @define("array_distinct", "array", min_args=1, max_args=1,
            signature="ARRAY_DISTINCT(arr)", doc="Drop duplicate elements.",
            examples=["ARRAY_DISTINCT([1, 1, 2])"])
    @null_propagating("array_distinct")
    def fn_array_distinct(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        seen = set()
        out = []
        for item in need_array(args[0], "array_distinct").items:
            key = item.sort_key()
            if key not in seen:
                seen.add(key)
                out.append(item)
        return SQLArray(tuple(out))

    @define("array_sort", "array", min_args=1, max_args=1,
            signature="ARRAY_SORT(arr)", doc="Sort ascending (NULLs first).",
            examples=["ARRAY_SORT([3, 1, 2])"])
    @null_propagating("array_sort")
    def fn_array_sort(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        items = list(need_array(args[0], "array_sort").items)
        items.sort(key=lambda v: v.sort_key())
        return SQLArray(tuple(items))

    @define("element_at", "array", min_args=2, max_args=2,
            signature="ELEMENT_AT(arr, index)", doc="1-based element access.",
            examples=["ELEMENT_AT([1, 2], 2)"])
    @null_propagating("element_at")
    def fn_element_at(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        from ..values import SQLMap

        if isinstance(args[0], SQLMap):
            found = args[0].lookup(args[1])
            return found if found is not None else NULL
        arr = need_array(args[0], "element_at")
        index = need_int(args[1], "element_at")
        if index < 0:
            index = len(arr.items) + index + 1
        if 1 <= index <= len(arr.items):
            return arr.items[index - 1]
        raise ValueError_(f"ELEMENT_AT index {index} out of bounds")

    reg.alias("element_at", "array_extract", "list_extract", "arrayelement")

    @define("array_sum", "array", min_args=1, max_args=1,
            signature="ARRAY_SUM(arr)", doc="Sum of numeric elements.",
            examples=["ARRAY_SUM([1, 2, 3])"])
    @null_propagating("array_sum")
    def fn_array_sum(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        import decimal

        from ..values import SQLDecimal, decimal_to_int, is_numeric, numeric_as_decimal

        total = decimal.Decimal(0)
        for item in need_array(args[0], "array_sum").items:
            if item.is_null:
                continue
            if not is_numeric(item):
                raise TypeError_("ARRAY_SUM over non-numeric elements")
            total += numeric_as_decimal(item)
        if total == total.to_integral_value():
            return SQLInteger(decimal_to_int(total))
        return SQLDecimal(total)

    @define("array_min", "array", min_args=1, max_args=1,
            signature="ARRAY_MIN(arr)", doc="Smallest element.",
            examples=["ARRAY_MIN([3, 1])"])
    @null_propagating("array_min")
    def fn_array_min(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        from ..evaluator import compare_values

        items = [i for i in need_array(args[0], "array_min").items if not i.is_null]
        if not items:
            return NULL
        best = items[0]
        for item in items[1:]:
            if compare_values(ctx, item, best) < 0:
                best = item
        return best

    @define("array_max", "array", min_args=1, max_args=1,
            signature="ARRAY_MAX(arr)", doc="Largest element.",
            examples=["ARRAY_MAX([3, 1])"])
    @null_propagating("array_max")
    def fn_array_max(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        from ..evaluator import compare_values

        items = [i for i in need_array(args[0], "array_max").items if not i.is_null]
        if not items:
            return NULL
        best = items[0]
        for item in items[1:]:
            if compare_values(ctx, item, best) > 0:
                best = item
        return best

    @define("range", "array", min_args=1, max_args=3,
            signature="RANGE([start,] stop[, step])",
            doc="Array of integers in the half-open range.",
            examples=["RANGE(1, 5)"])
    @null_propagating("range")
    def fn_range(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        values = [need_int(a, "range") for a in args]
        if len(values) == 1:
            start, stop, step = 0, values[0], 1
        elif len(values) == 2:
            start, stop, step = values[0], values[1], 1
        else:
            start, stop, step = values
        if step == 0:
            raise ValueError_("RANGE step must not be zero")
        if abs(stop - start) // abs(step) > 1_000_000:
            from ..errors import ResourceError

            raise ResourceError("RANGE result too large")
        return SQLArray(tuple(SQLInteger(v) for v in range(start, stop, step)))

    reg.alias("range", "generate_series", "sequence_array")

    @define("array_flatten", "array", min_args=1, max_args=1,
            signature="ARRAY_FLATTEN(arr)", doc="Flatten one nesting level.",
            examples=["ARRAY_FLATTEN([[1], [2, 3]])"])
    @null_propagating("array_flatten")
    def fn_array_flatten(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        out: List[SQLValue] = []
        for item in need_array(args[0], "array_flatten").items:
            if isinstance(item, SQLArray):
                out.extend(item.items)
            else:
                out.append(item)
        return SQLArray(tuple(out))

    reg.alias("array_flatten", "flatten")
