"""Scalar-expression evaluator.

Evaluates :mod:`repro.sqlast` expression trees to :mod:`repro.engine.values`
under an :class:`ExecutionContext` and an optional row scope.  Aggregate
function calls are evaluated over the evaluator's *group rows* (the executor
supplies them; a scalar ``SELECT AVG(1.5)`` evaluates over one virtual row,
which is exactly what the paper's single-statement PoCs rely on).
"""

from __future__ import annotations

import decimal
from typing import Dict, List, Optional, Sequence

from ..sqlast import nodes as n
from .casting import cast_value, parse_inet_text
from .context import ExecutionContext
from .errors import (
    DivisionByZeroError_,
    NameError_,
    TypeError_,
    ValueError_,
)
from .memory import fits_int64
from .values import (
    DECIMAL_CONTEXT,
    FALSE,
    NULL,
    STAR_MARKER,
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
    SQLJson,
    SQLNull,
    SQLRow,
    SQLString,
    SQLTime,
    SQLValue,
    civil_from_days,
    days_from_civil,
    days_in_month,
    decimal_to_int,
    int_text,
    is_numeric,
    numeric_as_decimal,
    numeric_as_int,
)


#: sentinel distinguishing "absent" from any bound value in scope lookups
_MISSING = object()


class RowScope:
    """Column-name → value binding for the current row."""

    __slots__ = ("columns", "parent")

    def __init__(
        self,
        columns: Optional[Dict[str, SQLValue]] = None,
        parent: Optional["RowScope"] = None,
        *,
        lowered: bool = False,
    ) -> None:
        # callers that built the dict from already-lowered keys (the
        # executor's binders) pass lowered=True to skip re-lowering
        if columns is None:
            self.columns: Dict[str, SQLValue] = {}
        elif lowered:
            self.columns = columns
        else:
            self.columns = {k.lower(): v for k, v in columns.items()}
        self.parent = parent

    def lookup(self, name: str) -> SQLValue:
        key = name.lower()
        # fast path: single-scope lookups (the overwhelmingly common case —
        # bare SELECTs and unjoined FROMs have no parent chain) resolve with
        # one dict probe and no loop
        found = self.columns.get(key, _MISSING)
        if found is not _MISSING:
            return found
        scope = self.parent
        while scope is not None:
            found = scope.columns.get(key, _MISSING)
            if found is not _MISSING:
                return found
            scope = scope.parent
        raise NameError_(f"unknown column {name!r}")

    def names(self) -> List[str]:
        return list(self.columns)


class Evaluator:
    """Evaluates expressions for one row (and one group, for aggregates)."""

    def __init__(
        self,
        ctx: ExecutionContext,
        scope: Optional[RowScope] = None,
        group_rows: Optional[List[RowScope]] = None,
    ) -> None:
        self.ctx = ctx
        self.scope = scope
        #: rows belonging to the current group; None means "not grouping",
        #: in which case an aggregate sees the single current row.
        self.group_rows = group_rows

    # ------------------------------------------------------------------
    def eval(self, expr: n.Expr) -> SQLValue:
        try:
            method = _DISPATCH[type(expr)]
        except KeyError:
            raise TypeError_(f"cannot evaluate {type(expr).__name__}") from None
        governor = self.ctx.governor
        if governor is None:
            return method(self, expr)
        # governed path: depth/cells/wall budgets tick once per evaluation
        governor.enter_eval()
        try:
            return method(self, expr)
        finally:
            governor.exit_eval()

    # -- literals ---------------------------------------------------------
    def _integer(self, expr: n.IntegerLit) -> SQLValue:
        value = expr.value
        if fits_int64(value):
            return SQLInteger(value)
        # literals wider than 64 bits become decimals, as real parsers do
        return SQLDecimal(DECIMAL_CONTEXT.create_decimal(value))

    def _decimal(self, expr: n.DecimalLit) -> SQLValue:
        text = expr.text
        if "e" in text.lower():
            try:
                return SQLDouble(float(text))
            except (ValueError, OverflowError):
                raise ValueError_(f"invalid float literal {text!r}")
        return SQLDecimal.from_text(text)

    def _string(self, expr: n.StringLit) -> SQLValue:
        return SQLString(expr.value)

    def _null(self, expr: n.NullLit) -> SQLValue:
        return NULL

    def _boolean(self, expr: n.BooleanLit) -> SQLValue:
        return TRUE if expr.value else FALSE

    def _star(self, expr: n.Star) -> SQLValue:
        return STAR_MARKER

    def _param(self, expr: n.ParamRef) -> SQLValue:
        raise TypeError_("positional parameters are not bound")

    # -- references ---------------------------------------------------------
    def _column(self, expr: n.ColumnRef) -> SQLValue:
        if self.scope is None:
            raise NameError_(f"unknown column {expr.name!r} (no FROM clause)")
        if len(expr.parts) > 1:
            # qualified references bind to the qualified slot first, so
            # `l.id = r.id` stays distinct after a join merges bindings
            try:
                return self.scope.lookup(".".join(expr.parts))
            except NameError_:
                return self.scope.lookup(expr.name)
        return self.scope.lookup(expr.name)

    # -- calls ---------------------------------------------------------------
    def _func(self, expr: n.FuncCall) -> SQLValue:
        definition = self.ctx.registry.lookup(expr.name)
        if definition.is_aggregate:
            return self._eval_aggregate(expr, definition)
        args = [self.eval(a) for a in expr.args]
        definition.check_arity(len(args))
        return self.call_function(definition, args)

    def call_function(self, definition, args: List[SQLValue]) -> SQLValue:
        """Invoke a scalar function implementation with instrumentation."""
        ctx = self.ctx
        ctx.note_function(definition.name)
        previous = ctx.current_function
        ctx.current_function = definition.name
        try:
            if ctx.coverage is not None:
                with ctx.coverage.tracking():
                    return definition.impl(ctx, args)
            return definition.impl(ctx, args)
        except (decimal.InvalidOperation, decimal.Overflow, ArithmeticError,
                ValueError) as exc:
            # numeric/domain edge cases surface as handled SQL errors, the
            # way a hardened implementation reports them (SQLError is not a
            # ValueError, so real SQL errors pass through untouched)
            raise ValueError_(
                f"{definition.name.upper()}: value out of range ({exc})"
            ) from None
        finally:
            ctx.current_function = previous

    def _eval_aggregate(self, expr: n.FuncCall, definition) -> SQLValue:
        rows = self.group_rows
        if rows is None:
            rows = [self.scope] if self.scope is not None else [RowScope()]
        # COUNT(*) — and any aggregate over a bare star — counts rows.
        star_args = [a for a in expr.args if isinstance(a, n.Star)]
        columns: List[List[SQLValue]] = []
        for arg in expr.args:
            if isinstance(arg, n.Star):
                columns.append([STAR_MARKER for _ in rows])
                continue
            values: List[SQLValue] = []
            for row in rows:
                sub = Evaluator(self.ctx, scope=row, group_rows=None)
                values.append(sub.eval(arg))
            columns.append(values)
        if expr.distinct and columns:
            seen = set()
            keep: List[int] = []
            for idx in range(len(columns[0])):
                key = tuple(col[idx].sort_key() for col in columns)
                if key not in seen:
                    seen.add(key)
                    keep.append(idx)
            columns = [[col[i] for i in keep] for col in columns]
        definition.check_arity(len(columns))
        return self.call_aggregate(definition, columns)

    def call_aggregate(
        self, definition, columns: List[List[SQLValue]]
    ) -> SQLValue:
        """Invoke an aggregate implementation with instrumentation."""
        ctx = self.ctx
        ctx.note_function(definition.name)
        previous = ctx.current_function
        ctx.current_function = definition.name
        try:
            if ctx.coverage is not None:
                with ctx.coverage.tracking():
                    return definition.impl(ctx, columns)
            return definition.impl(ctx, columns)
        except (decimal.InvalidOperation, decimal.Overflow, ArithmeticError,
                ValueError) as exc:
            raise ValueError_(
                f"{definition.name.upper()}: value out of range ({exc})"
            ) from None
        finally:
            ctx.current_function = previous

    # -- operators -------------------------------------------------------
    def _unary(self, expr: n.UnaryOp) -> SQLValue:
        op = expr.op.upper()
        value = self.eval(expr.operand)
        if op == "NOT" or op == "!":
            if value.is_null:
                return NULL
            return FALSE if value.as_bool() else TRUE
        if value.is_null:
            return NULL
        if op == "-":
            return arith_negate(value)
        if op == "+":
            if not is_numeric(value):
                raise TypeError_(f"unary + on {value.type_name}")
            return value
        if op == "~":
            return SQLInteger(~cast_int_for_bitop(value))
        raise TypeError_(f"unsupported unary operator {expr.op}")

    def _binary(self, expr: n.BinaryOp) -> SQLValue:
        op = expr.op.upper()
        if op in ("AND", "OR"):
            return self._logical(op, expr)
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        return apply_binary(self.ctx, op, left, right)

    def _logical(self, op: str, expr: n.BinaryOp) -> SQLValue:
        left = self.eval(expr.left)
        left_b = None if left.is_null else left.as_bool()
        if op == "AND":
            if left_b is False:
                return FALSE
            right = self.eval(expr.right)
            right_b = None if right.is_null else right.as_bool()
            if right_b is False:
                return FALSE
            if left_b is None or right_b is None:
                return NULL
            return TRUE
        # OR
        if left_b is True:
            return TRUE
        right = self.eval(expr.right)
        right_b = None if right.is_null else right.as_bool()
        if right_b is True:
            return TRUE
        if left_b is None or right_b is None:
            return NULL
        return FALSE

    # -- casts -------------------------------------------------------------
    def _cast(self, expr: n.Cast) -> SQLValue:
        value = self.eval(expr.operand)
        self.ctx.stats["casts"] += 1
        return cast_value(self.ctx, value, expr.type_name)

    # -- compound ------------------------------------------------------------
    def _case(self, expr: n.CaseExpr) -> SQLValue:
        if expr.operand is not None:
            subject = self.eval(expr.operand)
            for cond, result in expr.whens:
                candidate = self.eval(cond)
                cmp = compare_values(self.ctx, subject, candidate)
                if cmp == 0:
                    return self.eval(result)
        else:
            for cond, result in expr.whens:
                value = self.eval(cond)
                if not value.is_null and value.as_bool():
                    return self.eval(result)
        return self.eval(expr.else_) if expr.else_ is not None else NULL

    def _in(self, expr: n.InExpr) -> SQLValue:
        needle = self.eval(expr.expr)
        if needle.is_null:
            return NULL
        saw_null = False
        for item in expr.items:
            candidate = self.eval(item)
            if isinstance(candidate, SQLArray):  # IN (subquery) result
                members: Sequence[SQLValue] = candidate.items
            else:
                members = (candidate,)
            for member in members:
                if member.is_null:
                    saw_null = True
                    continue
                if compare_values(self.ctx, needle, member) == 0:
                    return FALSE if expr.negated else TRUE
        if saw_null:
            return NULL
        return TRUE if expr.negated else FALSE

    def _between(self, expr: n.BetweenExpr) -> SQLValue:
        value = self.eval(expr.expr)
        low = self.eval(expr.low)
        high = self.eval(expr.high)
        if value.is_null or low.is_null or high.is_null:
            return NULL
        inside = (
            compare_values(self.ctx, low, value) <= 0
            and compare_values(self.ctx, value, high) <= 0
        )
        if expr.negated:
            inside = not inside
        return TRUE if inside else FALSE

    def _like(self, expr: n.LikeExpr) -> SQLValue:
        value = self.eval(expr.expr)
        pattern = self.eval(expr.pattern)
        if value.is_null or pattern.is_null:
            return NULL
        text = value.render()
        pat = pattern.render()
        if expr.op in ("REGEXP", "RLIKE", "SIMILAR TO"):
            matched = regex_search(pat, text)
        else:
            if expr.op == "ILIKE":
                text, pat = text.lower(), pat.lower()
            matched = like_match(pat, text)
        if expr.negated:
            matched = not matched
        return TRUE if matched else FALSE

    def _isnull(self, expr: n.IsNullExpr) -> SQLValue:
        value = self.eval(expr.expr)
        if value.is_null and self.ctx.get_config("faulty_is_null_propagates") == "1":
            # seeded predicate-level defect (dialects/flaws.py kind "tlp"):
            # the null check propagates the unknown instead of deciding it,
            # so IS [NOT] NULL answers NULL exactly when the operand is NULL.
            # Statements without an IS NULL test never notice; the TLP
            # partition's third arm loses its rows.
            return NULL
        result = value.is_null
        if expr.negated:
            result = not result
        return TRUE if result else FALSE

    def _exists(self, expr: n.ExistsExpr) -> SQLValue:
        rows = self._run_subquery(expr.subquery)
        result = bool(rows)
        if expr.negated:
            result = not result
        return TRUE if result else FALSE

    def _subquery(self, expr: n.SubqueryExpr) -> SQLValue:
        rows = self._run_subquery(expr.query)
        if not rows:
            return NULL
        if len(rows) > 1 and len(rows[0]) == 1:
            # expose multi-row scalar subqueries as an array so IN works
            return SQLArray(tuple(row[0] for row in rows))
        if len(rows[0]) == 1:
            return rows[0][0]
        return SQLRow(tuple(rows[0]))

    def _run_subquery(self, query: n.SelectLike) -> List[List[SQLValue]]:
        if self.ctx.execute_subquery is None:
            raise TypeError_("subqueries are not available in this context")
        return self.ctx.execute_subquery(query, self.scope)

    # -- constructors ---------------------------------------------------------
    def _row(self, expr: n.RowExpr) -> SQLValue:
        return SQLRow(tuple(self.eval(i) for i in expr.items))

    def _array(self, expr: n.ArrayExpr) -> SQLValue:
        return SQLArray(tuple(self.eval(i) for i in expr.items))

    def _map(self, expr: n.MapExpr) -> SQLValue:
        keys = tuple(self.eval(k) for k in expr.keys)
        values = tuple(self.eval(v) for v in expr.values)
        return SQLMap(keys, values)

    def _interval(self, expr: n.IntervalExpr) -> SQLValue:
        amount_value = self.eval(expr.value)
        if amount_value.is_null:
            return NULL
        amount = numeric_as_int(amount_value)
        unit = expr.unit.upper()
        if unit == "YEAR":
            return SQLInterval(months=amount * 12)
        if unit == "QUARTER":
            return SQLInterval(months=amount * 3)
        if unit == "MONTH":
            return SQLInterval(months=amount)
        if unit == "WEEK":
            return SQLInterval(days=amount * 7)
        if unit == "DAY":
            return SQLInterval(days=amount)
        if unit == "HOUR":
            return SQLInterval(microseconds=amount * 3_600_000_000)
        if unit == "MINUTE":
            return SQLInterval(microseconds=amount * 60_000_000)
        if unit == "SECOND":
            return SQLInterval(microseconds=amount * 1_000_000)
        if unit == "MILLISECOND":
            return SQLInterval(microseconds=amount * 1000)
        if unit == "MICROSECOND":
            return SQLInterval(microseconds=amount)
        raise TypeError_(f"unsupported interval unit {unit}")

    def _index(self, expr: n.IndexExpr) -> SQLValue:
        base = self.eval(expr.base)
        index = self.eval(expr.index)
        if base.is_null or index.is_null:
            return NULL
        if isinstance(base, SQLArray):
            position = numeric_as_int(index)
            # SQL arrays are 1-based
            if 1 <= position <= len(base.items):
                return base.items[position - 1]
            return NULL
        if isinstance(base, SQLMap):
            found = base.lookup(index)
            return found if found is not None else NULL
        if isinstance(base, SQLJson):
            document = base.document
            if isinstance(document, list):
                position = numeric_as_int(index)
                if 0 <= position < len(document):
                    return SQLJson(document[position])
                return NULL
            if isinstance(document, dict):
                key = index.render()
                if key in document:
                    return SQLJson(document[key])
                return NULL
            return NULL
        if isinstance(base, SQLString):
            position = numeric_as_int(index)
            if 1 <= position <= len(base.value):
                return SQLString(base.value[position - 1])
            return NULL
        raise TypeError_(f"cannot subscript {base.type_name}")


# ---------------------------------------------------------------------------
# shared operator semantics
# ---------------------------------------------------------------------------
def cast_int_for_bitop(value: SQLValue) -> int:
    if not is_numeric(value):
        raise TypeError_(f"bit operation on {value.type_name}")
    return numeric_as_int(value)


def arith_negate(value: SQLValue) -> SQLValue:
    if isinstance(value, SQLInteger):
        return SQLInteger(-value.value)
    if isinstance(value, SQLDecimal):
        return SQLDecimal(-value.value)
    if isinstance(value, SQLDouble):
        return SQLDouble(-value.value)
    if isinstance(value, SQLInterval):
        return SQLInterval(-value.months, -value.days, -value.microseconds)
    raise TypeError_(f"cannot negate {value.type_name}")


def _numeric_pair(left: SQLValue, right: SQLValue):
    """Classify the numeric promotion for a pair of operands."""
    def widen(v: SQLValue):
        if isinstance(v, (SQLInteger, SQLBoolean)):
            return "int"
        if isinstance(v, SQLDecimal):
            return "dec"
        if isinstance(v, SQLDouble):
            return "dbl"
        if isinstance(v, SQLString):
            return "str"
        return None

    kinds = (widen(left), widen(right))
    if None in kinds:
        return None
    if "dbl" in kinds or "str" in kinds:
        return "dbl"
    if "dec" in kinds:
        return "dec"
    return "int"


def _as_double(value: SQLValue) -> float:
    if isinstance(value, SQLString):
        try:
            return float(value.value.strip() or "0")
        except ValueError:
            return 0.0
    return float(numeric_as_decimal(value))


def apply_binary(ctx: ExecutionContext, op: str, left: SQLValue, right: SQLValue) -> SQLValue:
    """Binary operator with SQL NULL propagation and type promotion."""
    if op in ("=", "<", ">", "<=", ">=", "<>", "!=", "<=>",
              "IS DISTINCT FROM", "IS NOT DISTINCT FROM"):
        return _comparison(ctx, op, left, right)
    if left.is_null or right.is_null:
        return NULL
    if op == "||":
        return SQLString(left.render() + right.render())
    if op in ("+", "-"):
        temporal = _temporal_arith(ctx, op, left, right)
        if temporal is not None:
            return temporal
    if op in ("&", "|", "^", "<<", ">>", "#"):
        a, b = cast_int_for_bitop(left), cast_int_for_bitop(right)
        if op == "&":
            return SQLInteger(a & b)
        if op == "|":
            return SQLInteger(a | b)
        if op in ("^", "#") and ctx.get_config("xor_is_pow") != "1":
            return SQLInteger(a ^ b)
        if op == "<<":
            if not 0 <= b <= 1024:
                raise ValueError_(f"shift amount {int_text(b)} out of range")
            return SQLInteger(a << b)
        if op == ">>":
            return SQLInteger(a >> max(b, 0)) if b < 1024 else SQLInteger(0)
    kind = _numeric_pair(left, right)
    if kind is None:
        raise TypeError_(
            f"operator {op} not supported between {left.type_name} and {right.type_name}"
        )
    if op == "**":
        return SQLDouble(_safe_pow(_as_double(left), _as_double(right)))
    if kind == "dbl":
        a, b = _as_double(left), _as_double(right)
        return _double_arith(op, a, b)
    if kind == "dec":
        a, b = numeric_as_decimal(left), numeric_as_decimal(right)
        return _decimal_arith(op, a, b)
    a_i, b_i = numeric_as_int(left), numeric_as_int(right)
    return _integer_arith(op, a_i, b_i)


def _safe_pow(a: float, b: float) -> float:
    try:
        result = a ** b
    except (OverflowError, ZeroDivisionError):
        raise ValueError_("power result out of range")
    if isinstance(result, complex):
        raise ValueError_("power of negative base with fractional exponent")
    return result


def _integer_arith(op: str, a: int, b: int) -> SQLValue:
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op in ("/",):
        if b == 0:
            raise DivisionByZeroError_("division by zero")
        # SQL integer division differs per dialect; default to exact decimal
        quotient = DECIMAL_CONTEXT.divide(decimal.Decimal(a), decimal.Decimal(b))
        if quotient == quotient.to_integral_value():
            return SQLInteger(decimal_to_int(quotient))
        return SQLDecimal(quotient)
    elif op == "DIV":
        if b == 0:
            raise DivisionByZeroError_("division by zero")
        result = _truncated_quotient(a, b)
    elif op in ("%", "MOD"):
        if b == 0:
            raise DivisionByZeroError_("modulo by zero")
        result = a - b * _truncated_quotient(a, b)
    else:
        raise TypeError_(f"unsupported operator {op}")
    if not fits_int64(result):
        raise ValueError_(f"BIGINT value out of range: {int_text(a)} {op} {int_text(b)}")
    return SQLInteger(result)


def _truncated_quotient(a: int, b: int) -> int:
    """Exact integer quotient rounded toward zero (C semantics)."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _decimal_arith(op: str, a: decimal.Decimal, b: decimal.Decimal) -> SQLValue:
    try:
        if op == "+":
            return SQLDecimal(DECIMAL_CONTEXT.add(a, b))
        if op == "-":
            return SQLDecimal(DECIMAL_CONTEXT.subtract(a, b))
        if op == "*":
            return SQLDecimal(DECIMAL_CONTEXT.multiply(a, b))
        if op == "/":
            if b == 0:
                raise DivisionByZeroError_("division by zero")
            return SQLDecimal(DECIMAL_CONTEXT.divide(a, b))
        if op == "DIV":
            if b == 0:
                raise DivisionByZeroError_("division by zero")
            return SQLInteger(decimal_to_int(DECIMAL_CONTEXT.divide_int(a, b)))
        if op in ("%", "MOD"):
            if b == 0:
                raise DivisionByZeroError_("modulo by zero")
            return SQLDecimal(DECIMAL_CONTEXT.remainder(a, b))
    except decimal.InvalidOperation:
        raise ValueError_(f"decimal operation {op} failed for {a}, {b}")
    except decimal.Overflow:
        raise ValueError_("decimal result out of range")
    raise TypeError_(f"unsupported operator {op}")


def _double_arith(op: str, a: float, b: float) -> SQLValue:
    try:
        if op == "+":
            return SQLDouble(a + b)
        if op == "-":
            return SQLDouble(a - b)
        if op == "*":
            return SQLDouble(a * b)
        if op == "/":
            if b == 0.0:
                raise DivisionByZeroError_("division by zero")
            return SQLDouble(a / b)
        if op == "DIV":
            if b == 0.0:
                raise DivisionByZeroError_("division by zero")
            return SQLInteger(int(a / b))
        if op in ("%", "MOD"):
            if b == 0.0:
                raise DivisionByZeroError_("modulo by zero")
            return SQLDouble(a - b * int(a / b))
    except OverflowError:
        raise ValueError_("double result out of range")
    raise TypeError_(f"unsupported operator {op}")


def _temporal_arith(
    ctx: ExecutionContext, op: str, left: SQLValue, right: SQLValue
) -> Optional[SQLValue]:
    """date/time ± interval and date − date; None when not temporal."""
    def add_interval(date: SQLDate, interval: SQLInterval, sign: int) -> SQLDate:
        months = date.year * 12 + (date.month - 1) + sign * interval.months
        year, month = divmod(months, 12)
        month += 1
        day = min(date.day, days_in_month(year, month))
        days = days_from_civil(year, month, day) + sign * interval.days
        return SQLDate.from_days(days)

    if isinstance(left, SQLDate) and isinstance(right, SQLInterval):
        return add_interval(left, right, +1 if op == "+" else -1)
    if isinstance(left, SQLInterval) and isinstance(right, SQLDate) and op == "+":
        return add_interval(right, left, +1)
    if isinstance(left, SQLDate) and isinstance(right, SQLDate) and op == "-":
        return SQLInteger(left.to_days() - right.to_days())
    if isinstance(left, SQLDate) and isinstance(right, SQLInteger):
        return SQLDate.from_days(left.to_days() + (right.value if op == "+" else -right.value))
    if isinstance(left, SQLDateTime) and isinstance(right, SQLInterval):
        sign = +1 if op == "+" else -1
        new_date = add_interval(left.date, right, sign)
        micros = left.time.total_microseconds() + sign * right.microseconds
        day_shift, micros = divmod(micros, 86_400_000_000)
        new_date = SQLDate.from_days(new_date.to_days() + day_shift)
        hour, rem = divmod(micros, 3_600_000_000)
        minute, rem = divmod(rem, 60_000_000)
        second, micro = divmod(rem, 1_000_000)
        return SQLDateTime(new_date, SQLTime(int(hour), int(minute), int(second), int(micro)))
    if isinstance(left, SQLInterval) and isinstance(right, SQLInterval):
        sign = +1 if op == "+" else -1
        return SQLInterval(
            left.months + sign * right.months,
            left.days + sign * right.days,
            left.microseconds + sign * right.microseconds,
        )
    return None


def _comparison(ctx: ExecutionContext, op: str, left: SQLValue, right: SQLValue) -> SQLValue:
    if op == "<=>":
        if left.is_null or right.is_null:
            return TRUE if left.is_null and right.is_null else FALSE
        return TRUE if compare_values(ctx, left, right) == 0 else FALSE
    if op in ("IS DISTINCT FROM", "IS NOT DISTINCT FROM"):
        if left.is_null or right.is_null:
            distinct = not (left.is_null and right.is_null)
        else:
            distinct = compare_values(ctx, left, right) != 0
        if op == "IS NOT DISTINCT FROM":
            distinct = not distinct
        return TRUE if distinct else FALSE
    if left.is_null or right.is_null:
        return NULL
    cmp = compare_values(ctx, left, right)
    result = {
        "=": cmp == 0,
        "<": cmp < 0,
        ">": cmp > 0,
        "<=": cmp <= 0,
        ">=": cmp >= 0,
        "<>": cmp != 0,
        "!=": cmp != 0,
    }[op]
    return TRUE if result else FALSE


def compare_values(ctx: ExecutionContext, left: SQLValue, right: SQLValue) -> int:
    """Three-way comparison; raises ``TypeError_`` for incomparable types."""
    if is_numeric(left) and is_numeric(right):
        a, b = numeric_as_decimal(left), numeric_as_decimal(right)
        if a.is_nan() or b.is_nan():
            # NaN orders like PostgreSQL: equal to itself, after every
            # number (a plain Decimal comparison signals InvalidOperation)
            if a.is_nan() and b.is_nan():
                return 0
            return 1 if a.is_nan() else -1
        return (a > b) - (a < b)
    if is_numeric(left) and isinstance(right, SQLString):
        a, b = float(numeric_as_decimal(left)), _as_double(right)
        return (a > b) - (a < b)
    if isinstance(left, SQLString) and is_numeric(right):
        a, b = _as_double(left), float(numeric_as_decimal(right))
        return (a > b) - (a < b)
    if isinstance(left, SQLString) and isinstance(right, SQLString):
        return (left.value > right.value) - (left.value < right.value)
    if isinstance(left, SQLRow) and isinstance(right, SQLRow):
        if ctx.get_config("row_comparison") == "off":
            raise TypeError_("ROW values are not comparable")
        for a, b in zip(left.items, right.items):
            cmp = compare_values(ctx, a, b)
            if cmp != 0:
                return cmp
        return (len(left.items) > len(right.items)) - (
            len(left.items) < len(right.items)
        )
    if type(left) is type(right):
        a_key, b_key = left.sort_key(), right.sort_key()
        return (a_key > b_key) - (a_key < b_key)
    if isinstance(left, SQLDate) and isinstance(right, SQLDateTime):
        return compare_values(ctx, SQLDateTime(left, SQLTime(0, 0, 0)), right)
    if isinstance(left, SQLDateTime) and isinstance(right, SQLDate):
        return compare_values(ctx, left, SQLDateTime(right, SQLTime(0, 0, 0)))
    if isinstance(left, (SQLDate, SQLDateTime)) and isinstance(right, SQLString):
        return compare_values(ctx, SQLString(left.render()), right)
    if isinstance(left, SQLString) and isinstance(right, (SQLDate, SQLDateTime)):
        return compare_values(ctx, left, SQLString(right.render()))
    raise TypeError_(
        f"cannot compare {left.type_name} with {right.type_name}"
    )


# ---------------------------------------------------------------------------
# LIKE / regex matching (hand-rolled; no `re` dependency in the hot path)
# ---------------------------------------------------------------------------
def like_match(pattern: str, text: str) -> bool:
    """SQL LIKE with ``%`` and ``_`` wildcards and ``\\`` escapes."""
    # iterative two-pointer algorithm with backtracking on '%'
    p_idx = t_idx = 0
    star_p = star_t = -1
    while t_idx < len(text):
        literal = None
        if p_idx < len(pattern):
            ch = pattern[p_idx]
            if ch == "\\" and p_idx + 1 < len(pattern):
                literal = pattern[p_idx + 1]
                consumed = 2
            elif ch == "_":
                literal = None
                consumed = 1
            elif ch == "%":
                star_p, star_t = p_idx, t_idx
                p_idx += 1
                continue
            else:
                literal = ch
                consumed = 1
            if ch == "_" or (literal is not None and literal == text[t_idx]):
                p_idx += consumed
                t_idx += 1
                continue
        if star_p != -1:
            star_t += 1
            t_idx = star_t
            p_idx = star_p + 1
            continue
        return False
    while p_idx < len(pattern) and pattern[p_idx] == "%":
        p_idx += 1
    return p_idx == len(pattern)


def regex_search(pattern: str, text: str) -> bool:
    """Regex matching used by REGEXP/RLIKE.  Delegates to :mod:`re` with
    the pattern treated as POSIX-ish; invalid patterns are SQL errors."""
    import re
    import warnings

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return re.search(pattern, text) is not None
    except re.error as exc:
        raise ValueError_(f"invalid regular expression: {exc}")
    except RecursionError:
        raise ValueError_("regular expression too complex")


_DISPATCH = {
    n.IntegerLit: Evaluator._integer,
    n.DecimalLit: Evaluator._decimal,
    n.StringLit: Evaluator._string,
    n.NullLit: Evaluator._null,
    n.BooleanLit: Evaluator._boolean,
    n.Star: Evaluator._star,
    n.ParamRef: Evaluator._param,
    n.ColumnRef: Evaluator._column,
    n.FuncCall: Evaluator._func,
    n.UnaryOp: Evaluator._unary,
    n.BinaryOp: Evaluator._binary,
    n.Cast: Evaluator._cast,
    n.CaseExpr: Evaluator._case,
    n.InExpr: Evaluator._in,
    n.BetweenExpr: Evaluator._between,
    n.LikeExpr: Evaluator._like,
    n.IsNullExpr: Evaluator._isnull,
    n.ExistsExpr: Evaluator._exists,
    n.SubqueryExpr: Evaluator._subquery,
    n.RowExpr: Evaluator._row,
    n.ArrayExpr: Evaluator._array,
    n.MapExpr: Evaluator._map,
    n.IntervalExpr: Evaluator._interval,
    n.IndexExpr: Evaluator._index,
}
