"""Plan→closure compiler for the execution hot path.

A template-cache hit (~59% of the generation stream) used to rebind
literals and then *re-interpret* the whole tree: ``Evaluator.eval`` looks
every node's class up in the ``_DISPATCH`` dict, per node, per execution.
This module walks an optimized plan **once** and emits a tree of Python
closures — one per AST node, children pre-bound — so repeat executions run
the closures directly with zero dispatch lookups and zero tree walks.

Design rules (all in service of byte-identical campaign signatures):

* **Closures reuse the interpreter's semantics verbatim.**  Hot node types
  compile structurally but call the same module-level helpers the
  interpreter calls (``apply_binary``, ``cast_value``,
  ``Evaluator.call_function`` …), so error classes, messages,
  ``note_function`` order, and ``stats`` side effects cannot drift.  Rare
  node types compile to an *interned dispatch* closure — the per-class
  method pointer captured at compile time — which is the interpreter minus
  the dict lookup.
* **Literal slots are cell references.**  A literal closure keeps a
  reference to its (mutable) AST node and reads ``node.text`` /
  ``node.value`` at call time, memoizing the constructed ``SQLValue`` by
  text identity.  The template cache rebinds literals *in place*, so a
  compiled program follows every rebinding automatically: the cache owns
  the tree, the program owns only pointers into it.
* **Compile only what is provably interpreter-equivalent.**  Statements
  outside the supported shape (FROM/WHERE/GROUP BY/ORDER BY/LIMIT,
  set operations, subqueries, top-level ``*``) or whose functions cannot
  be resolved at compile time simply return ``None`` and keep taking the
  interpreted ``Executor`` path — declining is always correct.
* **Governed execution never runs compiled code.**  The governor ticks
  per-node budgets inside ``Evaluator.eval``; closures skip those hooks,
  so callers gate on ``ctx.governor is None`` (the cache counts the
  fallbacks).  Registry capture at compile time is sound because every
  context of a server shares its dialect's registry, so a restart does
  not change what a captured function resolves to, and the evaluator memo
  re-keys on context identity.  Restart invalidation of the statement
  cache is therefore not what keeps programs correct.  What it does is
  keep a program from outliving its context: kept across a restart, a
  program's memo pins the dead ``ExecutionContext`` (peak RSS 52 → 81 MB
  on the e2e ``expr-serial`` workload when a prototype cache survived
  restarts).
"""

from __future__ import annotations

import decimal
from typing import Callable, List, Optional

from ..engine.casting import cast_value
from ..engine.context import ExecutionContext
from ..engine.errors import NameError_, SQLError, TypeError_, ValueError_
from ..engine.evaluator import (
    _DISPATCH,
    Evaluator,
    RowScope,
    apply_binary,
    arith_negate,
    cast_int_for_bitop,
)
from ..engine.executor import Result
from ..engine.memory import fits_int64
from ..engine.values import (
    DECIMAL_CONTEXT,
    FALSE,
    NULL,
    STAR_MARKER,
    TRUE,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLString,
    SQLValue,
    is_numeric,
)
from ..sqlast import nodes as n
from ..sqlast.visitor import walk

#: a compiled expression: evaluates itself for one row via the evaluator
#: (the evaluator carries scope / group rows / context, exactly as in the
#: interpreted path)
Closure = Callable[[Evaluator], SQLValue]

#: a compiled statement: Connection.execute calls it instead of building
#: an Executor when the plan cache hands one back
Program = Callable[[ExecutionContext], Result]


class _Uncompilable(Exception):
    """Internal signal: decline this statement, take the interpreted path."""


# ---------------------------------------------------------------------------
# literal closures — the "cell reference" slots the template cache rebinds
# ---------------------------------------------------------------------------
def _c_integer(node: n.IntegerLit) -> Closure:
    memo_text: Optional[str] = None
    memo_value: Optional[SQLValue] = None

    def run(ev: Evaluator) -> SQLValue:
        nonlocal memo_text, memo_value
        text = node.text
        if text is not memo_text:
            value = node.value
            if fits_int64(value):
                memo_value = SQLInteger(value)
            else:
                memo_value = SQLDecimal(DECIMAL_CONTEXT.create_decimal(value))
            memo_text = text
        return memo_value

    return run


def _c_decimal(node: n.DecimalLit) -> Closure:
    memo_text: Optional[str] = None
    memo_value: Optional[SQLValue] = None

    def run(ev: Evaluator) -> SQLValue:
        nonlocal memo_text, memo_value
        text = node.text
        if text is not memo_text:
            if "e" in text.lower():
                try:
                    memo_value = SQLDouble(float(text))
                except (ValueError, OverflowError):
                    raise ValueError_(f"invalid float literal {text!r}")
            else:
                memo_value = SQLDecimal.from_text(text)
            memo_text = text
        return memo_value

    return run


def _c_string(node: n.StringLit) -> Closure:
    memo_text: Optional[str] = None
    memo_value: Optional[SQLValue] = None

    def run(ev: Evaluator) -> SQLValue:
        nonlocal memo_text, memo_value
        text = node.value
        if text is not memo_text:
            memo_value = SQLString(text)
            memo_text = text
        return memo_value

    return run


def _c_constant(value: SQLValue) -> Closure:
    def run(ev: Evaluator) -> SQLValue:
        return value

    return run


def _c_param(node: n.ParamRef) -> Closure:
    def run(ev: Evaluator) -> SQLValue:
        raise TypeError_("positional parameters are not bound")

    return run


# ---------------------------------------------------------------------------
# references and calls
# ---------------------------------------------------------------------------
def _c_column(node: n.ColumnRef) -> Closure:
    name = node.name
    if len(node.parts) > 1:
        qualified = ".".join(node.parts)

        def run(ev: Evaluator) -> SQLValue:
            scope = ev.scope
            if scope is None:
                raise NameError_(f"unknown column {name!r} (no FROM clause)")
            try:
                return scope.lookup(qualified)
            except NameError_:
                return scope.lookup(name)

        return run

    def run(ev: Evaluator) -> SQLValue:
        scope = ev.scope
        if scope is None:
            raise NameError_(f"unknown column {name!r} (no FROM clause)")
        return scope.lookup(name)

    return run


def _c_func_scalar(definition, arg_closures: List[Closure]) -> Closure:
    """Scalar call with the instrumented invocation inlined.

    The argument count is static, so ``check_arity`` runs once at compile
    time (a failing check declines compilation and the interpreter raises
    the identical error).  The body below is ``Evaluator.call_function``
    with the per-call attribute traffic hoisted: the impl pointer, the
    lowered name (``note_function``) and the uppercased name (the error
    wrapper) are captured as cells.  Side-effect order is preserved
    exactly — triggered-functions before stats, ``current_function``
    save/restore around the impl, the same exception tuple and message.
    """
    try:
        definition.check_arity(len(arg_closures))
    except SQLError:
        raise _Uncompilable(definition.name)
    impl = definition.impl
    name = definition.name
    lname = name.lower()
    uname = name.upper()
    if len(arg_closures) == 1:
        arg0 = arg_closures[0]

        def run(ev: Evaluator) -> SQLValue:
            args = [arg0(ev)]
            ctx = ev.ctx
            ctx.triggered_functions.add(lname)
            ctx.stats["function_calls"] += 1
            previous = ctx.current_function
            ctx.current_function = name
            try:
                if ctx.coverage is not None:
                    with ctx.coverage.tracking():
                        return impl(ctx, args)
                return impl(ctx, args)
            except (decimal.InvalidOperation, decimal.Overflow,
                    ArithmeticError, ValueError) as exc:
                raise ValueError_(
                    f"{uname}: value out of range ({exc})"
                ) from None
            finally:
                ctx.current_function = previous

        return run

    def run(ev: Evaluator) -> SQLValue:
        args = [c(ev) for c in arg_closures]
        ctx = ev.ctx
        ctx.triggered_functions.add(lname)
        ctx.stats["function_calls"] += 1
        previous = ctx.current_function
        ctx.current_function = name
        try:
            if ctx.coverage is not None:
                with ctx.coverage.tracking():
                    return impl(ctx, args)
            return impl(ctx, args)
        except (decimal.InvalidOperation, decimal.Overflow,
                ArithmeticError, ValueError) as exc:
            raise ValueError_(f"{uname}: value out of range ({exc})") from None
        finally:
            ctx.current_function = previous

    return run


def _c_func_aggregate(node: n.FuncCall, definition, arg_closures) -> Closure:
    """Aggregate call; ``arg_closures[i]`` is None for a ``*`` argument.

    Mirrors ``Evaluator._eval_aggregate``: per-row sub-evaluators for each
    argument, DISTINCT dedup on sort keys, then the shared instrumented
    invocation (``Evaluator.call_aggregate``).
    """
    distinct = node.distinct
    check_arity = definition.check_arity

    def run(ev: Evaluator) -> SQLValue:
        ctx = ev.ctx
        rows = ev.group_rows
        if rows is None:
            rows = [ev.scope] if ev.scope is not None else [RowScope()]
        columns: List[List[SQLValue]] = []
        for closure in arg_closures:
            if closure is None:  # a bare * argument counts rows
                columns.append([STAR_MARKER for _ in rows])
                continue
            values: List[SQLValue] = []
            for row in rows:
                sub = Evaluator(ctx, scope=row, group_rows=None)
                values.append(closure(sub))
            columns.append(values)
        if distinct and columns:
            seen = set()
            keep: List[int] = []
            for idx in range(len(columns[0])):
                key = tuple(col[idx].sort_key() for col in columns)
                if key not in seen:
                    seen.add(key)
                    keep.append(idx)
            columns = [[col[i] for i in keep] for col in columns]
        check_arity(len(columns))
        return ev.call_aggregate(definition, columns)

    return run


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------
def _c_unary(node: n.UnaryOp, operand_c: Closure) -> Closure:
    op = node.op.upper()
    if op in ("NOT", "!"):

        def run(ev: Evaluator) -> SQLValue:
            value = operand_c(ev)
            if value.is_null:
                return NULL
            return FALSE if value.as_bool() else TRUE

        return run
    if op == "-":

        def run(ev: Evaluator) -> SQLValue:
            value = operand_c(ev)
            if value.is_null:
                return NULL
            return arith_negate(value)

        return run
    if op == "+":

        def run(ev: Evaluator) -> SQLValue:
            value = operand_c(ev)
            if value.is_null:
                return NULL
            if not is_numeric(value):
                raise TypeError_(f"unary + on {value.type_name}")
            return value

        return run
    if op == "~":

        def run(ev: Evaluator) -> SQLValue:
            value = operand_c(ev)
            if value.is_null:
                return NULL
            return SQLInteger(~cast_int_for_bitop(value))

        return run
    source_op = node.op

    def run(ev: Evaluator) -> SQLValue:
        value = operand_c(ev)
        if value.is_null:
            return NULL
        raise TypeError_(f"unsupported unary operator {source_op}")

    return run


def _c_binary(node: n.BinaryOp, left_c: Closure, right_c: Closure) -> Closure:
    op = node.op.upper()
    if op == "AND":

        def run(ev: Evaluator) -> SQLValue:
            left = left_c(ev)
            left_b = None if left.is_null else left.as_bool()
            if left_b is False:
                return FALSE
            right = right_c(ev)
            right_b = None if right.is_null else right.as_bool()
            if right_b is False:
                return FALSE
            if left_b is None or right_b is None:
                return NULL
            return TRUE

        return run
    if op == "OR":

        def run(ev: Evaluator) -> SQLValue:
            left = left_c(ev)
            left_b = None if left.is_null else left.as_bool()
            if left_b is True:
                return TRUE
            right = right_c(ev)
            right_b = None if right.is_null else right.as_bool()
            if right_b is True:
                return TRUE
            if left_b is None or right_b is None:
                return NULL
            return FALSE

        return run

    def run(ev: Evaluator) -> SQLValue:
        return apply_binary(ev.ctx, op, left_c(ev), right_c(ev))

    return run


def _c_cast(node: n.Cast, operand_c: Closure) -> Closure:
    type_name = node.type_name

    def run(ev: Evaluator) -> SQLValue:
        value = operand_c(ev)
        ctx = ev.ctx
        ctx.stats["casts"] += 1
        return cast_value(ctx, value, type_name)

    return run


def _c_isnull(node: n.IsNullExpr, operand_c: Closure) -> Closure:
    negated = node.negated

    def run(ev: Evaluator) -> SQLValue:
        result = operand_c(ev).is_null
        if negated:
            result = not result
        return TRUE if result else FALSE

    return run


def _c_interned(node: n.Expr, method) -> Closure:
    """Interned-dispatch fallback for rare node types.

    The per-class unbound method pointer is captured once at compile time;
    execution is the interpreter's own handler with the ``_DISPATCH``
    lookup removed.  Children are evaluated recursively through
    ``Evaluator.eval``, which keeps exotic subtrees on the battle-tested
    interpreted path.
    """

    def run(ev: Evaluator) -> SQLValue:
        return method(ev, node)

    return run


# ---------------------------------------------------------------------------
# the expression compiler
# ---------------------------------------------------------------------------
#: node classes compiled via interned dispatch rather than structurally;
#: correctness is automatic (same method the interpreter would call)
_INTERNED = (
    n.CaseExpr,
    n.InExpr,
    n.BetweenExpr,
    n.LikeExpr,
    n.RowExpr,
    n.ArrayExpr,
    n.MapExpr,
    n.IntervalExpr,
    n.IndexExpr,
)


def compile_expr(expr: n.Expr, ctx: ExecutionContext) -> Closure:
    """Compile one expression tree; raises ``_Uncompilable`` to decline."""
    if isinstance(expr, n.IntegerLit):
        return _c_integer(expr)
    if isinstance(expr, n.DecimalLit):
        return _c_decimal(expr)
    if isinstance(expr, n.StringLit):
        return _c_string(expr)
    if isinstance(expr, n.NullLit):
        return _c_constant(NULL)
    if isinstance(expr, n.BooleanLit):
        return _c_constant(TRUE if expr.value else FALSE)
    if isinstance(expr, n.Star):
        return _c_constant(STAR_MARKER)
    if isinstance(expr, n.ParamRef):
        return _c_param(expr)
    if isinstance(expr, n.ColumnRef):
        return _c_column(expr)
    if isinstance(expr, n.FuncCall):
        try:
            definition = ctx.registry.lookup(expr.name)
        except SQLError:
            # unknown function: let the interpreter raise it at eval time
            raise _Uncompilable(expr.name)
        if definition.is_aggregate:
            arg_closures = [
                None if isinstance(arg, n.Star) else compile_expr(arg, ctx)
                for arg in expr.args
            ]
            return _c_func_aggregate(expr, definition, arg_closures)
        args = [compile_expr(arg, ctx) for arg in expr.args]
        return _c_func_scalar(definition, args)
    if isinstance(expr, n.UnaryOp):
        return _c_unary(expr, compile_expr(expr.operand, ctx))
    if isinstance(expr, n.BinaryOp):
        return _c_binary(
            expr, compile_expr(expr.left, ctx), compile_expr(expr.right, ctx)
        )
    if isinstance(expr, n.Cast):
        return _c_cast(expr, compile_expr(expr.operand, ctx))
    if isinstance(expr, n.IsNullExpr):
        return _c_isnull(expr, compile_expr(expr.expr, ctx))
    if isinstance(expr, _INTERNED):
        method = _DISPATCH.get(type(expr))
        if method is None:
            raise _Uncompilable(type(expr).__name__)
        return _c_interned(expr, method)
    # ExistsExpr / SubqueryExpr (need an Executor) and anything unknown
    raise _Uncompilable(type(expr).__name__)


# ---------------------------------------------------------------------------
# the statement compiler
# ---------------------------------------------------------------------------
def _is_aggregate_call(expr: n.Node, ctx: ExecutionContext) -> bool:
    if not isinstance(expr, n.FuncCall):
        return False
    try:
        return ctx.registry.lookup(expr.name).is_aggregate
    except SQLError:
        return False


def compile_statement(
    stmt: n.Statement, ctx: ExecutionContext
) -> Optional[Program]:
    """Compile *stmt* to a closure program, or ``None`` to decline.

    Supported shape: a single ``SELECT item [, item]*`` with no FROM,
    WHERE, GROUP BY, HAVING, DISTINCT, ORDER BY, LIMIT or OFFSET, no
    subqueries anywhere, and no top-level ``*`` — which is exactly the
    paper's workload (every seed and every generated boundary case is a
    bare ``SELECT f(args);``).  Everything else stays interpreted.
    """
    if not isinstance(stmt, n.Select):
        return None
    if stmt.from_ or stmt.group_by or stmt.order_by:
        return None
    if stmt.where is not None or stmt.having is not None:
        return None
    if stmt.distinct or stmt.limit is not None or stmt.offset is not None:
        return None
    for item in stmt.items:
        if isinstance(item.expr, n.Star):
            return None  # SELECT * with no FROM: keep the executor's error
    for node in walk(stmt):
        if isinstance(node, (n.ExistsExpr, n.SubqueryExpr)):
            return None  # subqueries need an Executor behind the evaluator
    has_aggregate = any(
        _is_aggregate_call(e, ctx) for item in stmt.items for e in walk(item.expr)
    )
    try:
        item_closures = [compile_expr(item.expr, ctx) for item in stmt.items]
    except _Uncompilable:
        return None

    # output names are static for the no-FROM shape (Executor._output_names
    # only consults scopes for top-level stars, which were declined above)
    names: List[str] = []
    for idx, item in enumerate(stmt.items):
        if item.alias:
            names.append(item.alias)
        elif isinstance(item.expr, n.ColumnRef):
            names.append(item.expr.name)
        else:
            names.append(f"col{idx + 1}")
    columns = names or ["col1"]

    # The evaluator (and its empty scope) is immutable after construction,
    # so one instance per context serves every execution of this program;
    # the memo keys on context identity because a restart builds a fresh
    # context (and also invalidates the cache, making staleness impossible).
    memo_ctx: Optional[ExecutionContext] = None
    memo_ev: Optional[Evaluator] = None

    if has_aggregate:
        # Executor._run_select: one empty scope, one group containing it
        def run(ctx_: ExecutionContext) -> Result:
            nonlocal memo_ctx, memo_ev
            ev = memo_ev
            if ctx_ is not memo_ctx:
                scope = RowScope()
                ev = Evaluator(ctx_, scope, group_rows=[scope])
                memo_ctx, memo_ev = ctx_, ev
            return Result(list(columns), [[c(ev) for c in item_closures]])

    elif len(item_closures) == 1:
        item0 = item_closures[0]

        def run(ctx_: ExecutionContext) -> Result:
            nonlocal memo_ctx, memo_ev
            ev = memo_ev
            if ctx_ is not memo_ctx:
                ev = Evaluator(ctx_, RowScope())
                memo_ctx, memo_ev = ctx_, ev
            return Result(list(columns), [[item0(ev)]])

    else:

        def run(ctx_: ExecutionContext) -> Result:
            nonlocal memo_ctx, memo_ev
            ev = memo_ev
            if ctx_ is not memo_ctx:
                ev = Evaluator(ctx_, RowScope())
                memo_ctx, memo_ev = ctx_, ev
            return Result(list(columns), [[c(ev) for c in item_closures]])

    return run
