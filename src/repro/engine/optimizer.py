"""A small rule-based optimizer.

Real DBMSs crash in the optimizer too (Finding 1: 19.6% of studied bugs).
Our optimizer performs the classic cheap rewrites — constant folding of
literal arithmetic, predicate simplification, and aggregate argument
normalisation — under ``ctx.stage = "optimize"`` so any crash raised while
rewriting is attributed to the optimization stage, exactly how the paper
classifies backtraces.

Function calls are *not* folded by default (their implementations run at
execution); dialects that advertise aggressive constant folding set the
``fold_functions`` config knob, which moves function-bug crashes into the
optimize stage for those dialects.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..sqlast import nodes as n
from ..sqlast.visitor import transform
from .context import ExecutionContext
from .errors import SQLError
from .evaluator import Evaluator
from .values import (
    SQLBoolean,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLString,
    SQLValue,
)

_LITERAL_NODES = (n.IntegerLit, n.DecimalLit, n.StringLit, n.NullLit, n.BooleanLit)

#: the node classes :func:`_fold` can rewrite; the rewrite skips the rest
_FOLD_SITES = frozenset((n.BinaryOp, n.UnaryOp, n.FuncCall, n.Select))


def _is_literal(expr: n.Node) -> bool:
    return isinstance(expr, _LITERAL_NODES)


def _value_to_literal(value: SQLValue) -> Optional[n.Expr]:
    if value.is_null:
        return n.NullLit()
    if isinstance(value, SQLBoolean):
        return n.BooleanLit(value.value)
    if isinstance(value, SQLInteger):
        return n.IntegerLit(str(value.value))
    if isinstance(value, SQLDecimal):
        return n.DecimalLit(value.render())
    if isinstance(value, SQLDouble):
        return n.DecimalLit(value.render())
    if isinstance(value, SQLString):
        return n.StringLit(value.value)
    return None


def optimize_statement(ctx: ExecutionContext, stmt: n.Statement) -> n.Statement:
    """Run the rewrite pipeline over *stmt* (returns a rewritten tree).

    *stmt* is never modified.  The rewrite is copy-on-write (see
    :func:`~repro.sqlast.visitor.transform`): a statement with nothing to
    fold comes back as the same object, and a folded one shares every
    subtree the folds did not touch.

    The ``optimizer_passes`` config knob selects the pass subset: the
    default (unset or ``"all"``) runs every rewrite; ``"none"``/``"off"``
    suppresses optimization entirely and executes the parsed tree as-is.
    Suppressed execution is the NoREC oracle's reference arm — the same
    statement evaluated without any rewrite the optimizer could get wrong.
    """
    passes = ctx.get_config("optimizer_passes")
    if passes in ("none", "off"):
        return stmt
    previous_stage = ctx.stage
    ctx.stage = "optimize"
    # read once per statement: no foldable (pure, non-aggregate) function
    # writes the session config, so the knob cannot change mid-rewrite
    fold_functions = ctx.get_config("fold_functions") == "1"
    rewritten = transform(
        stmt, lambda node: _fold(ctx, node, fold_functions), _FOLD_SITES
    )
    # deliberately not a finally-block: when a CrashSignal unwinds through
    # here the stage must stay "optimize" so the crash is attributed to the
    # optimization stage (Finding 1's classification)
    ctx.stage = previous_stage
    return rewritten  # type: ignore[return-value]


def _fold(
    ctx: ExecutionContext, node: n.Node, fold_functions: bool
) -> Optional[n.Node]:
    # constant-fold unary/binary arithmetic over literals
    if isinstance(node, n.BinaryOp) and _is_literal(node.left) and _is_literal(node.right):
        if node.op.upper() in ("AND", "OR"):
            return None  # keep three-valued logic to the executor
        if (
            node.op in ("=", "<>", "!=", "<", ">", "<=", ">=")
            and (isinstance(node.left, n.NullLit) or isinstance(node.right, n.NullLit))
            and ctx.get_config("faulty_fold_null_compare") == "1"
        ):
            # seeded predicate-level defect (dialects/flaws.py kind "norec"):
            # the constant folder rewrites NULL comparisons to FALSE instead
            # of NULL — invisible to execution-stage oracles, but optimized
            # and optimization-suppressed runs of the same statement diverge
            return n.BooleanLit(False)
        return _try_eval(ctx, node)
    if isinstance(node, n.UnaryOp) and _is_literal(node.operand) and node.op != "NOT":
        return _try_eval(ctx, node)
    if fold_functions and isinstance(node, n.FuncCall):
        if all(_is_literal(a) for a in node.args):
            try:
                definition = ctx.registry.lookup(node.name)
            except SQLError:
                return None
            if definition.pure and not definition.is_aggregate:
                return _try_eval(ctx, node)
    # WHERE TRUE elimination (on a copy: *node* may be shared with the input)
    if isinstance(node, n.Select) and isinstance(node.where, n.BooleanLit):
        if node.where.value:
            return replace(node, where=None)
        return None
    return None


def _try_eval(ctx: ExecutionContext, expr: n.Expr) -> Optional[n.Expr]:
    """Evaluate a constant expression; SQL errors defer to execution."""
    evaluator = Evaluator(ctx, scope=None)
    try:
        value = evaluator.eval(expr)
    except SQLError:
        return None  # let the executor report it (or not reach it at all)
    return _value_to_literal(value)
