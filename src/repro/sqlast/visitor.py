"""Generic AST traversal, cloning, and in-place transformation helpers.

SOFT's PoC minimizer and the optimizer need three operations:

* :func:`walk` — preorder iteration over a tree;
* :func:`clone` — structural deep copy so a reduced candidate never aliases
  the statement it came from;
* :func:`replace_node` / :func:`transform` — splice a replacement subtree
  into a cloned tree at a given position, or rewrite a fresh copy.

Positions are identified by *node identity* after cloning: callers clone the
seed once, walk the clone to pick targets, and mutate in place.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional

from . import nodes as n


def walk(node: n.Node) -> Iterator[n.Node]:
    """Yield *node* and every descendant in preorder."""
    stack: List[n.Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        children = list(current.children())
        stack.extend(reversed(children))


def clone(node: n.Node) -> n.Node:
    """Return a deep copy of *node*: every node, list and tuple is fresh.

    Node attributes hold only nodes, lists, tuples and immutable scalars,
    so a structural copy is a complete one.  Unlike ``copy.deepcopy`` it
    does not preserve aliasing inside the source; parsed and generated
    trees have none.
    """
    return _copy(node)


def _copy(value):
    cls = value.__class__
    if cls is list:
        return [_copy(item) for item in value]
    if cls is tuple:
        return tuple([_copy(item) for item in value])
    if isinstance(value, n.Node):
        fresh = object.__new__(cls)
        fresh.__dict__ = {key: _copy(item) for key, item in value.__dict__.items()}
        return fresh
    return value


def find_function_calls(node: n.Node) -> List[n.FuncCall]:
    """All :class:`FuncCall` nodes in preorder."""
    return [x for x in walk(node) if isinstance(x, n.FuncCall)]


def count_function_calls(node: n.Node) -> int:
    return len(find_function_calls(node))


def find_literals(node: n.Node) -> List[n.Expr]:
    """All literal leaves (integers, decimals, strings, NULL, booleans)."""
    kinds = (n.IntegerLit, n.DecimalLit, n.StringLit, n.NullLit, n.BooleanLit)
    return [x for x in walk(node) if isinstance(x, kinds)]


def max_function_nesting(node: n.Node) -> int:
    """Depth of the deepest chain of nested function calls."""

    def depth(current: n.Node) -> int:
        best = 0
        for child in current.children():
            best = max(best, depth(child))
        return best + (1 if isinstance(current, n.FuncCall) else 0)

    return depth(node)


def transform(
    node: n.Node, fn: Callable[[n.Node], Optional[n.Node]]
) -> n.Node:
    """Bottom-up rewrite: *fn* returns a replacement node or None to keep.

    The input tree is not modified; a rewritten copy is returned.  Every
    node the rewrite descends into is a fresh object, so the result shares
    no expression or clause node with the input: either tree can be
    changed in place without the other seeing it.  (The rewrite does not
    descend into ``EXPLAIN`` targets, ``CREATE TABLE`` column lists or
    ``TypeName`` parameters; those stay shared.)
    """

    def rewrite(current: n.Node) -> n.Node:
        fresh = object.__new__(current.__class__)
        fresh.__dict__ = current.__dict__.copy()
        _replace_children(fresh, rewrite)
        replacement = fn(fresh)
        return replacement if replacement is not None else fresh

    return rewrite(node)


def _replace_children(node: n.Node, rewrite: Callable[[n.Node], n.Node]) -> None:
    """Rewrite child links in place (on a fresh copy, or by splicing)."""
    rewire = _REWIRE.get(node.__class__)
    if rewire is not None:
        rewire(node, rewrite)


# -- per-type child rewiring ---------------------------------------------
# Each function replaces its node's child links with ``rewrite(child)``,
# visiting children in source order (the optimizer's folds run in that
# order, so it decides which of two faulty sites crashes first).  The
# table is keyed by exact node class (no node class is subclassed); leaf
# nodes (literals, refs, TableRef, ColumnDef, ...) have no entry.


def _rw_args(node, rewrite):
    node.args = [rewrite(a) for a in node.args]


def _rw_operand(node, rewrite):
    node.operand = rewrite(node.operand)


def _rw_left_right(node, rewrite):
    node.left = rewrite(node.left)
    node.right = rewrite(node.right)


def _rw_expr(node, rewrite):
    node.expr = rewrite(node.expr)


def _rw_items(node, rewrite):
    node.items = [rewrite(i) for i in node.items]


def _rw_query(node, rewrite):
    node.query = rewrite(node.query)


def _rw_case(node, rewrite):
    if node.operand is not None:
        node.operand = rewrite(node.operand)
    node.whens = [(rewrite(c), rewrite(r)) for c, r in node.whens]
    if node.else_ is not None:
        node.else_ = rewrite(node.else_)


def _rw_in(node, rewrite):
    node.expr = rewrite(node.expr)
    node.items = [rewrite(i) for i in node.items]


def _rw_between(node, rewrite):
    node.expr = rewrite(node.expr)
    node.low = rewrite(node.low)
    node.high = rewrite(node.high)


def _rw_like(node, rewrite):
    node.expr = rewrite(node.expr)
    node.pattern = rewrite(node.pattern)


def _rw_map(node, rewrite):
    node.keys = [rewrite(k) for k in node.keys]
    node.values = [rewrite(v) for v in node.values]


def _rw_value(node, rewrite):
    node.value = rewrite(node.value)


def _rw_index(node, rewrite):
    node.base = rewrite(node.base)
    node.index = rewrite(node.index)


def _rw_select(node, rewrite):
    node.items = [rewrite(i) for i in node.items]
    node.from_ = [rewrite(f) for f in node.from_]
    if node.where is not None:
        node.where = rewrite(node.where)
    node.group_by = [rewrite(g) for g in node.group_by]
    if node.having is not None:
        node.having = rewrite(node.having)
    node.order_by = [rewrite(o) for o in node.order_by]
    if node.limit is not None:
        node.limit = rewrite(node.limit)
    if node.offset is not None:
        node.offset = rewrite(node.offset)


def _rw_join(node, rewrite):
    node.left = rewrite(node.left)
    node.right = rewrite(node.right)
    if node.on is not None:
        node.on = rewrite(node.on)


def _rw_exists(node, rewrite):
    node.subquery = rewrite(node.subquery)


def _rw_insert(node, rewrite):
    node.rows = [[rewrite(v) for v in row] for row in node.rows]


def _rw_update(node, rewrite):
    node.assignments = [(c, rewrite(e)) for c, e in node.assignments]
    if node.where is not None:
        node.where = rewrite(node.where)


def _rw_where(node, rewrite):
    if node.where is not None:
        node.where = rewrite(node.where)


_REWIRE: Dict[type, Callable] = {
    n.FuncCall: _rw_args,
    n.UnaryOp: _rw_operand,
    n.BinaryOp: _rw_left_right,
    n.Cast: _rw_operand,
    n.CaseExpr: _rw_case,
    n.InExpr: _rw_in,
    n.BetweenExpr: _rw_between,
    n.LikeExpr: _rw_like,
    n.IsNullExpr: _rw_expr,
    n.RowExpr: _rw_items,
    n.ArrayExpr: _rw_items,
    n.MapExpr: _rw_map,
    n.IntervalExpr: _rw_value,
    n.IndexExpr: _rw_index,
    n.SelectItem: _rw_expr,
    n.OrderItem: _rw_expr,
    n.Select: _rw_select,
    n.SetOp: _rw_left_right,
    n.SubqueryExpr: _rw_query,
    n.SubqueryRef: _rw_query,
    n.JoinRef: _rw_join,
    n.ExistsExpr: _rw_exists,
    n.Insert: _rw_insert,
    n.Update: _rw_update,
    n.Delete: _rw_where,
    n.SetStmt: _rw_value,
}


def replace_node(root: n.Node, target: n.Node, replacement: n.Node) -> n.Node:
    """Splice *replacement* in place of *target* within *root*, in place.

    *target* must be a node obtained by walking *root* itself (identity
    comparison).  Returns the (possibly new) root: when *target* is the root
    the replacement is returned, otherwise *root* is mutated and returned.

    Typical pattern-application flow::

        tree = clone(seed)
        call = find_function_calls(tree)[k]
        replace_node(tree, call.args[0], boundary_literal)
    """
    if root is target:
        return replacement
    found = False

    def swap(node: n.Node) -> n.Node:
        nonlocal found
        if node is target:
            found = True
            return replacement
        return node

    for current in walk(root):
        if found:
            break
        for child in current.children():
            if child is target:
                _replace_children(current, swap)
                break
    if not found:
        raise ValueError("target node not found in tree")
    return root
