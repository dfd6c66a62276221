"""Generic AST traversal, cloning, and in-place transformation helpers.

SOFT's PoC minimizer and the optimizer need three operations:

* :func:`walk` — preorder iteration over a tree;
* :func:`clone` — structural deep copy so a reduced candidate never aliases
  the statement it came from;
* :func:`replace_node` / :func:`transform` — splice a replacement subtree
  into a cloned tree at a given position, or rewrite a tree copy-on-write
  (unchanged subtrees come back shared).

Positions are identified by *node identity* after cloning: callers clone the
seed once, walk the clone to pick targets, and mutate in place.
"""

from __future__ import annotations

from operator import is_not
from typing import Callable, Collection, Dict, Iterator, List, Optional

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
    node: n.Node,
    fn: Callable[[n.Node], Optional[n.Node]],
    kinds: Optional[Collection[type]] = None,
) -> n.Node:
    """Bottom-up rewrite: *fn* returns a replacement node or None to keep.

    *fn* sees every node, or with *kinds* only the nodes of those exact
    classes.  The input tree is not modified.  The rewrite is
    copy-on-write: a node is copied only when *fn* replaced one of its
    children (or one of theirs), so a subtree with nothing to rewrite
    comes back as the very same object, and a rewrite copies exactly the
    path from the replaced node to the root.  The result therefore shares
    nodes with the input, and neither tree may be changed in place while
    the other is in use; *fn* must likewise return a new node rather than
    edit the one it is given.  (The rewrite does not descend into
    ``EXPLAIN`` targets, ``CREATE TABLE`` column lists or ``TypeName``
    parameters.)
    """

    def rewrite(current: n.Node) -> n.Node:
        cls = current.__class__
        if cls in _REWIRE:
            current = _replace_children(current, rewrite)
        if kinds is not None and cls not in kinds:
            return current
        replacement = fn(current)
        return current if replacement is None else replacement

    return rewrite(node)


def _replace_children(node: n.Node, rewrite: Callable[[n.Node], n.Node]) -> n.Node:
    """*node* with every child link replaced by ``rewrite(child)``.

    Returns *node* itself when no link changed, otherwise a shallow copy
    of *node* holding the new links (a child list whose nodes all came
    back unchanged stays shared too).
    """
    links = _REWIRE[node.__class__](node, rewrite)
    if links is None:
        return node
    fresh = object.__new__(node.__class__)
    attributes = node.__dict__.copy()
    for name, value in links.items():
        old = attributes[name]
        if not (value.__class__ is list and _kept(old, value)):
            attributes[name] = value
    fresh.__dict__ = attributes
    return fresh


def _kept(old: List, new: List) -> bool:
    """True when list *new* holds exactly the nodes of list *old*."""
    return not any(map(is_not, old, new))


# -- per-type child rewiring ---------------------------------------------
# Each function computes ``rewrite(child)`` for each of its node's child
# links, visiting children in source order (the optimizer's folds run in
# that order, so it decides which of two faulty sites crashes first).  It
# returns None when every child came back as itself, and otherwise the
# node's new links as ``{attribute: value}``; the node itself is left
# alone.  The table is keyed by exact node class (no node class is
# subclassed); leaf nodes (literals, refs, TableRef, ColumnDef, ...) have
# no entry.


def _rw_args(node, rewrite):
    args = [rewrite(a) for a in node.args]
    return None if _kept(node.args, args) else {"args": args}


def _rw_operand(node, rewrite):
    operand = rewrite(node.operand)
    return None if operand is node.operand else {"operand": operand}


def _rw_left_right(node, rewrite):
    left = rewrite(node.left)
    right = rewrite(node.right)
    if left is node.left and right is node.right:
        return None
    return {"left": left, "right": right}


def _rw_expr(node, rewrite):
    expr = rewrite(node.expr)
    return None if expr is node.expr else {"expr": expr}


def _rw_items(node, rewrite):
    items = [rewrite(i) for i in node.items]
    return None if _kept(node.items, items) else {"items": items}


def _rw_query(node, rewrite):
    query = rewrite(node.query)
    return None if query is node.query else {"query": query}


def _rw_case(node, rewrite):
    operand = node.operand
    if operand is not None:
        operand = rewrite(operand)
    whens = [(rewrite(c), rewrite(r)) for c, r in node.whens]
    else_ = node.else_
    if else_ is not None:
        else_ = rewrite(else_)
    if (
        operand is node.operand
        and else_ is node.else_
        and all(c is old_c and r is old_r
                for (c, r), (old_c, old_r) in zip(whens, node.whens))
    ):
        return None
    return {"operand": operand, "whens": whens, "else_": else_}


def _rw_in(node, rewrite):
    expr = rewrite(node.expr)
    items = [rewrite(i) for i in node.items]
    if expr is node.expr and _kept(node.items, items):
        return None
    return {"expr": expr, "items": items}


def _rw_between(node, rewrite):
    expr = rewrite(node.expr)
    low = rewrite(node.low)
    high = rewrite(node.high)
    if expr is node.expr and low is node.low and high is node.high:
        return None
    return {"expr": expr, "low": low, "high": high}


def _rw_like(node, rewrite):
    expr = rewrite(node.expr)
    pattern = rewrite(node.pattern)
    if expr is node.expr and pattern is node.pattern:
        return None
    return {"expr": expr, "pattern": pattern}


def _rw_map(node, rewrite):
    keys = [rewrite(k) for k in node.keys]
    values = [rewrite(v) for v in node.values]
    if _kept(node.keys, keys) and _kept(node.values, values):
        return None
    return {"keys": keys, "values": values}


def _rw_value(node, rewrite):
    value = rewrite(node.value)
    return None if value is node.value else {"value": value}


def _rw_index(node, rewrite):
    base = rewrite(node.base)
    index = rewrite(node.index)
    if base is node.base and index is node.index:
        return None
    return {"base": base, "index": index}


def _rw_select(node, rewrite):
    items = [rewrite(i) for i in node.items]
    from_ = [rewrite(f) for f in node.from_]
    where = node.where
    if where is not None:
        where = rewrite(where)
    group_by = [rewrite(g) for g in node.group_by]
    having = node.having
    if having is not None:
        having = rewrite(having)
    order_by = [rewrite(o) for o in node.order_by]
    limit = node.limit
    if limit is not None:
        limit = rewrite(limit)
    offset = node.offset
    if offset is not None:
        offset = rewrite(offset)
    if (
        where is node.where
        and having is node.having
        and limit is node.limit
        and offset is node.offset
        and _kept(node.items, items)
        and _kept(node.from_, from_)
        and _kept(node.group_by, group_by)
        and _kept(node.order_by, order_by)
    ):
        return None
    return {
        "items": items, "from_": from_, "where": where, "group_by": group_by,
        "having": having, "order_by": order_by, "limit": limit,
        "offset": offset,
    }


def _rw_join(node, rewrite):
    left = rewrite(node.left)
    right = rewrite(node.right)
    on = node.on
    if on is not None:
        on = rewrite(on)
    if left is node.left and right is node.right and on is node.on:
        return None
    return {"left": left, "right": right, "on": on}


def _rw_exists(node, rewrite):
    subquery = rewrite(node.subquery)
    return None if subquery is node.subquery else {"subquery": subquery}


def _rw_insert(node, rewrite):
    rows = [[rewrite(v) for v in row] for row in node.rows]
    if all(_kept(old, new) for old, new in zip(node.rows, rows)):
        return None
    return {"rows": rows}


def _rw_update(node, rewrite):
    assignments = [(c, rewrite(e)) for c, e in node.assignments]
    where = node.where
    if where is not None:
        where = rewrite(where)
    if where is node.where and all(
        e is old for (_, e), (_, old) in zip(assignments, node.assignments)
    ):
        return None
    return {"assignments": assignments, "where": where}


def _rw_where(node, rewrite):
    where = node.where
    if where is None:
        return None
    where = rewrite(where)
    return None if where is node.where else {"where": where}


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
                rewire = _REWIRE.get(current.__class__)
                if rewire is not None:
                    current.__dict__.update(rewire(current, swap) or {})
                break
    if not found:
        raise ValueError("target node not found in tree")
    return root
