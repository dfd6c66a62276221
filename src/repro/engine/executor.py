"""Statement executor: the execution stage of the simulated engines.

Implements the relational pipeline over the catalog: FROM resolution
(including joins and derived tables), WHERE filtering, grouping and
aggregation, HAVING, projection, set operations with implicit type
unification (the surface Pattern 2.2 attacks), ORDER BY / LIMIT, and the
DDL/DML statements PoCs need (CREATE TABLE / INSERT / DROP / SET).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sqlast import nodes as n
from .casting import cast_value
from .catalog import Database, Table
from .context import ExecutionContext
from .errors import NameError_, ResourceError, SQLError, TypeError_, ValueError_
from .evaluator import Evaluator, RowScope, compare_values, row_invariant_memo
from .values import (
    NULL, SQLString, SQLValue, int_text, is_numeric, literal_to_int,
)

#: guard against cartesian blowups in generated queries
MAX_RESULT_ROWS = 100_000

#: one resolved FROM source: its name → slot map, its row width, its rows
Scan = Tuple[Dict[str, int], int, List[List[SQLValue]]]


@dataclass
class Result:
    """A query result set."""

    columns: List[str] = field(default_factory=list)
    rows: List[List[SQLValue]] = field(default_factory=list)

    def scalar(self) -> SQLValue:
        if not self.rows or not self.rows[0]:
            return NULL
        return self.rows[0][0]

    def rendered(self) -> List[List[str]]:
        return [[v.render() for v in row] for row in self.rows]


class Executor:
    """Executes parsed statements against a database."""

    def __init__(self, ctx: ExecutionContext, database: Database) -> None:
        self.ctx = ctx
        self.database = database
        ctx.execute_subquery = self._execute_subquery

    # ------------------------------------------------------------------
    def execute(self, stmt: n.Statement) -> Result:
        self.ctx.stage = "execute"
        if isinstance(stmt, (n.Select, n.SetOp)):
            columns, rows = self._run_select_like(stmt, outer_scope=None)
            return Result(columns, rows)
        if isinstance(stmt, n.CreateTable):
            self.database.create_table(stmt.name, stmt.columns, stmt.if_not_exists)
            return Result()
        if isinstance(stmt, n.Insert):
            return self._run_insert(stmt)
        if isinstance(stmt, n.Explain):
            return self._run_explain(stmt)
        if isinstance(stmt, n.Update):
            return self._run_update(stmt)
        if isinstance(stmt, n.Delete):
            return self._run_delete(stmt)
        if isinstance(stmt, n.DropTable):
            self.database.drop_table(stmt.name, stmt.if_exists)
            return Result()
        if isinstance(stmt, n.SetStmt):
            evaluator = Evaluator(self.ctx)
            value = evaluator.eval(stmt.value)
            self.ctx.set_config(stmt.name, value.render())
            return Result()
        raise TypeError_(f"cannot execute {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # subquery hook for the evaluator
    # ------------------------------------------------------------------
    def _execute_subquery(
        self, query: n.SelectLike, outer_scope: Optional[RowScope]
    ) -> List[List[SQLValue]]:
        _, rows = self._run_select_like(query, outer_scope)
        return rows

    # ------------------------------------------------------------------
    # SELECT pipeline
    # ------------------------------------------------------------------
    def _run_select_like(
        self, stmt: n.SelectLike, outer_scope: Optional[RowScope]
    ) -> Tuple[List[str], List[List[SQLValue]]]:
        if isinstance(stmt, n.SetOp):
            return self._run_setop(stmt, outer_scope)
        return self._run_select(stmt, outer_scope)

    def _run_setop(
        self, stmt: n.SetOp, outer_scope: Optional[RowScope]
    ) -> Tuple[List[str], List[List[SQLValue]]]:
        left_cols, left_rows = self._run_select_like(stmt.left, outer_scope)
        right_cols, right_rows = self._run_select_like(stmt.right, outer_scope)
        if left_rows and right_rows and len(left_rows[0]) != len(right_rows[0]):
            raise TypeError_(
                f"{stmt.op} branches have different column counts "
                f"({len(left_rows[0])} vs {len(right_rows[0])})"
            )
        right_rows = self._unify_setop_rows(left_rows, right_rows)
        if stmt.op == "UNION":
            combined = left_rows + right_rows
            if not stmt.all:
                combined = _distinct_rows(combined)
            return left_cols, combined
        left_keys = {_row_key(r) for r in left_rows}
        right_keys = {_row_key(r) for r in right_rows}
        if stmt.op == "EXCEPT":
            rows = [r for r in _distinct_rows(left_rows) if _row_key(r) not in right_keys]
            return left_cols, rows
        if stmt.op == "INTERSECT":
            rows = [r for r in _distinct_rows(left_rows) if _row_key(r) in right_keys]
            return left_cols, rows
        raise TypeError_(f"unsupported set operation {stmt.op}")

    def _unify_setop_rows(
        self, left_rows: List[List[SQLValue]], right_rows: List[List[SQLValue]]
    ) -> List[List[SQLValue]]:
        """Implicit cast of the right branch to the left branch's types.

        SQL requires both UNION branches to produce one common type per
        column; this coercion step is the implicit-cast surface the paper's
        Pattern 2.2 exploits.  Dialects may override per-family behaviour
        through ``ctx.cast_overrides``.
        """
        if not left_rows or not right_rows:
            return right_rows
        from ..sqlast import TypeName

        template = left_rows[0]
        unified: List[List[SQLValue]] = []
        for row in right_rows:
            new_row: List[SQLValue] = []
            for target, value in zip(template, row):
                if value.is_null or target.is_null:
                    new_row.append(value)
                    continue
                if target.type_name == value.type_name:
                    new_row.append(value)
                    continue
                if is_numeric(target) and is_numeric(value):
                    new_row.append(value)
                    continue
                try:
                    new_row.append(
                        cast_value(self.ctx, value, TypeName(target.type_name))
                    )
                except SQLError:
                    # fall back to the textual common type
                    new_row.append(SQLString(value.render()))
            unified.append(new_row)
        return unified

    def _run_select(
        self, stmt: n.Select, outer_scope: Optional[RowScope]
    ) -> Tuple[List[str], List[List[SQLValue]]]:
        scopes = self._resolve_from(stmt.from_, outer_scope)
        # one evaluator serves the WHERE and the projection of every row
        evaluator = Evaluator(self.ctx)
        if len(scopes) > 1 and self.ctx.governor is None:
            # what reads no row is computed once per SELECT; governed runs
            # skip the memo so their budgets tick on every evaluation
            exprs = [item.expr for item in stmt.items]
            if stmt.where is not None:
                exprs.append(stmt.where)
            evaluator.memo = row_invariant_memo(self.ctx, exprs)
        if stmt.where is not None:
            filtered = []
            for scope in scopes:
                evaluator.scope = scope
                value = evaluator.eval(stmt.where)
                if not value.is_null and value.as_bool():
                    filtered.append(scope)
            scopes = filtered

        aggregated = [item.expr for item in stmt.items]
        if stmt.having is not None:
            aggregated.append(stmt.having)
        has_aggregate = self._calls_aggregate(aggregated)

        columns = self._output_names(stmt, scopes)
        rows: List[List[SQLValue]] = []
        row_scopes: List[RowScope] = []
        governor = self.ctx.governor
        if stmt.group_by or has_aggregate:
            groups = self._group_rows(stmt, scopes)
            for group in groups:
                representative = group[0] if group else RowScope()
                evaluator = Evaluator(self.ctx, representative, group_rows=group)
                if stmt.having is not None:
                    keep = evaluator.eval(stmt.having)
                    if keep.is_null or not keep.as_bool():
                        continue
                rows.append(self._project(stmt, evaluator, representative))
                row_scopes.append(representative)
                if governor is not None:
                    governor.on_rows()
        else:
            for scope in scopes:
                evaluator.scope = scope
                rows.append(self._project(stmt, evaluator, scope))
                row_scopes.append(scope)
                if governor is not None:
                    governor.on_rows()
                if len(rows) > MAX_RESULT_ROWS:
                    raise ResourceError("result set exceeds row limit")

        if stmt.distinct:
            # keep each surviving row's own scope: ORDER BY may read columns
            # the projection dropped
            keep = _first_distinct(rows)
            rows = [rows[i] for i in keep]
            row_scopes = [row_scopes[i] for i in keep]
        if stmt.order_by:
            rows = self._order(stmt, columns, rows, row_scopes)
        if stmt.offset is not None:
            offset = self._eval_limit(stmt.offset)
            rows = rows[offset:]
        if stmt.limit is not None:
            limit = self._eval_limit(stmt.limit)
            rows = rows[:limit]
        return columns, rows

    def _eval_limit(self, expr: n.Expr) -> int:
        value = Evaluator(self.ctx).eval(expr)
        if value.is_null:
            return MAX_RESULT_ROWS
        from .values import numeric_as_int

        amount = numeric_as_int(value)
        if amount < 0:
            raise ValueError_("LIMIT/OFFSET must be non-negative")
        return amount

    def _calls_aggregate(self, exprs: List[n.Node]) -> bool:
        """Whether an aggregate is called in *exprs*.  The search stops at
        subqueries: an aggregate there groups the subquery's own rows."""
        stack = list(exprs)
        while stack:
            node = stack.pop()
            if node.__class__ is n.FuncCall and self._is_aggregate_call(node):
                return True
            if not isinstance(node, (n.Select, n.SetOp)):
                stack.extend(node.children())
        return False

    def _is_aggregate_call(self, expr: n.Node) -> bool:
        if not isinstance(expr, n.FuncCall):
            return False
        try:
            return self.ctx.registry.lookup(expr.name).is_aggregate
        except SQLError:
            return False

    # -- FROM resolution ----------------------------------------------------
    # Every FROM shape resolves to a Scan: one name → slot map shared by all
    # of its rows, and the rows as plain value lists (a table scan hands out
    # the stored rows themselves).  Each row is then bound as a RowScope
    # over the shared map.
    def _resolve_from(
        self, sources: List[n.Node], outer_scope: Optional[RowScope]
    ) -> List[RowScope]:
        if not sources:
            return [RowScope(parent=outer_scope)]
        scans: List[Scan] = []
        for source in sources:
            scans.append(self._resolve_source(source, outer_scope))
        # cartesian product across comma-separated sources
        governor = self.ctx.governor
        slots: Dict[str, int] = {}
        width = 0
        combined: List[List[SQLValue]] = [[]]
        for scan_slots, scan_width, scan_rows in scans:
            next_combined = []
            for base in combined:
                for values in scan_rows:
                    next_combined.append(base + values if base else values)
                    if governor is not None:
                        governor.on_rows()
                    if len(next_combined) > MAX_RESULT_ROWS:
                        raise ResourceError("join produces too many rows")
            combined = next_combined
            slots = _merge_slots(slots, width, scan_slots)
            width += scan_width
        bind = RowScope.bind
        return [bind(slots, values, outer_scope) for values in combined]

    def _resolve_source(
        self, source: n.Node, outer_scope: Optional[RowScope]
    ) -> Scan:
        if isinstance(source, n.TableRef):
            table = self.database.get_table(source.name)
            alias = source.alias or source.name
            return (
                _table_slots(table, alias), len(table.columns), table.rows
            )
        if isinstance(source, n.SubqueryRef):
            columns, rows = self._run_select_like(source.query, outer_scope)
            alias = source.alias or "sq"
            # a set operation whose left branch is empty takes its width
            # from the right branch; bind no more names than values
            width = len(rows[0]) if rows else len(columns)
            return _name_slots(columns[:width], alias), width, rows
        if isinstance(source, n.JoinRef):
            return self._resolve_join(source, outer_scope)
        raise TypeError_(f"unsupported FROM source {type(source).__name__}")

    def _resolve_join(
        self, join: n.JoinRef, outer_scope: Optional[RowScope]
    ) -> Scan:
        left_slots, left_width, left_rows = self._resolve_source(
            join.left, outer_scope
        )
        right_slots, right_width, right_rows = self._resolve_source(
            join.right, outer_scope
        )
        if right_rows:
            slots = _merge_slots(left_slots, left_width, right_slots)
            width = left_width + right_width
        else:
            # no right row to take names from: the right side binds nothing
            slots, width, right_width = left_slots, left_width, 0
        null_right = [NULL] * right_width
        out: List[List[SQLValue]] = []
        evaluator = Evaluator(self.ctx)
        governor = self.ctx.governor
        for left in left_rows:
            matched = False
            for right in right_rows:
                merged = left + right
                if join.on is not None:
                    evaluator.scope = RowScope.bind(slots, merged, outer_scope)
                    value = evaluator.eval(join.on)
                    if value.is_null or not value.as_bool():
                        continue
                matched = True
                out.append(merged)
                if governor is not None:
                    governor.on_rows()
                if len(out) > MAX_RESULT_ROWS:
                    raise ResourceError("join produces too many rows")
            if not matched and join.kind == "LEFT":
                out.append(left + null_right)
        return slots, width, out

    # -- grouping -------------------------------------------------------------
    def _group_rows(self, stmt: n.Select, scopes: List[RowScope]) -> List[List[RowScope]]:
        if not stmt.group_by:
            return [scopes] if scopes else [[]]
        groups: Dict[Tuple, List[RowScope]] = {}
        for scope in scopes:
            evaluator = Evaluator(self.ctx, scope)
            key = tuple(evaluator.eval(g).sort_key() for g in stmt.group_by)
            groups.setdefault(key, []).append(scope)
        return list(groups.values())

    # -- projection ------------------------------------------------------------
    def _output_names(self, stmt: n.Select, scopes: List[RowScope]) -> List[str]:
        names: List[str] = []
        for idx, item in enumerate(stmt.items):
            if isinstance(item.expr, n.Star):
                if scopes:
                    names.extend(
                        name for name in scopes[0].slots if "." not in name
                    )
                continue
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, n.ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(f"col{idx + 1}")
        return names or ["col1"]

    def _project(
        self, stmt: n.Select, evaluator: Evaluator, scope: RowScope
    ) -> List[SQLValue]:
        row: List[SQLValue] = []
        for item in stmt.items:
            if isinstance(item.expr, n.Star):
                if scope is None or not scope.slots:
                    raise NameError_("SELECT * with no FROM clause")
                row.extend(scope.unqualified())
                continue
            row.append(evaluator.eval(item.expr))
        return row

    # -- ordering ------------------------------------------------------------
    def _order(
        self,
        stmt: n.Select,
        columns: List[str],
        rows: List[List[SQLValue]],
        row_scopes: List[RowScope],
    ) -> List[List[SQLValue]]:
        import functools

        # the output columns by name, over the row's own scope
        slots = _name_slots(columns[: len(rows[0])] if rows else [], None)

        def sort_value(index: int, item: n.OrderItem) -> SQLValue:
            row = rows[index]
            # ORDER BY <position> and ORDER BY <alias> conveniences
            if isinstance(item.expr, n.IntegerLit):
                position = literal_to_int(item.expr.text)
                if 1 <= position <= len(row):
                    return row[position - 1]
                raise ValueError_(
                    f"ORDER BY position {int_text(position)} out of range"
                )
            if isinstance(item.expr, n.ColumnRef) and item.expr.name in columns:
                return row[columns.index(item.expr.name)]
            parent = row_scopes[index] if index < len(row_scopes) else None
            scope = RowScope.bind(slots, row, parent)
            return Evaluator(self.ctx, scope).eval(item.expr)

        # a row's key is evaluated once, on its first comparison (a single
        # row is never compared, so it never evaluates its key)
        keys: List[Dict[int, SQLValue]] = [{} for _ in stmt.order_by]

        def key(
            index: int, item: n.OrderItem, cache: Dict[int, SQLValue]
        ) -> SQLValue:
            value = cache.get(index)
            if value is None:
                value = cache[index] = sort_value(index, item)
            return value

        def cmp(a: int, b: int) -> int:
            for item, cache in zip(stmt.order_by, keys):
                va, vb = key(a, item, cache), key(b, item, cache)
                if va.is_null and vb.is_null:
                    continue
                if va.is_null:
                    return -1 if not item.descending else 1
                if vb.is_null:
                    return 1 if not item.descending else -1
                c = compare_values(self.ctx, va, vb)
                if c:
                    return -c if item.descending else c
            return 0

        order = sorted(range(len(rows)), key=functools.cmp_to_key(cmp))
        return [rows[i] for i in order]

    # -- EXPLAIN ------------------------------------------------------------
    def _run_explain(self, stmt: n.Explain) -> Result:
        """Render the engine's three-stage plan for the target statement.

        The plan exposes the same stages the paper's Finding 1 classifies
        crashes into: the parsed tree, the optimizer's rewrite (with the
        constant-folding delta), and the executor's pipeline steps.
        """
        from ..sqlast import to_sql
        from .optimizer import optimize_statement

        lines: List[str] = []
        parsed_sql = to_sql(stmt.target)
        lines.append(f"parse:    {parsed_sql}")
        optimized = optimize_statement(self.ctx, stmt.target)
        optimized_sql = to_sql(optimized)
        delta = "" if optimized_sql == parsed_sql else "  [rewritten]"
        lines.append(f"optimize: {optimized_sql}{delta}")
        if isinstance(optimized, n.Select):
            steps: List[str] = []
            if optimized.from_:
                sources = ", ".join(to_sql(f) for f in optimized.from_)
                steps.append(f"scan({sources})")
            else:
                steps.append("scan(<virtual single row>)")
            if optimized.where is not None:
                steps.append(f"filter({to_sql(optimized.where)})")
            if optimized.group_by or self._calls_aggregate(
                [item.expr for item in optimized.items]
            ):
                keys = ", ".join(to_sql(g) for g in optimized.group_by) or "<all rows>"
                steps.append(f"aggregate(keys: {keys})")
            if optimized.having is not None:
                steps.append(f"having({to_sql(optimized.having)})")
            steps.append(
                "project(" + ", ".join(to_sql(i.expr) for i in optimized.items) + ")"
            )
            if optimized.order_by:
                steps.append("sort(" + ", ".join(
                    to_sql(o.expr) for o in optimized.order_by) + ")")
            if optimized.limit is not None:
                steps.append(f"limit({to_sql(optimized.limit)})")
            lines.append("execute:  " + " -> ".join(steps))
        else:
            lines.append(f"execute:  {type(optimized).__name__.lower()}")
        return Result(columns=["plan"], rows=[[SQLString(line)] for line in lines])

    # -- UPDATE / DELETE ------------------------------------------------------
    def _run_update(self, stmt: n.Update) -> Result:
        table = self.database.get_table(stmt.table)
        indexes = [table.column_index(col) for col, _ in stmt.assignments]
        slots = _table_slots(table, stmt.table)
        evaluator = Evaluator(self.ctx)
        updated = 0
        for row in table.rows:
            # every assignment reads the row as it was before the update
            evaluator.scope = RowScope.bind(slots, list(row))
            if stmt.where is not None:
                keep = evaluator.eval(stmt.where)
                if keep.is_null or not keep.as_bool():
                    continue
            for index, (_, expr) in zip(indexes, stmt.assignments):
                value = evaluator.eval(expr)
                column = table.columns[index]
                if not value.is_null:
                    value = cast_value(self.ctx, value, column.type_name)
                elif column.not_null:
                    raise ValueError_(f"column {column.name!r} is NOT NULL")
                row[index] = value
            updated += 1
        self.ctx.stats["last_result_rows"] = updated
        return Result()

    def _run_delete(self, stmt: n.Delete) -> Result:
        table = self.database.get_table(stmt.table)
        kept: List[List[SQLValue]] = []
        slots = _table_slots(table, stmt.table)
        evaluator = Evaluator(self.ctx)
        deleted = 0
        for row in table.rows:
            if stmt.where is not None:
                evaluator.scope = RowScope.bind(slots, row)
                keep = evaluator.eval(stmt.where)
                if keep.is_null or not keep.as_bool():
                    kept.append(row)
                    continue
            deleted += 1
        if stmt.where is None:
            deleted = len(table.rows)
            kept = []
        table.rows = kept
        self.ctx.stats["last_result_rows"] = deleted
        return Result()

    # -- INSERT ------------------------------------------------------------
    def _run_insert(self, stmt: n.Insert) -> Result:
        table = self.database.get_table(stmt.table)
        if stmt.columns:
            indexes = [table.column_index(c) for c in stmt.columns]
        else:
            indexes = list(range(len(table.columns)))
        evaluator = Evaluator(self.ctx)
        for row_exprs in stmt.rows:
            if len(row_exprs) != len(indexes):
                raise ValueError_(
                    f"INSERT row has {len(row_exprs)} values for {len(indexes)} columns"
                )
            full_row: List[SQLValue] = [NULL] * len(table.columns)
            for index, expr in zip(indexes, row_exprs):
                value = evaluator.eval(expr)
                column = table.columns[index]
                if not value.is_null:
                    value = cast_value(self.ctx, value, column.type_name)
                full_row[index] = value
            table.insert_row(full_row)
        return Result()


def _name_slots(names: List[str], alias: Optional[str]) -> Dict[str, int]:
    """Slot map binding each name, bare and (with *alias*) qualified, to
    its position; a later duplicate name takes the slot."""
    slots: Dict[str, int] = {}
    for index, name in enumerate(names):
        slots[name.lower()] = index
        if alias is not None:
            slots[f"{alias}.{name}".lower()] = index
    return slots


def _table_slots(table: Table, alias: str) -> Dict[str, int]:
    return _name_slots([column.name for column in table.columns], alias)


def _merge_slots(
    left: Dict[str, int], left_width: int, right: Dict[str, int]
) -> Dict[str, int]:
    """The slots of rows made by appending *right*'s values to *left*'s;
    a name bound on both sides resolves to the right side."""
    merged = dict(left)
    for name, slot in right.items():
        merged[name] = left_width + slot
    return merged


def _row_key(row: List[SQLValue]) -> Tuple:
    return tuple(v.sort_key() for v in row)


def _first_distinct(rows: List[List[SQLValue]]) -> List[int]:
    """Indexes of the first row of each distinct value, in row order."""
    seen = set()
    keep = []
    for index, row in enumerate(rows):
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            keep.append(index)
    return keep


def _distinct_rows(rows: List[List[SQLValue]]) -> List[List[SQLValue]]:
    return [rows[i] for i in _first_distinct(rows)]
