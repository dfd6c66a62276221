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
from ..sqlast.visitor import walk
from .casting import cast_value
from .catalog import Database, Table
from .context import ExecutionContext
from .errors import NameError_, ResourceError, SQLError, TypeError_, ValueError_
from .evaluator import Evaluator, RowScope, compare_values
from .values import NULL, SQLString, SQLValue, is_numeric

#: guard against cartesian blowups in generated queries
MAX_RESULT_ROWS = 100_000


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
        if stmt.where is not None:
            # fault-injection hook used by the logic-bug oracles
            # (repro.core.logic): a classic optimizer defect treats an
            # UNKNOWN predicate as TRUE
            null_as_true = self.ctx.get_config("faulty_where_null_as_true") == "1"
            filtered = []
            for scope in scopes:
                value = Evaluator(self.ctx, scope).eval(stmt.where)
                if value.is_null:
                    if null_as_true:
                        filtered.append(scope)
                    continue
                if value.as_bool():
                    filtered.append(scope)
            scopes = filtered

        has_aggregate = any(
            self._is_aggregate_call(e)
            for item in stmt.items
            for e in walk(item.expr)
        ) or (
            stmt.having is not None
            and any(self._is_aggregate_call(e) for e in walk(stmt.having))
        )

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
                evaluator = Evaluator(self.ctx, scope)
                rows.append(self._project(stmt, evaluator, scope))
                row_scopes.append(scope)
                if governor is not None:
                    governor.on_rows()
                if len(rows) > MAX_RESULT_ROWS:
                    raise ResourceError("result set exceeds row limit")

        if stmt.distinct:
            rows = _distinct_rows(rows)
            row_scopes = row_scopes[: len(rows)]
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

    def _is_aggregate_call(self, expr: n.Node) -> bool:
        if not isinstance(expr, n.FuncCall):
            return False
        try:
            return self.ctx.registry.lookup(expr.name).is_aggregate
        except SQLError:
            return False

    # -- FROM resolution ----------------------------------------------------
    def _resolve_from(
        self, sources: List[n.Node], outer_scope: Optional[RowScope]
    ) -> List[RowScope]:
        if not sources:
            return [RowScope(parent=outer_scope)]
        scope_sets: List[List[Dict[str, SQLValue]]] = []
        for source in sources:
            scope_sets.append(self._resolve_source(source, outer_scope))
        # cartesian product across comma-separated sources
        governor = self.ctx.governor
        combined: List[Dict[str, SQLValue]] = [{}]
        for scope_set in scope_sets:
            next_combined = []
            for base in combined:
                for bindings in scope_set:
                    merged = dict(base)
                    merged.update(bindings)
                    next_combined.append(merged)
                    if governor is not None:
                        governor.on_rows()
                    if len(next_combined) > MAX_RESULT_ROWS:
                        raise ResourceError("join produces too many rows")
            combined = next_combined
        # binder output keys are already lowercased (see _bind_row)
        return [
            RowScope(bindings, parent=outer_scope, lowered=True)
            for bindings in combined
        ]

    def _resolve_source(
        self, source: n.Node, outer_scope: Optional[RowScope]
    ) -> List[Dict[str, SQLValue]]:
        if isinstance(source, n.TableRef):
            table = self.database.get_table(source.name)
            alias = source.alias or source.name
            return [self._bind_row(table, alias, row) for row in table.rows]
        if isinstance(source, n.SubqueryRef):
            columns, rows = self._run_select_like(source.query, outer_scope)
            alias = source.alias or "sq"
            out = []
            for row in rows:
                bindings: Dict[str, SQLValue] = {}
                for name, value in zip(columns, row):
                    bindings[name.lower()] = value
                    bindings[f"{alias}.{name}".lower()] = value
                out.append(bindings)
            return out
        if isinstance(source, n.JoinRef):
            return self._resolve_join(source, outer_scope)
        raise TypeError_(f"unsupported FROM source {type(source).__name__}")

    def _bind_row(self, table: Table, alias: str, row: List[SQLValue]) -> Dict[str, SQLValue]:
        bindings: Dict[str, SQLValue] = {}
        for column, value in zip(table.columns, row):
            bindings[column.name.lower()] = value
            bindings[f"{alias}.{column.name}".lower()] = value
        return bindings

    def _resolve_join(
        self, join: n.JoinRef, outer_scope: Optional[RowScope]
    ) -> List[Dict[str, SQLValue]]:
        left_rows = self._resolve_source(join.left, outer_scope)
        right_rows = self._resolve_source(join.right, outer_scope)
        out: List[Dict[str, SQLValue]] = []
        null_right = (
            {key: NULL for bindings in right_rows[:1] for key in bindings}
            if right_rows
            else {}
        )
        governor = self.ctx.governor
        for left in left_rows:
            matched = False
            for right in right_rows:
                merged = dict(left)
                merged.update(right)
                if join.on is not None:
                    value = Evaluator(
                        self.ctx,
                        RowScope(merged, parent=outer_scope, lowered=True),
                    ).eval(join.on)
                    if value.is_null or not value.as_bool():
                        continue
                matched = True
                out.append(merged)
                if governor is not None:
                    governor.on_rows()
                if len(out) > MAX_RESULT_ROWS:
                    raise ResourceError("join produces too many rows")
            if not matched and join.kind == "LEFT":
                merged = dict(left)
                merged.update(null_right)
                out.append(merged)
        return out

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
                        name for name in scopes[0].columns if "." not in name
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
                if scope is None or not scope.columns:
                    raise NameError_("SELECT * with no FROM clause")
                row.extend(
                    value
                    for name, value in scope.columns.items()
                    if "." not in name
                )
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

        def sort_value(index: int, item: n.OrderItem) -> SQLValue:
            row = rows[index]
            # ORDER BY <position> and ORDER BY <alias> conveniences
            if isinstance(item.expr, n.IntegerLit):
                position = item.expr.value
                if 1 <= position <= len(row):
                    return row[position - 1]
                raise ValueError_(f"ORDER BY position {position} out of range")
            if isinstance(item.expr, n.ColumnRef) and item.expr.name in columns:
                return row[columns.index(item.expr.name)]
            parent = row_scopes[index] if index < len(row_scopes) else None
            scope = RowScope(dict(zip(columns, row)), parent=parent)
            return Evaluator(self.ctx, scope).eval(item.expr)

        def cmp(a: int, b: int) -> int:
            for item in stmt.order_by:
                va, vb = sort_value(a, item), sort_value(b, item)
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
            if optimized.group_by or any(
                self._is_aggregate_call(e)
                for item in optimized.items
                for e in walk(item.expr)
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
        updated = 0
        for row in table.rows:
            scope = RowScope(self._bind_row(table, stmt.table, row), lowered=True)
            if stmt.where is not None:
                keep = Evaluator(self.ctx, scope).eval(stmt.where)
                if keep.is_null or not keep.as_bool():
                    continue
            for index, (_, expr) in zip(indexes, stmt.assignments):
                value = Evaluator(self.ctx, scope).eval(expr)
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
        deleted = 0
        for row in table.rows:
            if stmt.where is not None:
                scope = RowScope(self._bind_row(table, stmt.table, row), lowered=True)
                keep = Evaluator(self.ctx, scope).eval(stmt.where)
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


def _row_key(row: List[SQLValue]) -> Tuple:
    return tuple(v.sort_key() for v in row)


def _distinct_rows(rows: List[List[SQLValue]]) -> List[List[SQLValue]]:
    seen = set()
    out = []
    for row in rows:
        key = _row_key(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out
