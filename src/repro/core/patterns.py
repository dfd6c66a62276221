"""The ten boundary-value-generation patterns (§6) as AST transformations.

Every pattern consumes a :class:`~repro.core.collect.Seed` (one collected
function expression) and yields new expressions with boundary arguments
spliced in:

* **P1.1** is the boundary literal pool itself (:mod:`repro.core.literals`).
* **P1.2** ``f(c) → f(bound)`` — substitute pool literals for arguments.
* **P1.3** ``f(c) → f(c[:i] + 99999 + c[i+1:])`` — inject digit runs.
* **P1.4** ``f(c) → f(c[:i] + c[i]c[i] + c[i+1:])`` — duplicate characters.
* **P2.1** ``f(c) → f(CAST(c AS type))`` — explicit casts.
* **P2.2** ``f(c) → f((SELECT c UNION SELECT t))`` — implicit UNION casts.
* **P2.3** ``f(c), f2(c2) → f(c2)`` — transplant another function's args.
* **P3.1** ``f(c) → f(REPEAT(c[:i], bound))`` — repetition-scale args.
* **P3.2** ``f(c), f2 → f(f2(c))`` — wrap an argument with another function.
* **P3.3** ``f(c), f2(c2) → f(f2(c2))`` — substitute another call wholesale.

Following Finding 3 (87.5% of bug-inducing statements contain ≤ 2 function
expressions), nesting patterns skip seeds that already contain two calls.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..sqlast import (
    ArrayExpr,
    BinaryOp,
    Cast,
    DecimalLit,
    Expr,
    FuncCall,
    IntegerLit,
    NullLit,
    ParseError,
    Select,
    SelectItem,
    SetOp,
    StringLit,
    SubqueryExpr,
    TypeName,
    UnaryOp,
    parse_expression,
    parse_statement,
    to_sql,
)
from ..sqlast.visitor import count_function_calls
from .clauses import comparison_bound_texts
from .collect import Seed
from .literals import boundary_literals, boundary_repeat_counts
from .tables import BASE_QUERY, PREDICATE_COLUMNS, predicate_statement

#: cast targets enumerated by Pattern 2.1 — chosen to cross every internal
#: type family boundary (numeric width, binary, temporal, document)
CAST_TARGETS = (
    TypeName("UNSIGNED"),
    TypeName("SIGNED"),
    TypeName("DECIMAL", [30, 28]),
    TypeName("DECIMAL", [38, 2]),
    TypeName("BINARY"),
    TypeName("CHAR", [2]),
    TypeName("DOUBLE"),
    TypeName("BOOLEAN"),
    TypeName("DATE"),
    TypeName("JSON"),
)

#: Finding 3: stop nesting once an expression holds two function calls
MAX_FUNCTION_CALLS = 2

#: digit runs injected by P1.3 (short run + one wide enough to cross
#: every dialect's numeric-width boundaries)
DIGIT_RUNS = ("99999", "9" * 25)

#: duplication factors used by P1.4
DUPLICATION_FACTORS = (2, 4)

#: comparison operators cycled by the predicate statement family when it
#: anchors a boundary expression against a seeded-table column
PREDICATE_OPS = ("=", "<", ">", "<=", ">=", "<>")


class GeneratedCase:
    """One generated test statement: its text and the tree it parses to.

    ``sql`` is the statement text, a plain ``str``; ``statement`` is the
    :class:`~repro.sqlast.Select` that text parses to, node for node (the
    runner executes it instead of lexing and parsing ``sql`` again, and
    ``tests/test_generated_trees.py`` holds the equality).  Both are
    materialized lazily: pattern generators describe the AST surgery as a
    thunk returning ``(sql, statement)``, and the splice/print work only
    runs when either is first read.  The thunks build a new call around
    the seed's own argument nodes (see :func:`_with_arg`) instead of
    copying the seed, so trees share nodes with the seeds and with each
    other; nothing downstream writes through them.  Parallel shard
    workers enumerate the full generation stream but execute only their
    own shard's cases, so skipped cases must cost an allocation, not a
    tree build.
    """

    __slots__ = (
        "_sql", "_statement", "_build", "pattern", "seed_function",
        "seed_family",
    )

    def __init__(
        self,
        sql: str,
        statement: Select,
        pattern: str,
        seed_function: str,
        seed_family: str,
    ) -> None:
        self._sql: Optional[str] = sql
        self._statement: Optional[Select] = statement
        self._build: Optional[Callable[[], Tuple[str, Select]]] = None
        self.pattern = pattern
        self.seed_function = seed_function
        self.seed_family = seed_family

    @classmethod
    def deferred(
        cls,
        build: Callable[[], Tuple[str, Select]],
        pattern: str,
        seed_function: str,
        seed_family: str,
    ) -> "GeneratedCase":
        """A case whose ``(sql, statement)`` *build* produces on first access."""
        case = cls.__new__(cls)
        case._sql = None
        case._statement = None
        case._build = build
        case.pattern = pattern
        case.seed_function = seed_function
        case.seed_family = seed_family
        return case

    def _materialize(self) -> None:
        assert self._build is not None
        self._sql, self._statement = self._build()
        self._build = None

    @property
    def sql(self) -> str:
        if self._sql is None:
            self._materialize()
        return self._sql

    @property
    def statement(self) -> Select:
        if self._statement is None:
            self._materialize()
        return self._statement

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.pattern}] {self.sql}"


def _as_statement(expr: Expr) -> Tuple[str, Select]:
    """``SELECT <expr>;`` as text and as the tree that text parses to."""
    return f"SELECT {to_sql(expr)};", Select([SelectItem(expr)])


def _with_arg(call: FuncCall, index: int, replacement: Expr) -> FuncCall:
    """*call* with argument *index* replaced.  The other arguments (and
    *replacement*) are shared, not copied: a generated tree is only
    printed and executed, never changed."""
    args = list(call.args)
    args[index] = replacement
    return FuncCall(call.name, args, distinct=call.distinct)


def _literal_args(call: FuncCall) -> List[int]:
    """Indices of arguments that are plain literals (P1.3/P1.4 targets)."""
    out = []
    for idx, arg in enumerate(call.args):
        if isinstance(arg, (StringLit, IntegerLit, DecimalLit, ArrayExpr)):
            out.append(idx)
    return out


class PatternEngine:
    """Applies the ten patterns to a seed corpus."""

    def __init__(
        self,
        seeds: Sequence[Seed],
        max_partners: int = 48,
        return_types: Optional[Dict[str, str]] = None,
        statement_family: str = "expression",
    ) -> None:
        if statement_family not in ("expression", "predicate"):
            raise ValueError(
                f"unknown statement family {statement_family!r} "
                f"(expected 'expression' or 'predicate')"
            )
        self.seeds = list(seeds)
        self.max_partners = max_partners
        self.statement_family = statement_family
        predicate = statement_family == "predicate"
        #: comparison-position boundary texts cycled by the predicate
        #: decoration (shared vocabulary with core.clauses)
        self._bound_texts = comparison_bound_texts() if predicate else []
        #: the trees the predicate decoration shares across statements,
        #: each parsed once here: every bound text, every anchor column,
        #: and the family's ``SELECT k, i, s, d FROM fuzz_t`` head
        self._bound_trees = [parse_expression(t) for t in self._bound_texts]
        self._column_trees = {
            column: parse_expression(column)
            for column in (PREDICATE_COLUMNS if predicate else ())
        }
        self._head = parse_statement(BASE_QUERY) if predicate else None
        #: function → result type observed when the seed corpus was replayed
        #: (SOFT sees every seed's result; the ordering below uses it)
        self.return_types = dict(return_types or {})
        self.pool = boundary_literals()
        self.repeat_counts = boundary_repeat_counts()
        self._partners = self._order_partners()
        self._donors = self._collect_donors()

    # ------------------------------------------------------------------
    # partner ordering for double-enumeration patterns
    # ------------------------------------------------------------------
    #: result types whose producers front the partner enumeration — these
    #: are the internal types the studied bugs show functions mishandle
    _EXOTIC_TYPES = (
        "bytes", "geometry", "json", "map", "date", "datetime", "time",
        "array", "inet", "interval", "row", "xml",
    )

    def _order_partners(self) -> List[Seed]:
        """Result-type-diverse round-robin over partner seeds.

        P2.3/P3.2/P3.3 enumerate pairs of functions; the paper ran the full
        quadratic enumeration over two weeks.  Under a bounded budget we
        order partners round-robin across *observed seed result types*
        (falling back to function family), so producers of every internal
        type — binary, geometry, JSON, temporal — appear within the first
        dozen partners.  This makes a bounded budget representative of the
        exhaustive run (ablated in bench_ablations.py::test_ablation_d5_partner_ordering).
        """
        def bucket_key(seed: Seed) -> str:
            observed = self.return_types.get(seed.function)
            if observed in self._EXOTIC_TYPES:
                return f"type:{observed}"
            return f"family:{seed.family}"

        buckets: Dict[str, List[Seed]] = {}
        for seed in self.seeds:
            buckets.setdefault(bucket_key(seed), []).append(seed)
        for bucket in buckets.values():
            bucket.sort(key=lambda s: (s.function, s.sql))
        # exotic-type buckets first, then families, both alphabetical
        ordered_keys = sorted(
            buckets, key=lambda k: (not k.startswith("type:"), k)
        )
        ordered: List[Seed] = []
        index = 0
        remaining = True
        while remaining:
            remaining = False
            for key in ordered_keys:
                bucket = buckets[key]
                if index < len(bucket):
                    ordered.append(bucket[index])
                    remaining = True
            index += 1
        return ordered

    def partners_for(self, seed: Seed) -> List[Seed]:
        out = []
        seen_functions = set()
        for partner in self._partners:
            if partner.function == seed.function:
                continue
            if partner.function in seen_functions:
                continue  # one seed per partner function keeps breadth
            seen_functions.add(partner.function)
            out.append(partner)
            if len(out) >= self.max_partners:
                break
        return out

    # ------------------------------------------------------------------
    # donor arguments for P2.3
    # ------------------------------------------------------------------
    def _collect_donors(self) -> List[Expr]:
        """Distinct literal arguments across the corpus, format-diverse.

        Pattern 2.3 passes *other functions' arguments* into a function.
        Enumerating every (function, argument) pair repeats the same values
        thousands of times; instead we deduplicate donor values and group
        them by leading character, taking two per group with symbol-leading
        donors (JSON paths, XPaths, format strings) first.
        """
        groups: Dict[str, List[Expr]] = {}
        seen_sql = set()
        for seed in self.seeds:
            for arg in seed.expression.args:
                if isinstance(arg, FuncCall):
                    continue
                sql = to_sql(arg)
                if sql in seen_sql:
                    continue
                seen_sql.add(sql)
                head = sql[1] if sql.startswith("'") and len(sql) > 1 else sql[:1]
                groups.setdefault(head, []).append(arg)
        ordered_heads = sorted(
            groups, key=lambda h: (h.isalnum(), h)
        )
        donors: List[Expr] = []
        for head in ordered_heads:
            donors.extend(groups[head][:2])
        return donors

    # ------------------------------------------------------------------
    # per-seed generation
    # ------------------------------------------------------------------
    def generate_for_seed(self, seed: Seed) -> Iterator[GeneratedCase]:
        """All pattern applications for one seed.

        The nine pattern streams are interleaved round-robin rather than
        exhausted in sequence, so a bounded budget samples every pattern
        family for every function early — the bounded-budget analogue of
        the paper's long-running exhaustive enumeration.
        """
        streams = [
            self.p1_2(seed),
            self.p1_3(seed),
            self.p1_4(seed),
            self.p2_1(seed),
            self.p2_2(seed),
            self.p2_3(seed),
            self.p3_1(seed),
            self.p3_2(seed),
            self.p3_3(seed),
        ]
        pending = list(streams)
        while pending:
            still = []
            for stream in pending:
                batch = list(itertools.islice(stream, 2))
                if batch:
                    still.append(stream)
                # popped, not iterated: a frame suspended here must not keep
                # the cases it handed out, trees and all, alive until its
                # seed's next turn
                while batch:
                    yield batch.pop(0)
            pending = still

    def generate_all(self) -> Iterator[GeneratedCase]:
        """The engine's statement stream, in the configured family.

        The default ``expression`` family is the raw interleaved pattern
        stream (byte-identical to every pre-family release).  The
        ``predicate`` family decorates each case into a seeded-table
        query — see :meth:`_as_predicate`.
        """
        cases = self._generate_expressions()
        if self.statement_family != "predicate":
            yield from cases
            return
        for ordinal, case in enumerate(cases):
            yield self._as_predicate(case, ordinal)

    def _generate_expressions(self) -> Iterator[GeneratedCase]:
        """Interleave generation across seeds (round-robin), so early budget
        spreads over the whole function inventory instead of exhausting the
        alphabet's first functions."""
        iterators = [self.generate_for_seed(seed) for seed in self.seeds]
        pending = list(iterators)
        while pending:
            still = []
            for iterator in pending:
                batch = list(itertools.islice(iterator, 4))
                if batch:
                    still.append(iterator)
                while batch:  # popped, as in generate_for_seed
                    yield batch.pop(0)
            pending = still

    def _as_predicate(self, case: GeneratedCase, ordinal: int) -> GeneratedCase:
        """Wrap an expression case into the predicate statement family::

            SELECT k, i, s, d FROM fuzz_t
            WHERE (<expr>) <cmp> <column> AND NOT (<bound> = <bound2>);

        The boundary expression is anchored against a seeded-table column
        (row-varying, NULL-able — what TLP partitions), and the conjoined
        ``NOT (<bound> = <bound2>)`` term places pool literals in a
        constant comparison the optimizer folds (what NoREC compares
        across optimizer modes).  All decoration choices cycle on the
        case's stream *ordinal*, fixed here eagerly: the wrapped SQL stays
        lazily built, and shard workers that skip rendering non-owned
        cases never touch shared RNG state, so serial and ``--jobs`` runs
        decorate identically.  The tree wraps the expression case's own
        tree in the head, column and bound trees parsed once per engine.
        """
        op = PREDICATE_OPS[ordinal % len(PREDICATE_OPS)]
        column = PREDICATE_COLUMNS[ordinal % len(PREDICATE_COLUMNS)]
        bounds = len(self._bound_texts)
        left = ordinal % bounds
        right = (ordinal + 1 + ordinal // bounds) % bounds

        def build(case=case, op=op, column=column, left=left, right=right):
            texts, trees, head = self._bound_texts, self._bound_trees, self._head
            expr = case.sql[len("SELECT "):].rstrip().rstrip(";")
            sql = predicate_statement(
                f"({expr}) {op} {column} "
                f"AND NOT ({texts[left]} = {texts[right]})"
            )
            where = BinaryOp(
                "AND",
                BinaryOp(
                    op, case.statement.items[0].expr, self._column_trees[column]
                ),
                UnaryOp("NOT", BinaryOp("=", trees[left], trees[right])),
            )
            return sql, Select(head.items, head.from_, where=where)

        return GeneratedCase.deferred(
            build, case.pattern, case.seed_function, case.seed_family
        )

    # ------------------------------------------------------------------
    # P1.2 — boundary pool substitution
    # ------------------------------------------------------------------
    def p1_2(self, seed: Seed) -> Iterator[GeneratedCase]:
        arity = len(seed.expression.args)
        for arg_index in range(arity):
            for literal in self.pool:
                # default-arg binding freezes the loop variables per case
                def build(seed=seed, arg_index=arg_index, literal=literal):
                    return _as_statement(
                        _with_arg(seed.expression, arg_index, literal)
                    )

                yield GeneratedCase.deferred(
                    build, "P1.2", seed.function, seed.family
                )
        if arity == 0:
            return

    # ------------------------------------------------------------------
    # P1.3 — digit-run injection
    # ------------------------------------------------------------------
    def p1_3(self, seed: Seed) -> Iterator[GeneratedCase]:
        for arg_index in _literal_args(seed.expression):
            original = seed.expression.args[arg_index]
            text = original.value if isinstance(original, StringLit) else to_sql(original)
            if not text:
                continue
            positions = sorted({0, len(text) // 2, len(text) - 1})
            for position in positions:
                for run in DIGIT_RUNS:
                    def build(
                        seed=seed,
                        arg_index=arg_index,
                        text=text,
                        position=position,
                        run=run,
                        quote=isinstance(original, StringLit),
                    ):
                        mutated = text[:position] + run + text[position + 1 :]
                        replacement = self._reparse_literal(mutated, quote=quote)
                        return _as_statement(
                            _with_arg(seed.expression, arg_index, replacement)
                        )

                    yield GeneratedCase.deferred(
                        build, "P1.3", seed.function, seed.family
                    )

    # ------------------------------------------------------------------
    # P1.4 — character duplication
    # ------------------------------------------------------------------
    def p1_4(self, seed: Seed) -> Iterator[GeneratedCase]:
        for arg_index in _literal_args(seed.expression):
            original = seed.expression.args[arg_index]
            text = original.value if isinstance(original, StringLit) else to_sql(original)
            if not text:
                continue
            # duplicate the first occurrence of each distinct character
            seen = set()
            positions = []
            for position, ch in enumerate(text):
                if ch not in seen:
                    seen.add(ch)
                    positions.append(position)
                if len(positions) >= 8:
                    break
            for position in positions:
                for factor in DUPLICATION_FACTORS:
                    def build(
                        seed=seed,
                        arg_index=arg_index,
                        text=text,
                        position=position,
                        factor=factor,
                        quote=isinstance(original, StringLit),
                    ):
                        mutated = (
                            text[:position]
                            + text[position] * factor
                            + text[position + 1 :]
                        )
                        replacement = self._reparse_literal(mutated, quote=quote)
                        return _as_statement(
                            _with_arg(seed.expression, arg_index, replacement)
                        )

                    yield GeneratedCase.deferred(
                        build, "P1.4", seed.function, seed.family
                    )

    @staticmethod
    def _reparse_literal(text: str, quote: bool) -> Expr:
        """Rebuild a literal from mutated text.  Non-string literals whose
        mutation no longer parses become string literals — malformed
        structured text is exactly what these patterns are after."""
        if quote:
            return StringLit(text)
        try:
            expr = parse_expression(text)
        except (ParseError, Exception):
            return StringLit(text)
        if isinstance(expr, (IntegerLit, DecimalLit, ArrayExpr)):
            return expr
        return StringLit(text)

    # ------------------------------------------------------------------
    # P2.1 — explicit casts
    # ------------------------------------------------------------------
    def p2_1(self, seed: Seed) -> Iterator[GeneratedCase]:
        for arg_index in range(len(seed.expression.args)):
            for target in CAST_TARGETS:
                def build(seed=seed, arg_index=arg_index, target=target):
                    call = seed.expression
                    cast = Cast(call.args[arg_index], target)
                    return _as_statement(_with_arg(call, arg_index, cast))

                yield GeneratedCase.deferred(
                    build, "P2.1", seed.function, seed.family
                )

    # ------------------------------------------------------------------
    # P2.2 — implicit casts via UNION
    # ------------------------------------------------------------------
    def p2_2(self, seed: Seed) -> Iterator[GeneratedCase]:
        others: List[Optional[Expr]] = [
            NullLit(),
            IntegerLit("0"),
            StringLit(""),
            DecimalLit("2.5"),
            None,  # sentinel: UNION ALL with the argument itself
        ]
        for arg_index in range(len(seed.expression.args)):
            for other in others:
                def build(seed=seed, arg_index=arg_index, other=other):
                    call = seed.expression
                    original = call.args[arg_index]
                    union = SetOp(
                        "UNION",
                        Select([SelectItem(original)]),
                        Select([SelectItem(original if other is None else other)]),
                        all=other is None,
                    )
                    return _as_statement(
                        _with_arg(call, arg_index, SubqueryExpr(union))
                    )

                yield GeneratedCase.deferred(
                    build, "P2.2", seed.function, seed.family
                )

    # ------------------------------------------------------------------
    # P2.3 — argument transplant between functions
    # ------------------------------------------------------------------
    def p2_3(self, seed: Seed) -> Iterator[GeneratedCase]:
        call = seed.expression
        arity = len(call.args)
        # (a) positional transplant of deduplicated donor values — the
        # format-diverse donors come first, so they lead the stream
        for donor in self._donors:
            for arg_index in range(arity):
                def build(call=call, arg_index=arg_index, donor=donor):
                    return _as_statement(_with_arg(call, arg_index, donor))

                yield GeneratedCase.deferred(
                    build, "P2.3", seed.function, seed.family
                )
        # (b) wholesale transplant when the arity is compatible
        for partner in self.partners_for(seed):
            partner_args = partner.expression.args
            if partner_args and len(partner_args) == arity:
                def build(call=call, partner_args=partner_args):
                    tree = FuncCall(
                        call.name, list(partner_args), distinct=call.distinct
                    )
                    return _as_statement(tree)

                yield GeneratedCase.deferred(
                    build, "P2.3", seed.function, seed.family
                )

    # ------------------------------------------------------------------
    # P3.1 — repetition-built arguments
    # ------------------------------------------------------------------
    def p3_1(self, seed: Seed) -> Iterator[GeneratedCase]:
        if count_function_calls(seed.expression) >= MAX_FUNCTION_CALLS:
            return
        for arg_index in _literal_args(seed.expression):
            original = seed.expression.args[arg_index]
            text = original.value if isinstance(original, StringLit) else to_sql(original)
            if not text:
                continue
            for prefix_len in (1, 3):
                prefix = text[:prefix_len]
                if not prefix:
                    continue
                for count in self.repeat_counts:
                    def build(
                        seed=seed, arg_index=arg_index, prefix=prefix, count=count
                    ):
                        repeat = FuncCall(
                            "REPEAT", [StringLit(prefix), IntegerLit(str(count))]
                        )
                        return _as_statement(
                            _with_arg(seed.expression, arg_index, repeat)
                        )

                    yield GeneratedCase.deferred(
                        build, "P3.1", seed.function, seed.family
                    )

    # ------------------------------------------------------------------
    # P3.2 — wrap an argument with another function
    # ------------------------------------------------------------------
    def p3_2(self, seed: Seed) -> Iterator[GeneratedCase]:
        if count_function_calls(seed.expression) >= MAX_FUNCTION_CALLS:
            return
        call = seed.expression
        for partner in self.partners_for(seed):
            inner_proto = partner.expression
            if not inner_proto.args:
                continue
            for arg_index in range(len(call.args)):
                def build(call=call, arg_index=arg_index, inner_proto=inner_proto):
                    inner_args = [call.args[arg_index], *inner_proto.args[1:]]
                    wrapped = FuncCall(inner_proto.name, inner_args)
                    return _as_statement(_with_arg(call, arg_index, wrapped))

                yield GeneratedCase.deferred(
                    build, "P3.2", seed.function, seed.family
                )

    # ------------------------------------------------------------------
    # P3.3 — substitute another function call wholesale
    # ------------------------------------------------------------------
    def p3_3(self, seed: Seed) -> Iterator[GeneratedCase]:
        if count_function_calls(seed.expression) >= MAX_FUNCTION_CALLS:
            return
        call = seed.expression
        for partner in self.partners_for(seed):
            if count_function_calls(partner.expression) >= MAX_FUNCTION_CALLS:
                continue
            for arg_index in range(len(call.args)):
                def build(call=call, arg_index=arg_index, partner=partner):
                    return _as_statement(
                        _with_arg(call, arg_index, partner.expression)
                    )

                yield GeneratedCase.deferred(
                    build, "P3.3", seed.function, seed.family
                )
