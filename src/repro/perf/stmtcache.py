"""Statement parse/plan cache for the execution hot path.

The pattern streams are highly repetitive in *shape*: P1.x/P2.3/P3.1 emit
the same seed skeleton with one literal swapped.  Only ~7-9% of statements
repeat byte-for-byte, so an exact-match cache alone hits rarely, and the
*parameterized* plan templates below raise the hit rate.  Hits are not
throughput, though: no current benchmark shows this cache paying for
itself end to end.  On the ``expr-serial`` campaign (duckdb, 20,000
statements, seed 0, one fresh process per run, 2 vCPUs), running with the
cache and the compiler both off was faster in 10 of 10 alternating pairs
(median 2,902 vs 3,620 stmt/s) and used less memory (peak RSS 51.9 vs
47.1 MB), with identical signatures.

What the front end costs end to end, from the traced ``expr-serial`` pass
of ``benchmarks/e2e`` (duckdb, 20,000 statements, this cache on; medians
of ten passes on a 2-vCPU machine): lexing, parsing and optimizing take
2.0 s against 3.5 s of execution (interpreter plus compiled closures).
Before the front-end kernels were tuned (``repro.sqlast``) they took
4.2 s against 3.4 s, and before the engine's big-number boundary 4.4 s
against 23.3 s: never the half of execution once claimed here.

Two LRU tiers, both keyed under the dialect name:

* **exact tier** — ``(dialect, sql) → optimized statement``.  A hit skips
  lexing, parsing, and optimization entirely; the cached plan tree is
  re-executed as-is (execution never mutates ASTs in this engine).
* **template tier** — ``(dialect, fingerprint) → parse template``.  The
  fingerprint is the token stream with literal *values* masked (their
  lexical kinds kept), so ``SELECT ASIN(9999)`` and ``SELECT ASIN(-0.01)``
  share one parse.  On a hit the template's literal slots are rebound from
  the probe's literal tokens — no tree building.  Measured on the duckdb
  generation stream this tier alone serves >50% of statements.

Correctness machinery (a cached plan must be byte-identical in outcome to a
cold parse):

* A statement only becomes a template if its literal *tokens* correspond
  1:1, in order and by kind and value, to the literal *nodes* of its parse
  tree (``_template_shape``).  Statements where the parser consumes literal
  tokens without producing literal nodes (e.g. ``CAST(x AS DECIMAL(30,28))``
  — the 30/28 land in ``TypeName.params``) fail the check and stay
  exact-tier only.  Since rebinding only changes literal values, never
  token shapes, the correspondence proven at template creation holds for
  every later probe with the same fingerprint.
* The optimizer's rewrites fire at structurally-detectable sites (literal
  BinaryOp/UnaryOp, all-literal pure calls under ``fold_functions``,
  ``WHERE TRUE``) and rebinding never changes structure, so a template with
  no fold site (``needs_optimize=False``) provably optimizes to itself for
  *every* rebinding and is executed directly; otherwise the optimizer runs
  per hit on the rebound tree (it never modifies its input, so the
  template stays untouched; the rewritten tree is executed at once and
  never stored).
* Only single-statement SELECT/set-operation text is cached.  Entries are
  inserted after parse+optimize succeed and *before* execution, so a
  statement whose execution raises a handled SQL error (common on
  boundary arguments) is cached like any other, while parse/optimize-stage
  failures never populate the cache.  An execute-stage crash gains
  nothing from the early insert: the runner restarts the server before
  reconfirming, the restart invalidates the cache, and reconfirmation
  parses cold.
* Any non-SELECT statement (DDL, DML, ``SET`` — which can flip
  ``fold_functions``) and every server restart invalidate the whole cache.

Compiled plans (the third acceleration layer, see ``repro.perf.compiler``):
entries in both tiers lazily attach a **compiled closure program** the first
time they are fetched with a context.  Exact-tier entries always qualify
(they store the final optimized tree, executed as-is); template-tier
entries qualify only when ``needs_optimize`` is False — a template with a
fold site re-optimizes per rebinding under
``stage="optimize"``, and moving that work into compiled execution would
re-attribute optimize-stage crashes to the execute stage.  Compilation is
skipped (and counted in ``compile_fallbacks``) while a resource governor is
attached — the governor's per-node budget hooks live in the interpreter —
and when a sandbox worker force-disables it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..sqlast import nodes as n
from ..sqlast.lexer import LexError, tokenize
from ..sqlast.tokens import Token, TokenKind
from ..sqlast.visitor import clone, walk

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.context import ExecutionContext

#: literal token kinds that are masked out of the fingerprint
_LITERAL_TOKENS = (TokenKind.INTEGER, TokenKind.DECIMAL, TokenKind.STRING)

#: default LRU capacities; generous because the template tier's value grows
#: with the number of distinct shapes it can hold
DEFAULT_EXACT_CAPACITY = 8_192
DEFAULT_TEMPLATE_CAPACITY = 16_384


def _fingerprint(tokens: Sequence[Token]) -> str:
    """Token stream with literal values masked, everything else verbatim.

    Two statements share a fingerprint iff they differ only in the values
    of INTEGER/DECIMAL/STRING literal tokens (kinds preserved — an integer
    and a string at the same position are different shapes, because the
    parser builds different node types for them).
    """
    parts: List[str] = []
    for token in tokens:
        kind = token.kind
        if kind is TokenKind.INTEGER:
            parts.append("\x00i")
        elif kind is TokenKind.DECIMAL:
            parts.append("\x00d")
        elif kind is TokenKind.STRING:
            parts.append("\x00s")
        elif kind is TokenKind.IDENT:
            parts.append(("\x01q" if token.quoted else "\x01") + token.text)
        elif kind is TokenKind.EOF:
            break
        else:  # OPERATOR
            parts.append("\x02" + token.text)
    return "\x1f".join(parts)


def _literal_tokens(tokens: Sequence[Token]) -> List[Token]:
    return [t for t in tokens if t.kind in _LITERAL_TOKENS]


#: slot node type -> (literal token kind, attribute holding its value)
_SLOT_NODES = {
    n.IntegerLit: (TokenKind.INTEGER, "text"),
    n.DecimalLit: (TokenKind.DECIMAL, "text"),
    n.StringLit: (TokenKind.STRING, "value"),
}

_FOLDABLE_OPERANDS = (n.IntegerLit, n.DecimalLit, n.StringLit, n.NullLit, n.BooleanLit)


def _template_shape(
    stmt: n.Statement, lit_tokens: Sequence[Token], ctx: "ExecutionContext"
) -> Optional[Tuple[List[n.Expr], bool]]:
    """``(slots, needs_optimize)`` for a parse template, from one walk.

    *slots* are the statement's literal nodes.  They must correspond 1:1
    to the literal tokens (same count, order, kind, and value), or the
    statement is not parameterizable and the result is None.  A preorder
    tree walk yields literal leaves in source order (every node type's
    children are stored in source order), and the value check makes the
    correspondence self-verifying: any statement whose parse does not line
    up — type parameters, lexer-normalized literals, anything surprising —
    is simply not parameterizable.

    *needs_optimize* is whether the optimizer could rewrite any node.  It
    mirrors ``repro.engine.optimizer._fold``'s trigger conditions, which
    depend only on node types (and the registry / ``fold_functions``
    config), never on literal values, so the answer is invariant under
    literal rebinding.  Folding is bottom-up and can cascade, but a
    cascade needs an initial site; zero sites means optimize is the
    identity.
    """
    fold_functions = ctx.get_config("fold_functions") == "1"
    literal = _FOLDABLE_OPERANDS
    slots: List[n.Expr] = []
    needs_optimize = False
    for node in walk(stmt):
        cls = node.__class__
        slot = _SLOT_NODES.get(cls)
        if slot is not None:
            index = len(slots)
            if index >= len(lit_tokens):
                return None
            token = lit_tokens[index]
            kind, attr = slot
            if token.kind is not kind or getattr(node, attr) != token.text:
                return None
            slots.append(node)
        elif needs_optimize:
            continue
        elif cls is n.BinaryOp:
            if isinstance(node.left, literal) and isinstance(node.right, literal):
                needs_optimize = node.op.upper() not in ("AND", "OR")
        elif cls is n.UnaryOp:
            needs_optimize = isinstance(node.operand, literal) and node.op != "NOT"
        elif cls is n.Select:
            needs_optimize = isinstance(node.where, n.BooleanLit)
        elif fold_functions and cls is n.FuncCall:
            if all(isinstance(a, literal) for a in node.args):
                try:
                    definition = ctx.registry.lookup(node.name)
                except Exception:
                    continue
                needs_optimize = definition.pure and not definition.is_aggregate
    if len(slots) != len(lit_tokens):
        return None
    return slots, needs_optimize


#: sentinel marking an entry whose compilation has not been attempted yet
#: (distinct from None, which records a compile that declined)
_UNCOMPILED = object()


class _Template:
    """One parameterized parse template."""

    __slots__ = ("stmt", "slots", "needs_optimize", "compiled", "plan", "_bound")

    def __init__(self, stmt: n.Statement, slots: List[n.Expr], needs_optimize: bool):
        self.stmt = stmt
        self.slots = slots
        self.needs_optimize = needs_optimize
        #: closure program over ``stmt`` — sound across rebindings because
        #: literal closures are cell references into the very nodes
        #: :meth:`rebind` mutates
        self.compiled = _UNCOMPILED
        #: reusable Plan carrying the compiled program (set on the first
        #: successful compile; Plans are read-only to their consumers)
        self.plan: Optional["Plan"] = None
        #: identity of the texts list currently spliced into the slots —
        #: a repeat of the same exact-tier entry skips the splice entirely
        self._bound: Optional[Sequence[str]] = None

    def rebind(self, lit_tokens: Sequence[Token]) -> n.Statement:
        """Splice the probe's literal values into the template in place.

        Safe because the template tree is owned by the cache: execution
        never mutates ASTs, optimization never modifies its input, and the
        exact tier holds its own clone of every optimized tree.
        """
        self._bound = None  # token lists are transient; no identity to keep
        for node, token in zip(self.slots, lit_tokens):
            if isinstance(node, n.StringLit):
                node.value = token.text
            else:  # IntegerLit / DecimalLit keep raw source text
                node.text = token.text
        return self.stmt

    def rebind_texts(self, texts: Sequence[str]) -> n.Statement:
        """Like :meth:`rebind`, from pre-extracted literal texts.

        Memoized on the identity of *texts*: each exact-tier
        ``_TemplateRef`` owns its texts list for life, so ``is`` means the
        slots already hold exactly these values.
        """
        if texts is self._bound:
            return self.stmt
        for node, text in zip(self.slots, texts):
            if isinstance(node, n.StringLit):
                node.value = text
            else:
                node.text = text
        self._bound = texts
        return self.stmt


class _ExactEntry:
    """One exact-tier entry: the optimized tree plus its compiled program."""

    __slots__ = ("stmt", "compiled", "plan")

    def __init__(self, stmt: n.Statement):
        self.stmt = stmt
        self.compiled = _UNCOMPILED
        self.plan: Optional["Plan"] = None


class _TemplateRef:
    """An exact-tier entry that memoizes a template probe.

    Template hits promote into the exact tier as (template, literal texts)
    so a byte-identical repeat skips lexing and fingerprinting entirely —
    rebinding a handful of saved literal texts is all that's left.  Shares
    the template's tree and compiled program; always consistent because
    both tiers are only ever invalidated together.
    """

    __slots__ = ("template", "texts")

    def __init__(self, template: _Template, texts: List[str]):
        self.template = template
        self.texts = texts


class Plan:
    """What a cache probe hands back to ``Connection.execute``.

    When ``compiled`` is not None the connection calls it directly
    (``compiled(ctx) -> Result``) instead of walking the interpreter.
    """

    __slots__ = ("stmt", "needs_optimize", "compiled")

    def __init__(self, stmt: n.Statement, needs_optimize: bool, compiled=None):
        self.stmt = stmt
        self.needs_optimize = needs_optimize
        self.compiled = compiled


class StatementCache:
    """Two-tier LRU parse/plan cache (see module docstring).

    Not thread-safe; one cache belongs to one simulated server, and each
    parallel campaign worker owns its server (and therefore its cache).
    """

    def __init__(
        self,
        capacity: int = DEFAULT_EXACT_CAPACITY,
        template_capacity: int = DEFAULT_TEMPLATE_CAPACITY,
    ) -> None:
        self.capacity = capacity
        self.template_capacity = template_capacity
        self._exact: "OrderedDict[Tuple[str, str], n.Statement]" = OrderedDict()
        self._templates: "OrderedDict[Tuple[str, str], _Template]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: plan compilation (repro.perf.compiler); default-on, the runner
        #: clears it for --no-compile and sandbox workers force it off
        self.compile_enabled = True
        #: True when compilation was disabled *against* the caller's wish
        #: (sandbox worker with compile requested) — makes every would-be
        #: compiled hit count as a fallback, like the governor does
        self.compile_forced_off = False
        #: hits that wanted compiled execution but fell back to the
        #: interpreter (governor attached, or compilation forced off)
        self.compile_fallbacks = 0
        #: hits served by a compiled closure program
        self.compiled_executions = 0
        #: probe scratch carried from a miss into the following insert
        self._probe_sql: Optional[str] = None
        self._probe_tokens: Optional[List[Token]] = None
        self._probe_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._exact) + len(self._templates)

    # ------------------------------------------------------------------
    def fetch(
        self, dialect: str, sql: str, ctx: Optional["ExecutionContext"] = None
    ) -> Optional[Plan]:
        """Look *sql* up; None means the caller must parse (a miss).

        With a *ctx*, hits resolve their compiled closure program (built
        lazily on the first hit — insertion never pays for statements that
        are never reused).
        """
        exact_key = (dialect, sql)
        entry = self._exact.get(exact_key)
        if entry is not None:
            # recency bookkeeping only matters once eviction is imminent
            if len(self._exact) >= self.capacity:
                self._exact.move_to_end(exact_key)
            self.hits += 1
            if entry.__class__ is _TemplateRef:
                template = entry.template
                stmt = template.rebind_texts(entry.texts)
                if template.needs_optimize:
                    return Plan(stmt, needs_optimize=True)
                plan = template.plan
                if (
                    plan is not None
                    and ctx is not None
                    and self.compile_enabled
                    and ctx.governor is None
                ):
                    self.compiled_executions += 1
                    return plan
                return Plan(
                    stmt,
                    needs_optimize=False,
                    compiled=self._resolve_compiled(template, ctx),
                )
            plan = entry.plan
            if (
                plan is not None
                and ctx is not None
                and self.compile_enabled
                and ctx.governor is None
            ):
                self.compiled_executions += 1
                return plan
            return Plan(
                entry.stmt,
                needs_optimize=False,
                compiled=self._resolve_compiled(entry, ctx),
            )
        try:
            tokens = tokenize(sql)
        except LexError:
            self.misses += 1
            self._probe_sql = None
            return None
        fingerprint = _fingerprint(tokens)
        template = self._templates.get((dialect, fingerprint))
        if template is not None:
            self._templates.move_to_end((dialect, fingerprint))
            self.hits += 1
            lit_tokens = _literal_tokens(tokens)
            # promote into the exact tier: a byte-identical repeat of this
            # statement will skip lexing and fingerprinting entirely
            self._exact[exact_key] = _TemplateRef(
                template, [t.text for t in lit_tokens]
            )
            while len(self._exact) > self.capacity:
                self._exact.popitem(last=False)
            stmt = template.rebind(lit_tokens)
            if template.needs_optimize:
                # per-rebinding optimization happens in the connection (the
                # fold must keep raising under stage="optimize"); the fresh
                # trees it produces are never worth compiling
                return Plan(stmt, needs_optimize=True)
            return Plan(
                stmt,
                needs_optimize=False,
                compiled=self._resolve_compiled(template, ctx),
            )
        self.misses += 1
        # stash the lex work for the caller's parse (probe_tokens) and the
        # following insert(), so a miss never lexes or fingerprints twice
        self._probe_sql = sql
        self._probe_tokens = tokens
        self._probe_fingerprint = fingerprint
        return None

    def _resolve_compiled(self, entry, ctx: Optional["ExecutionContext"]):
        """The entry's closure program, or None to take the interpreter.

        Compiles on first resolution and memoizes the result (including a
        declined compile, stored as None).  Governed contexts never run
        compiled code — the governor's budget hooks tick inside
        ``Evaluator.eval`` — and sandbox workers force compilation off;
        both cases count as fallbacks when compilation was wanted.
        """
        if ctx is None:
            return None
        if not self.compile_enabled:
            if self.compile_forced_off:
                self.compile_fallbacks += 1
            return None
        if ctx.governor is not None:
            self.compile_fallbacks += 1
            return None
        compiled = entry.compiled
        if compiled is _UNCOMPILED:
            # deferred import: repro.engine.__init__ imports the connection,
            # which imports this module; the compiler imports the engine
            from .compiler import compile_statement

            try:
                compiled = compile_statement(entry.stmt, ctx)
            except Exception:
                compiled = None
            entry.compiled = compiled
        if compiled is None:
            # the compiler declined this statement shape (or raised): every
            # execution that wanted a closure but takes the interpreter is a
            # fallback, so the compiled-vs-fallback share divides executions,
            # not statement shapes
            self.compile_fallbacks += 1
            return None
        if entry.plan is None:
            # memoized so warm hits skip Plan construction *and* this
            # resolver entirely; the closure re-reads the literal cells
            # on every call, so one Plan is sound across rebindings
            entry.plan = Plan(entry.stmt, needs_optimize=False,
                              compiled=compiled)
        self.compiled_executions += 1
        return compiled

    def probe_tokens(self, sql: str) -> Optional[List[Token]]:
        """The token stream lexed by the last (missing) :meth:`fetch`.

        Lets ``Connection.execute`` hand the probe's lex work straight to
        the parser instead of tokenizing the same text a second time.
        """
        if self._probe_sql == sql:
            return self._probe_tokens
        return None

    def insert(
        self,
        dialect: str,
        sql: str,
        parsed: n.Statement,
        optimized: n.Statement,
        ctx: "ExecutionContext",
    ) -> None:
        """Cache a freshly parsed+optimized single SELECT statement.

        Called between optimization and execution, so statements whose
        execution raises an SQL error are cached too, while parse/optimize
        failures never reach here.  *parsed* becomes the template and
        a clone of *optimized* the exact-tier plan.  The optimizer rewrites
        copy-on-write (``repro.sqlast.visitor.transform``), so *optimized*
        may share nodes with *parsed* or be *parsed* itself; the clone
        keeps rebinding the template's literals from reaching the plan.
        """
        optimized = clone(optimized)
        exact_key = (dialect, sql)
        self._exact[exact_key] = _ExactEntry(optimized)
        self._exact.move_to_end(exact_key)
        while len(self._exact) > self.capacity:
            self._exact.popitem(last=False)
        if self._probe_sql != sql or self._probe_tokens is None:
            return  # lexing failed or probe was for different text
        tokens = self._probe_tokens
        fingerprint = self._probe_fingerprint
        self._probe_sql = None
        self._probe_tokens = None
        self._probe_fingerprint = None
        shape = _template_shape(parsed, _literal_tokens(tokens), ctx)
        if shape is None:
            return  # not parameterizable; exact tier still serves repeats
        template = _Template(parsed, *shape)
        template_key = (dialect, fingerprint)
        self._templates[template_key] = template
        self._templates.move_to_end(template_key)
        while len(self._templates) > self.template_capacity:
            self._templates.popitem(last=False)

    # ------------------------------------------------------------------
    # warm-start support (parallel shard workers reuse the parent's cache)
    # ------------------------------------------------------------------
    def export_warm_sql(self, dialect: str) -> List[str]:
        """The exact-tier statement texts for *dialect*, LRU order.

        A parallel campaign's parent exports these after its seed phase so
        shard workers can :meth:`warm` their caches instead of re-parsing
        the shared template prefix cold.
        """
        return [sql for (d, sql) in self._exact if d == dialect]

    def warm(self, dialect: str, sql: str, ctx: "ExecutionContext") -> bool:
        """Pre-populate both tiers from an exported statement text.

        Re-derives parse + optimize exactly as a cold miss would (same
        per-statement RNG reseed, so probabilistic dialect behaviour is
        replayed bit-for-bit), then feeds :meth:`insert` directly — the
        hit/miss counters are untouched, which is the whole point of
        warming.  Exported statements parsed and optimized cleanly in the
        exporting process under the same dialect/seed/config, so failures
        here are unexpected; any failure (including a deterministic
        optimize-stage crash replay) just skips the entry, leaving the
        statement to take the normal cold path when the stream reaches it.
        """
        from ..engine.errors import CrashSignal
        from ..engine.optimizer import optimize_statement
        from ..sqlast import parse_statements

        if (dialect, sql) in self._exact:
            return True
        previous_stage = ctx.stage
        try:
            ctx.reseed_statement_rng(sql)
            tokens = tokenize(sql)
            fingerprint = _fingerprint(tokens)
            statements = parse_statements(sql, tokens=tokens)
            if len(statements) != 1 or not isinstance(
                statements[0], (n.Select, n.SetOp)
            ):
                return False
            parsed = statements[0]
            optimized = optimize_statement(ctx, parsed)
        except (Exception, CrashSignal):
            return False
        finally:
            ctx.stage = previous_stage
        self._probe_sql = sql
        self._probe_tokens = tokens
        self._probe_fingerprint = fingerprint
        self.insert(dialect, sql, parsed, optimized, ctx)
        return True

    # ------------------------------------------------------------------
    def invalidate_all(self, reason: str = "") -> None:
        """Drop every entry (DDL ran, config changed, or server restarted).

        Hit/miss counters survive — they describe the workload, not the
        current contents.
        """
        if self._exact or self._templates:
            self.invalidations += 1
        self._exact.clear()
        self._templates.clear()
        self._probe_sql = None
        self._probe_tokens = None
        self._probe_fingerprint = None

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "exact_entries": len(self._exact),
            "template_entries": len(self._templates),
            "compiled_executions": self.compiled_executions,
            "compile_fallbacks": self.compile_fallbacks,
        }
