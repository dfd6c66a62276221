"""Proof-of-concept minimisation (delta debugging over the AST).

Disclosure-ready reports carry *minimal* PoCs — the paper's listings are
all one-liners.  The minimiser takes a crashing statement and greedily
shrinks it while preserving the crash identity (same function, same crash
class), using AST-level reductions rather than textual chunking:

* drop trailing/optional arguments of function calls;
* replace a nested call with each of its own arguments ("hoist");
* replace argument subtrees with simple literals (1, 'a', NULL, '');
* shrink wide numeric literals and long strings toward the shortest
  reproducer (binary search on digit/character count);
* shrink REPEAT counts toward the smallest crashing repetition;
* unwrap casts;
* drop SELECT-level baggage (other select items).

The reduction loop is a fixpoint: passes repeat until no pass shrinks the
statement further.  Every candidate runs against a fresh server, so
minimisation is immune to crash-induced state loss.

What must stay invariant is pluggable (mirroring the oracle pipeline): the
default :class:`CrashProbe` preserves the crash identity, while
:class:`DivergenceProbe` preserves a cross-dialect result divergence, so
logic-oracle findings minimise through the same reduction passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..dialects.base import Dialect
from ..engine.connection import ServerCrashed
from ..engine.errors import SQLError
from ..engine.fingerprint import divergence_class, fingerprint_result
from ..sqlast import (
    Cast,
    DecimalLit,
    Expr,
    FuncCall,
    IntegerLit,
    NullLit,
    ParseError,
    Select,
    StringLit,
    parse_statement,
    to_sql,
)
from ..sqlast.visitor import clone, replace_node, walk
from .oracles.metamorphic import (
    SUPPRESS_PASSES,
    norec_divergence,
    tlp_divergence,
)
from .tables import TABLE_SETUP


@dataclass
class CrashIdentity:
    """What must stay invariant across reductions."""

    function: str
    crash_code: str


class Probe:
    """What must stay invariant across reductions (the minimiser's oracle).

    ``identity(sql)`` observes the finding on a fresh server and returns
    its identity, or ``None`` when the statement no longer reproduces it;
    ``same`` decides whether a candidate's identity matches the original.
    """

    def identity(self, sql: str):
        raise NotImplementedError

    @staticmethod
    def same(found, original) -> bool:
        return found == original

    def no_reproduce_message(self, sql: str) -> str:
        return f"statement does not reproduce the finding: {sql!r}"


class CrashProbe(Probe):
    """The historical default: preserve ``(function, crash class)``."""

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect

    def identity(self, sql: str) -> Optional[CrashIdentity]:
        connection = self.dialect.create_server().connect()
        try:
            connection.execute(sql)
            return None
        except SQLError:
            return None
        except ServerCrashed as crashed:
            return CrashIdentity(
                crashed.crash.function or "unknown", crashed.crash.code
            )
        except RecursionError:
            return None

    @staticmethod
    def same(found, original) -> bool:
        return (
            found.function == original.function
            and found.crash_code == original.crash_code
        )

    def no_reproduce_message(self, sql: str) -> str:
        return f"statement does not crash the server: {sql!r}"


class DivergenceProbe(Probe):
    """Preserve a cross-dialect result divergence (differential findings).

    Identity is the :func:`~repro.engine.fingerprint.divergence_class`
    between the subject dialect and the peer — a reduction is accepted only
    while the same class of divergence (cardinality/type/value) persists.
    The subject dialect is used as configured by the campaign (logic flaws
    installed); the peer executes vanilla, exactly as the differential
    oracle ran it.
    """

    def __init__(self, dialect: Dialect, peer: Dialect) -> None:
        self.dialect = dialect
        self.peer = peer

    def identity(self, sql: str) -> Optional[str]:
        own = self._fingerprint(self.dialect, sql)
        other = self._fingerprint(self.peer, sql)
        if own is None or other is None:
            return None
        return divergence_class(own, other)

    @staticmethod
    def _fingerprint(dialect: Dialect, sql: str):
        connection = dialect.create_server().connect()
        try:
            return fingerprint_result(connection.execute(sql))
        except (SQLError, ServerCrashed, RecursionError):
            return None

    def no_reproduce_message(self, sql: str) -> str:
        return (
            f"statement does not diverge between {self.dialect.name} "
            f"and {self.peer.name}: {sql!r}"
        )


class MetamorphicProbe(Probe):
    """Preserve a violated metamorphic law (TLP/NoREC findings).

    Identity is the divergence class of the law check re-run on fresh
    bootstrapped servers built from *dialect* (with whatever flaws the
    campaign installed).  The predicate is re-extracted from each
    candidate's AST — reductions rewrite the statement text, so nothing
    here may rely on the generator's exact rendering.  A candidate that
    stops parsing as a WHERE-bearing SELECT, errors, or crashes no longer
    reproduces the finding and is rejected.
    """

    def __init__(self, dialect: Dialect, kind: str) -> None:
        if kind not in ("tlp", "norec"):
            raise ValueError(f"unknown metamorphic probe kind {kind!r}")
        self.dialect = dialect
        self.kind = kind

    def identity(self, sql: str) -> Optional[str]:
        try:
            if self.kind == "tlp":
                return tlp_divergence(self._connect(), sql)
            return norec_divergence(
                self._connect(), self._connect(suppress=True), sql
            )
        except (SQLError, ServerCrashed, RecursionError):
            return None

    def _connect(self, suppress: bool = False):
        server = self.dialect.create_server()
        if suppress:
            server.ctx.set_config("optimizer_passes", SUPPRESS_PASSES)
        connection = server.connect()
        for ddl in TABLE_SETUP:
            connection.execute(ddl)
        return connection

    def no_reproduce_message(self, sql: str) -> str:
        law = "partition law" if self.kind == "tlp" else "optimization identity"
        return (
            f"statement does not break the {law} on "
            f"{self.dialect.name}: {sql!r}"
        )


@dataclass
class MinimizationResult:
    original: str
    minimized: str
    attempts: int
    successes: int

    @property
    def reduction(self) -> float:
        if not self.original:
            return 0.0
        return 1.0 - len(self.minimized) / len(self.original)


class Minimizer:
    """Shrinks a crashing statement for one dialect."""

    def __init__(
        self,
        dialect: Dialect,
        max_attempts: int = 2_000,
        probe: Optional[Probe] = None,
    ) -> None:
        self.dialect = dialect
        self.probe = probe if probe is not None else CrashProbe(dialect)
        self.max_attempts = max_attempts
        self.attempts = 0
        self.successes = 0

    # ------------------------------------------------------------------
    def crash_identity(self, sql: str) -> Optional[CrashIdentity]:
        """Execute *sql* on a fresh server; return its crash identity."""
        return CrashProbe(self.dialect).identity(sql)

    def minimize(self, sql: str) -> MinimizationResult:
        """Shrink *sql* while the probe's finding identity is preserved."""
        identity = self.probe.identity(sql)
        if identity is None:
            raise ValueError(self.probe.no_reproduce_message(sql))
        current = parse_statement(sql)
        changed = True
        while changed and self.attempts < self.max_attempts:
            changed = False
            for reduction in (
                self._drop_select_items,
                self._hoist_nested_calls,
                self._drop_optional_args,
                self._simplify_subtrees,
                self._unwrap_casts,
                self._shrink_literals,
            ):
                reduced = reduction(current, identity)
                if reduced is not None:
                    current = reduced
                    changed = True
        return MinimizationResult(
            original=sql,
            minimized=to_sql(current) + ";",
            attempts=self.attempts,
            successes=self.successes,
        )

    # ------------------------------------------------------------------
    def _still_crashes(self, stmt, identity) -> bool:
        self.attempts += 1
        if self.attempts > self.max_attempts:
            return False
        try:
            sql = to_sql(stmt) + ";"
            parse_statement(sql)
        except (ParseError, TypeError):
            return False
        found = self.probe.identity(sql)
        ok = found is not None and self.probe.same(found, identity)
        if ok:
            self.successes += 1
        return ok

    # -- reductions ---------------------------------------------------------
    def _drop_select_items(self, stmt, identity):
        """SELECT a, crash(), b -> SELECT crash()."""
        if not isinstance(stmt, Select) or len(stmt.items) <= 1:
            return None
        for index in range(len(stmt.items)):
            candidate = clone(stmt)
            candidate.items = [
                item for i, item in enumerate(candidate.items) if i != index
            ]
            if self._still_crashes(candidate, identity):
                return candidate
        return None

    def _hoist_nested_calls(self, stmt, identity):
        """F(G(x)) -> F(x) when the crash survives without the wrapper."""
        for node in walk(stmt):
            if not isinstance(node, FuncCall):
                continue
            for arg_index, arg in enumerate(node.args):
                if not isinstance(arg, FuncCall) or not arg.args:
                    continue
                for inner in arg.args:
                    candidate = clone(stmt)
                    # find the corresponding nodes in the clone by path
                    target = self._find_twin(stmt, candidate, arg)
                    twin_inner = self._find_twin(stmt, candidate, inner)
                    if target is None or twin_inner is None:
                        continue
                    replace_node(candidate, target, clone(twin_inner))
                    if self._still_crashes(candidate, identity):
                        return candidate
        return None

    def _drop_optional_args(self, stmt, identity):
        """F(a, b, c) -> F(a, b) when the tail argument is not needed."""
        for node in walk(stmt):
            if not isinstance(node, FuncCall) or len(node.args) <= 1:
                continue
            candidate = clone(stmt)
            twin = self._find_twin(stmt, candidate, node)
            if twin is None:
                continue
            twin.args = twin.args[:-1]
            if self._still_crashes(candidate, identity):
                return candidate
        return None

    def _simplify_subtrees(self, stmt, identity):
        """Replace non-trivial argument subtrees with atomic literals."""
        atoms: Tuple[Expr, ...] = (
            IntegerLit("1"), StringLit("a"), NullLit(), StringLit(""),
        )
        for node in walk(stmt):
            if not isinstance(node, FuncCall):
                continue
            for arg in node.args:
                if isinstance(arg, (IntegerLit, StringLit, NullLit)):
                    continue
                for atom in atoms:
                    candidate = clone(stmt)
                    twin = self._find_twin(stmt, candidate, arg)
                    if twin is None:
                        continue
                    replace_node(candidate, twin, clone(atom))
                    if self._still_crashes(candidate, identity):
                        return candidate
        return None

    def _unwrap_casts(self, stmt, identity):
        for node in walk(stmt):
            if not isinstance(node, Cast):
                continue
            candidate = clone(stmt)
            twin = self._find_twin(stmt, candidate, node)
            if twin is None:
                continue
            replace_node(candidate, twin, clone(twin.operand))
            if self._still_crashes(candidate, identity):
                return candidate
        return None

    def _shrink_literals(self, stmt, identity):
        """Binary-search long strings / wide numbers to the shortest
        still-crashing form."""
        for node in walk(stmt):
            if isinstance(node, StringLit) and len(node.value) > 4:
                shrunk = self._shrink_text(
                    stmt, node, identity,
                    lambda twin, size: setattr(twin, "value", twin.value[:size]),
                    len(node.value),
                )
                if shrunk is not None:
                    return shrunk
            if isinstance(node, IntegerLit) and len(node.text) > 2 \
                    and not node.text.lower().startswith("0x"):
                shrunk = self._shrink_text(
                    stmt, node, identity,
                    lambda twin, size: setattr(twin, "text", twin.text[:size] or "9"),
                    len(node.text),
                )
                if shrunk is not None:
                    return shrunk
                shrunk = self._shrink_integer_value(stmt, node, identity)
                if shrunk is not None:
                    return shrunk
            if isinstance(node, DecimalLit) and len(node.text) > 4:
                shrunk = self._shrink_text(
                    stmt, node, identity,
                    lambda twin, size: setattr(
                        twin, "text",
                        twin.text[:max(size, 3)] if "." in twin.text[:max(size, 3)]
                        else twin.text[:max(size, 3)] + ".9",
                    ),
                    len(node.text),
                )
                if shrunk is not None:
                    return shrunk
        return None

    def _shrink_integer_value(self, stmt, node, identity):
        """Binary-search an integer toward the smallest crashing value
        (e.g. REPEAT counts shrink to just past the buggy threshold)."""
        try:
            value = node.value
        except ValueError:
            return None
        if value <= 2:
            return None
        best = None
        low, high = 1, value - 1
        while low <= high:
            mid = (low + high) // 2
            candidate = clone(stmt)
            twin = self._find_twin(stmt, candidate, node)
            if twin is None:
                return None
            twin.text = str(mid)
            if self._still_crashes(candidate, identity):
                best = candidate
                high = mid - 1
            else:
                low = mid + 1
        return best

    def _shrink_text(self, stmt, node, identity, apply_cut, length):
        best = None
        low, high = 1, length - 1
        while low <= high:
            mid = (low + high) // 2
            candidate = clone(stmt)
            twin = self._find_twin(stmt, candidate, node)
            if twin is None:
                return None
            apply_cut(twin, mid)
            if self._still_crashes(candidate, identity):
                best = candidate
                high = mid - 1
            else:
                low = mid + 1
        return best

    # ------------------------------------------------------------------
    @staticmethod
    def _find_twin(original, cloned, target):
        """Locate the clone's node occupying *target*'s preorder slot."""
        for orig_node, clone_node in zip(walk(original), walk(cloned)):
            if orig_node is target:
                return clone_node
        return None


def minimize_poc(
    dialect: Dialect,
    sql: str,
    max_attempts: int = 2_000,
    probe: Optional[Probe] = None,
) -> MinimizationResult:
    """Convenience wrapper around :class:`Minimizer`."""
    return Minimizer(dialect, max_attempts=max_attempts, probe=probe).minimize(sql)
