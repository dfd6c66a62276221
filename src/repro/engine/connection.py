"""Client-facing connection and simulated server-process model.

The paper's harness talks to DBMSs through their Python clients and treats
"the server died" as the bug signal.  We model the same contract:

* :class:`Server` owns the process state (execution context, catalog).  A
  :class:`CrashSignal` escaping the query pipeline kills the process.
* :class:`Connection.execute` returns a :class:`Result`, raises
  :class:`repro.engine.errors.SQLError` for handled errors, or raises
  :class:`ServerCrashed` (carrying the crash) when the process dies.
* After a crash every call raises :class:`ConnectionClosed` until the
  harness calls :meth:`Server.restart` — the Docker-restart analogue.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional

from ..perf.stmtcache import StatementCache
from ..sqlast import ParseError, parse_statements
from ..sqlast import nodes as n
from .catalog import Database
from .errors import CrashSignal, SQLError, SyntaxError_
from .executor import Executor, Result
from .optimizer import optimize_statement

#: statement shapes eligible for the parse/plan cache — read-only queries
#: whose execution cannot change catalog or session state
_CACHEABLE_STATEMENTS = (n.Select, n.SetOp)

if TYPE_CHECKING:  # pragma: no cover
    from ..dialects.base import Dialect
    from .context import ExecutionContext


class ServerCrashed(Exception):
    """The simulated server process aborted while executing a statement."""

    def __init__(self, crash: CrashSignal, sql: str) -> None:
        super().__init__(crash.describe())
        self.crash = crash
        self.sql = sql


class ConnectionClosed(Exception):
    """The server is down (a previous statement crashed it)."""


class ConnectionDropped(ConnectionClosed):
    """The client connection was lost transiently; the server is still up.

    The real-world analogue is a reset TCP connection between harness and
    container — reconnecting (no restart) recovers.  Raised by the fault
    hook; the runner's retry policy handles it.
    """


class RestartFailed(Exception):
    """The server process failed to come back up after a restart attempt.

    The real-world analogue is a Docker restart that wedges.  The server
    stays dead; callers retry with backoff and eventually quarantine the
    server through the circuit breaker.
    """


class FaultHook:
    """Injection points the harness can install on a :class:`Server`.

    The engine calls these at the same places real infrastructure noise
    strikes: at the start of every statement (``on_execute``) and on every
    process restart (``on_restart``).  The default hooks do nothing; the
    ``repro.robustness`` fault injector overrides them.
    """

    def on_execute(self, connection: "Connection", sql: str) -> None:
        """May raise a transient fault or a :class:`CrashSignal`."""

    def on_restart(self, server: "Server") -> None:
        """May raise :class:`RestartFailed` before any state is touched."""


class Server:
    """One simulated DBMS server process."""

    def __init__(self, dialect: "Dialect") -> None:
        self.dialect = dialect
        self.database = Database()
        self.ctx: "ExecutionContext" = dialect.make_context()
        self.alive = True
        self.crash_count = 0
        self.queries_executed = 0
        self.restart_failures = 0
        #: optional fault-injection hook (see :class:`FaultHook`)
        self.fault_hook: Optional[FaultHook] = None
        #: parse/plan cache; set to None to bypass caching entirely
        self.stmt_cache: Optional[StatementCache] = StatementCache()
        #: optional resource governor (duck-typed; see attach_governor)
        self.governor = None

    def attach_governor(self, governor) -> None:
        """Install a resource governor; it survives restarts like the cache."""
        self.governor = governor
        self.ctx.attach_governor(governor)

    def restart(self, keep_coverage: bool = True) -> None:
        """Restart the process: fresh memory and catalog, same binary.

        Exception-safe: a failed restart (:class:`RestartFailed` from the
        fault hook, or any error while building the new context) leaves the
        server dead but otherwise untouched, so the caller can retry.
        """
        hook = self.fault_hook
        if hook is not None:
            try:
                hook.on_restart(self)
            except RestartFailed:
                self.restart_failures += 1
                self.alive = False
                raise
        coverage = self.ctx.coverage if keep_coverage else None
        triggered = set(self.ctx.triggered_functions)
        stats = self.ctx.stats
        ctx = self.dialect.make_context()
        ctx.coverage = coverage
        # function-trigger/coverage metrics are campaign-level, keep them
        ctx.triggered_functions |= triggered
        ctx.stats.update(stats)
        # commit only once the replacement state is fully built
        self.ctx = ctx
        if self.governor is not None:
            ctx.attach_governor(self.governor)
        self.database = Database()
        if self.stmt_cache is not None:
            # plans may embed optimize-stage decisions tied to the dead
            # process's config; a fresh process re-derives them
            self.stmt_cache.invalidate_all("restart")
        self.alive = True

    def connect(self) -> "Connection":
        return Connection(self)


class Connection:
    """A client connection to a :class:`Server`."""

    def __init__(self, server: Server) -> None:
        self.server = server

    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Result:
        """Execute all statements in *sql*; returns the last result."""
        server = self.server
        if not server.alive:
            raise ConnectionClosed("server is not running")
        ctx = server.ctx
        ctx.reset_query_state()
        # RAND()/UUID() draws are keyed to the statement text so results do
        # not depend on what executed before (cache hits, retries, and
        # parallel shard workers all see the serial run's values)
        ctx.reseed_statement_rng(sql)
        if ctx.governor is not None:
            # re-arm per-statement budgets (and the wall deadline)
            ctx.governor.begin_statement()
        server.queries_executed += 1
        ctx.stats["queries"] += 1
        cache = server.stmt_cache
        try:
            hook = server.fault_hook
            if hook is not None:
                # infrastructure faults strike before the statement reaches
                # the pipeline: hangs/drops escape as-is (server stays up),
                # spurious CrashSignals fall through to the handler below
                hook.on_execute(self, sql)
            if cache is not None:
                plan = cache.fetch(server.dialect.name, sql, ctx)
                if plan is not None:
                    compiled = plan.compiled
                    if compiled is not None:
                        # closure program emitted by repro.perf.compiler:
                        # semantically the interpreter minus dispatch
                        ctx.stage = "execute"
                        return compiled(ctx)
                    stmt = plan.stmt
                    if plan.needs_optimize:
                        stmt = optimize_statement(ctx, stmt)
                    ctx.stage = "execute"
                    return Executor(ctx, server.database).execute(stmt)
            probe = cache.probe_tokens(sql) if cache is not None else None
            statements = self._parse(sql, tokens=probe)
            result = Result()
            executor = Executor(ctx, server.database)
            # only single read-only statements are cacheable: caching part
            # of a multi-statement batch would reorder its optimize/execute
            # interleaving on replay
            cacheable = (
                cache is not None
                and len(statements) == 1
                and isinstance(statements[0], _CACHEABLE_STATEMENTS)
            )
            for stmt in statements:
                if cache is not None and not isinstance(stmt, _CACHEABLE_STATEMENTS):
                    # DDL/DML/SET may change what any cached plan means
                    # (catalog contents, fold_functions); drop everything
                    # before it runs so even a crash leaves the cache safe
                    cache.invalidate_all("non-select statement")
                optimized = optimize_statement(ctx, stmt)
                if cacheable:
                    # insert *before* execution so statements whose
                    # execution raises an SQL error are cached too
                    cache.insert(server.dialect.name, sql, stmt, optimized, ctx)
                ctx.stage = "execute"
                result = executor.execute(optimized)
            return result
        except CrashSignal as crash:
            if crash.stage is None:
                crash.stage = ctx.stage
            if crash.function is None:
                crash.function = ctx.current_function
            server.alive = False
            server.crash_count += 1
            raise ServerCrashed(crash, sql) from None

    def _parse(self, sql: str, tokens=None) -> List[n.Statement]:
        ctx = self.server.ctx
        ctx.stage = "parse"
        try:
            statements = parse_statements(sql, tokens=tokens)
        except ParseError as exc:
            raise SyntaxError_(str(exc)) from None
        except RecursionError:
            raise SyntaxError_("statement too deeply nested") from None
        return statements

    def close(self) -> None:  # symmetry with DB-API clients
        pass
