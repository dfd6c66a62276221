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
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..sqlast import LexError, ParseError, parse_statements
from ..sqlast import nodes as n
from .catalog import Database
from .errors import CrashSignal, SQLError, SyntaxError_
from .executor import Executor, Result
from .optimizer import optimize_statement

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
        #: optional resource governor (duck-typed; see attach_governor)
        self.governor = None

    def attach_governor(self, governor) -> None:
        """Install a resource governor; it survives restarts.

        :meth:`restart` re-attaches it to the fresh execution context, so
        budgets keep applying to every process the campaign runs.
        """
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
        self.alive = True

    def connect(self) -> "Connection":
        return Connection(self)


class Connection:
    """A client connection to a :class:`Server`."""

    def __init__(self, server: Server) -> None:
        self.server = server
        #: the statements the last :meth:`execute_parsed` call ran (the
        #: parse it made, or the one it was given); the runner hands it to
        #: the oracles that re-execute a statement
        self.last_statements: Optional[Sequence[n.Statement]] = None
        #: (text, tree) handed over by :meth:`prepare`
        self._prepared: Optional[Tuple[str, Sequence[n.Statement]]] = None

    # ------------------------------------------------------------------
    def prepare(self, sql: str, statements: Sequence[n.Statement]) -> None:
        """Hand :meth:`execute` the tree *statements* that *sql* parses to.

        Until the next ``prepare``, an execute of this very *sql* object
        runs the tree through :meth:`execute_parsed` instead of lexing and
        parsing the text.
        """
        self._prepared = (sql, statements)

    def execute(self, sql: str) -> Result:
        """Execute all statements in *sql*; returns the last result.

        The text is parsed here, unless :meth:`prepare` handed over its
        tree (the runner does, for generated statements); then that tree
        runs as it is.
        """
        prepared = self._prepared
        statements = (
            prepared[1] if prepared is not None and prepared[0] is sql else None
        )
        return self.execute_parsed(sql, statements)

    def execute_parsed(
        self, sql: str, statements: Optional[Sequence[n.Statement]]
    ) -> Result:
        """Execute *statements*, the parse of *sql*, without parsing again.

        ``None`` parses *sql* here, after the fault hook.  The statements
        are only read (the optimizer rewrites copy-on-write and never
        modifies its input), so one parse can run on several connections;
        *sql* still keys the per-statement RNG.
        """
        server = self.server
        if not server.alive:
            raise ConnectionClosed("server is not running")
        ctx = server.ctx
        ctx.reset_query_state()
        # RAND()/UUID() draws are keyed to the statement text so results do
        # not depend on what executed before (retries and parallel shard
        # workers see the serial run's values)
        ctx.reseed_statement_rng(sql)
        if ctx.governor is not None:
            # re-arm per-statement budgets (and the wall deadline)
            ctx.governor.begin_statement()
        server.queries_executed += 1
        ctx.stats["queries"] += 1
        try:
            hook = server.fault_hook
            if hook is not None:
                # infrastructure faults strike before the statement reaches
                # the pipeline: hangs/drops escape as-is (server stays up),
                # spurious CrashSignals fall through to the handler below
                hook.on_execute(self, sql)
            if statements is None:
                statements = self._parse(sql)
            self.last_statements = statements
            result = Result()
            executor = Executor(ctx, server.database)
            for stmt in statements:
                optimized = optimize_statement(ctx, stmt)
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

    def _parse(self, sql: str) -> List[n.Statement]:
        ctx = self.server.ctx
        ctx.stage = "parse"
        try:
            statements = parse_statements(sql)
        except (LexError, ParseError) as exc:
            raise SyntaxError_(str(exc)) from None
        except RecursionError:
            raise SyntaxError_("statement too deeply nested") from None
        return statements

    def close(self) -> None:  # symmetry with DB-API clients
        pass
