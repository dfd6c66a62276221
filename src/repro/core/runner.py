"""Test-case execution against a simulated DBMS (SOFT step 3, §7.1).

The runner owns a server process and a client connection, executes generated
statements, classifies the outcome, and restarts the server after a crash —
the in-process equivalent of the paper's Docker-container workflow.

Outcome classes:

* ``ok`` — statement executed, result returned.
* ``error`` — the DBMS rejected the statement with a handled SQL error.
* ``resource_kill`` — the statement was forcibly terminated by a resource
  limit (e.g. ``REPEAT('a', 9999999999)``).  These are the paper's false
  positives (§7.3: 7 FPs); the oracle tracks them separately.
* ``crash`` — the server process died and the crash *reconfirmed* (when
  reconfirmation is on): an SQL function bug was triggered.
* ``timeout`` — the watchdog killed a statement that exceeded its
  deadline even after one quiet retry (a genuine hang, not infra noise).
* ``flaky`` — the server died but the crash did not reproduce on a clean
  re-execution; recorded as a flaky signal, never as a bug (this mirrors
  the paper's false-positive triage of non-reproducible crash reports).
* ``resource_exhausted`` — an opt-in governor budget (``--budgets``)
  tripped: the harness terminated the statement, not the DBMS.  Distinct
  from ``resource_kill`` so budget kills never pollute the paper's
  false-positive accounting.
* ``harness_crash`` — sandbox mode only (``--sandbox``): the subprocess
  worker died executing the statement (a harness bug, OOM kill, or a
  pathology the in-process model cannot absorb).  The worker is respawned
  and the campaign quarantines the statement instead of dying with it.

Resilience machinery (all from :mod:`repro.robustness`): transient
connection drops are retried with exponential backoff and auto-reconnect; a
hung statement is killed by the watchdog and retried once with faults
suppressed; failed restarts are retried with backoff and, past the circuit
breaker's threshold, the whole server is quarantined
(:class:`~repro.robustness.ServerQuarantined`) so multi-dialect campaigns
degrade gracefully instead of aborting.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional, Sequence

from ..dialects.base import Dialect
from ..engine.connection import (
    Connection,
    ConnectionClosed,
    RestartFailed,
    Server,
    ServerCrashed,
)
from ..engine.coverage import CoverageTracker
from ..engine.errors import CrashSignal, ResourceError, ResourceExhausted, SQLError
from ..engine.fingerprint import ResultFingerprint, fingerprint_result
from ..robustness.faults import FaultInjector
from ..robustness.governor import ResourceBudgets, make_governor
from ..robustness.policy import CircuitBreaker, RetryPolicy
from ..robustness.sandbox import (
    SandboxedConnection,
    WorkerCrashed,
    WorkerHung,
    make_sandbox_config,
)
from ..robustness.tally import Tally, bump
from ..robustness.watchdog import Clock, StatementTimeout, WallClock, Watchdog
from ..sqlast.nodes import Statement


@dataclass
class Outcome:
    """Classification of one executed statement."""

    kind: str                      # ok | error | resource_kill | crash | timeout | flaky
    sql: str
    message: str = ""
    crash: Optional[CrashSignal] = None
    result_type: Optional[str] = None  # type of the first result cell
    #: result-set fingerprint, computed only when an oracle asks for it
    #: (Runner.capture_fingerprints) — None otherwise
    fingerprint: Optional["ResultFingerprint"] = None
    #: parse of ``sql``, shared by the oracles that re-execute the
    #: statement: the parse the in-process run made, or (sandboxed runs)
    #: made on first use by guards.parsed_statements — None until then
    statements: Optional[Sequence[Statement]] = None

    @property
    def is_crash(self) -> bool:
        return self.kind == "crash"


#: the exceptions one execution attempt may raise, classified by
#: :meth:`Runner._classify`; anything else propagates to the campaign
_ATTEMPT_ERRORS = (SQLError, StatementTimeout, WorkerCrashed, ConnectionClosed,
                   ServerCrashed, RecursionError)


class Runner:
    """Executes statements against one dialect with restart-on-crash.

    ``faults`` installs a :class:`~repro.robustness.FaultInjector` on the
    server; when it is set, crash *reconfirmation* defaults to on (every
    crash is re-executed once after the restart, and non-reproducible
    crashes become ``flaky`` outcomes instead of bugs).
    """

    def __init__(
        self,
        dialect: Dialect,
        enable_coverage: bool = False,
        faults: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        watchdog: Optional[Watchdog] = None,
        clock: Optional[Clock] = None,
        breaker: Optional[CircuitBreaker] = None,
        reconfirm_crashes: Optional[bool] = None,
        budgets: Optional[object] = None,
        sandbox: Optional[object] = None,
        bootstrap_sql: Sequence[str] = (),
    ) -> None:
        self.dialect = dialect
        self.bootstrap_sql = tuple(bootstrap_sql)
        if isinstance(budgets, str):
            budgets = ResourceBudgets.parse(budgets)
        self.budgets: Optional[ResourceBudgets] = budgets
        sandbox_config = make_sandbox_config(sandbox)
        # validation speaks library option names; the CLI maps them to
        # flag spellings at its boundary (repro.cli)
        if sandbox_config is not None and faults is not None:
            raise ValueError(
                "the 'sandbox' and 'faults' options are mutually exclusive: "
                "the fault injector simulates infrastructure noise "
                "in-process, the sandbox contains the real thing"
            )
        if sandbox_config is not None and enable_coverage:
            raise ValueError(
                "the 'sandbox' option does not support 'enable_coverage' "
                "(arc sets do not cross the worker boundary)"
            )
        if sandbox_config is not None and self.bootstrap_sql:
            raise ValueError(
                "the 'sandbox' option does not support 'bootstrap_sql' "
                "(the seeded-table workload runs in-process)"
            )
        self.server: Server = dialect.create_server()
        #: the stream's counters, shared with its injector and supervisor
        self.tally = Tally()
        self.coverage: Optional[CoverageTracker] = None
        if enable_coverage:
            self.coverage = CoverageTracker()
            self.server.ctx.coverage = self.coverage
        self.sandbox: Optional[SandboxedConnection] = None
        if sandbox_config is not None:
            self.sandbox = SandboxedConnection(
                dialect,
                config=sandbox_config,
                budgets=budgets,
                tally=self.tally,
            )
            # worker-reported triggered functions land in the parent ctx,
            # so checkpoints and the triggered_functions property are
            # oblivious to where execution actually happened
            self.sandbox.triggered_sink = self.server.ctx.triggered_functions
        elif budgets is not None and budgets.enabled:
            governor = make_governor(budgets)
            self.server.attach_governor(governor)
        self.connection: Connection = self.server.connect()
        self.clock: Clock = clock if clock is not None else WallClock()
        self.watchdog = watchdog if watchdog is not None else Watchdog(self.clock)
        self.injector = faults
        if faults is not None:
            faults.attach(self.server, self.clock)
            faults.tally = self.tally
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(dialect.name)
        self.reconfirm_crashes = (
            (faults is not None) if reconfirm_crashes is None else reconfirm_crashes
        )
        self.restarts = 0
        self.timeouts = 0
        #: set by the campaign when a registered oracle needs result-set
        #: fingerprints (OraclePipeline.needs_fingerprints)
        self.capture_fingerprints = False
        self._timed_out = False
        self._reconnects = 0
        self._apply_bootstrap()

    # ------------------------------------------------------------------
    def _apply_bootstrap(self) -> None:
        """Replay the bootstrap DDL/DML (seeded tables) on a fresh server.

        The base relation is infrastructure, not workload: it runs outside
        the executed-statement accounting and with the fault hook detached,
        so every server — first boot or post-crash restart, with or without
        ``--faults`` — starts from the identical row set and campaign
        signatures depend only on generated statements.
        """
        if not self.bootstrap_sql:
            return
        hook, self.server.fault_hook = self.server.fault_hook, None
        try:
            for sql in self.bootstrap_sql:
                self.connection.execute(sql)
        finally:
            self.server.fault_hook = hook

    # ------------------------------------------------------------------
    def run(self, sql: str, position: Optional[int] = None) -> Outcome:
        """Execute *sql* and classify the outcome, absorbing infra noise.

        *position* is the statement's global campaign position, keying the
        fault injector's per-statement random stream; it defaults to this
        runner's own execution count, which matches the campaign position
        for a serial run.  Parallel shard workers pass it explicitly.
        """
        self.tally.executed += 1
        if self.injector is not None:
            self.injector.set_position(
                self.tally.executed - 1 if position is None else position
            )
        # the statement's retry state, advanced by _classify
        self._timed_out = False
        self._reconnects = 0
        while True:
            try:
                # retries of the same statement run with faults suppressed:
                # infrastructure noise is independent across attempts
                result = self._execute(
                    sql, quiet=self._timed_out or self._reconnects > 0
                )
                return self._ok(sql, result)
            except _ATTEMPT_ERRORS as exc:
                outcome = self._classify(sql, exc)
            if outcome is not None:
                return outcome

    # ------------------------------------------------------------------
    def _execute(self, sql: str, quiet: bool = False):
        """One guarded execution attempt, optionally with faults suppressed."""
        if self.sandbox is not None:
            # the worker clears sequence state itself; the simulated-clock
            # watchdog still meters statement cost, while the sandbox's
            # real wall deadline guards against genuine interpreter hangs
            return self.watchdog.guard(lambda: self.sandbox.execute(sql))
        # every attempt starts from clean sequence state: a test case whose
        # outcome leaked in from an earlier statement's NEXTVAL would not be
        # a reproducible PoC, and would make shard workers (which see only a
        # slice of the stream) diverge from the serial run
        self.server.ctx.clear_sequence_state()
        suppress = (
            self.injector.quiet() if quiet and self.injector is not None else nullcontext()
        )
        with suppress:
            return self.watchdog.guard(lambda: self.connection.execute(sql))

    def _ok(self, sql: str, result) -> Outcome:
        result_type = None
        if result.rows and result.rows[0]:
            result_type = result.rows[0][0].type_name
        fingerprint = (
            fingerprint_result(result) if self.capture_fingerprints else None
        )
        # an in-process run parsed sql already; its parse is the oracles' too
        statements = (
            self.connection.last_statements if self.sandbox is None else None
        )
        return Outcome(
            "ok", sql, result_type=result_type, fingerprint=fingerprint,
            statements=statements,
        )

    def _count(self, kind: str) -> None:
        bump(self.tally.faults, kind)

    # ------------------------------------------------------------------
    def _classify(self, sql: str, exc: BaseException) -> Optional[Outcome]:
        """Map a failed attempt's exception to its outcome, or ``None`` to
        retry the statement with faults suppressed.

        Subclasses come before their bases: ``ResourceExhausted`` and
        ``ResourceError`` subclass ``SQLError``, and ``WorkerHung``
        subclasses ``WorkerCrashed``.  The first watchdog kill earns one
        quiet retry, on which a transient infrastructure hang recovers; a
        statement that *genuinely* overruns its deadline times out again
        and becomes the ``timeout`` outcome.
        """
        if isinstance(exc, ResourceExhausted):
            self._count(f"governor.{exc.budget}")
            return Outcome("resource_exhausted", sql, message=exc.message)
        if isinstance(exc, ResourceError):
            return Outcome("resource_kill", sql, message=exc.message)
        if isinstance(exc, SQLError):
            return Outcome("error", sql, message=exc.message)
        if isinstance(exc, StatementTimeout):
            if self._timed_out:
                return Outcome("timeout", sql, message=str(exc))
            self._timed_out = True
            self._reconnects = 0
            self.timeouts += 1
            self._count("statement_kills")
            return None
        if isinstance(exc, WorkerHung):
            # a hang on the quiet retry was already counted as one timeout
            # on the first kill; hanging again confirms it
            if not self._timed_out:
                self.timeouts += 1
            self._count("sandbox.hang_kills")
            self._count("sandbox.respawns")
            return Outcome("timeout", sql, message=str(exc))
        if isinstance(exc, WorkerCrashed):
            self._count("sandbox.worker_deaths")
            self._count("sandbox.respawns")
            return Outcome("harness_crash", sql, message=str(exc))
        if isinstance(exc, ConnectionClosed):
            # the same backoff contract before and after a watchdog kill: a
            # lost connection is transient infra noise, not grounds to give
            # up on the statement after one attempt
            self._reconnects += 1
            self._count("reconnects")
            if not self.retry_policy.allows(self._reconnects):
                message = f"connection lost after {self._reconnects} attempts: {exc}"
                return Outcome("error", sql, message=message)
            self.clock.advance(self.retry_policy.delay(self._reconnects))
            self._reconnect()
            return None
        if isinstance(exc, ServerCrashed):
            return self._handle_crash(sql, exc)
        # RecursionError: treat interpreter-level recursion like a resource kill
        self._restart()
        return Outcome("resource_kill", sql, message="interpreter recursion limit")

    def _handle_crash(self, sql: str, exc: ServerCrashed) -> Outcome:
        """Restart and, when reconfirmation is on, re-check reproducibility."""
        self._restart()
        if not self.reconfirm_crashes:
            return Outcome("crash", sql, message=str(exc), crash=exc.crash)
        self._count("reconfirmations")
        try:
            self._execute(sql, quiet=True)
        except ServerCrashed as confirmed:
            # reproducible: a genuine server bug.  Report the *reconfirmed*
            # signal — its attribution is clean of injected noise.
            self._restart()
            return Outcome("crash", sql, message=str(confirmed), crash=confirmed.crash)
        except (SQLError, StatementTimeout):
            pass
        except WorkerCrashed:
            # the worker died on reconfirmation; it has already been
            # respawned, and the original signal stays flaky
            pass
        except ConnectionClosed:
            self._reconnect()
        except RecursionError:
            self._restart()
        self._count("flaky_crashes")
        return Outcome("flaky", sql, message=str(exc), crash=exc.crash)

    # ------------------------------------------------------------------
    def _reconnect(self) -> None:
        """Re-establish the client connection, restarting a dead server."""
        if self.sandbox is not None:
            self.sandbox.reconnect()
            return
        if not self.server.alive:
            self._restart()
        else:
            self.connection = self.server.connect()

    def _restart(self) -> None:
        """Restart the server with backoff; quarantine when it won't return.

        Exception-safe: a failed attempt leaves the server dead but intact
        (see :meth:`Server.restart`), the stale connection is replaced only
        after a successful restart, and repeated failures open the circuit
        breaker instead of leaking ``RestartFailed`` into the campaign loop.
        """
        if self.sandbox is not None:
            self.sandbox.restart_server()
            self.restarts += 1
            return
        self.breaker.check()
        attempt = 0
        while True:
            try:
                self.server.restart(keep_coverage=True)
                break
            except RestartFailed:
                attempt += 1
                self._count("restart_retries")
                self.breaker.record_failure()
                self.breaker.check()  # raises ServerQuarantined past threshold
                self.clock.advance(self.retry_policy.delay(attempt))
        self.breaker.record_success()
        self.restarts += 1
        if self.coverage is not None:
            self.server.ctx.coverage = self.coverage
        self.connection = self.server.connect()
        self._apply_bootstrap()

    # ------------------------------------------------------------------
    @property
    def triggered_functions(self):
        return set(self.server.ctx.triggered_functions)

    @property
    def branch_coverage(self) -> int:
        return self.coverage.branch_count if self.coverage else 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release sandbox resources (no-op for in-process runners)."""
        if self.sandbox is not None:
            self.sandbox.close()
