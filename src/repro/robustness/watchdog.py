"""Statement watchdog and the clocks it runs on.

Real SOFT campaigns kill statements that hang the server connection: the
harness arms a per-statement deadline and, when it fires, issues a query
kill and records the statement as *timed out* instead of waiting forever.
We reproduce that contract on a clock abstraction:

* :class:`WallClock` — thin wrapper over ``time.monotonic`` used by default,
  so ordinary campaigns keep reporting real elapsed time.
* :class:`SimulatedClock` — a steerable clock used whenever fault injection
  or checkpoint/resume needs deterministic time.  Injected hangs and
  retry/backoff delays *advance* this clock instead of sleeping, so a
  "24 hour" faulted campaign still runs in seconds and two same-seed runs
  observe identical timestamps.
* :class:`Watchdog` — wraps one statement execution, charges a nominal
  per-statement cost to the clock, converts :class:`StatementHang` signals
  (raised by the fault injector) and blown deadlines into
  :class:`StatementTimeout`, which the runner classifies as the ``timeout``
  outcome kind.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

#: default per-statement deadline, in (simulated) seconds — the paper's
#: harness uses the DBMS client's statement timeout for the same purpose
DEFAULT_DEADLINE_SECONDS = 300.0

#: nominal cost charged to the clock per executed statement; makes the
#: simulated elapsed time of a campaign meaningful without real sleeping
DEFAULT_STATEMENT_COST_SECONDS = 0.01

#: default *real* wall-clock deadline for sandboxed requests, in seconds.
#: Unlike :data:`DEFAULT_DEADLINE_SECONDS` (which meters the simulated
#: clock), this bounds actual elapsed time: a subprocess worker that does
#: not answer within it is SIGKILLed by the sandbox (see
#: :class:`repro.robustness.sandbox.SandboxedConnection`).
DEFAULT_REAL_DEADLINE_SECONDS = 30.0


class RealDeadline:
    """A monotonic wall-clock deadline for operations a simulated clock
    cannot meter (subprocess round-trips, socket reads).

    ``remaining()`` is what callers feed into blocking-call timeouts;
    ``expired`` is the post-hoc check.  Always runs on real time — this is
    deliberately *not* a :class:`Clock` client, because the whole point is
    to catch hangs the simulated clock never sees.
    """

    def __init__(self, seconds: float = DEFAULT_REAL_DEADLINE_SECONDS) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        self.seconds = seconds
        self._armed = time.monotonic()

    def remaining(self) -> float:
        """Seconds left (never negative; suitable for socket timeouts)."""
        return max(0.0, self.seconds - (time.monotonic() - self._armed))

    @property
    def expired(self) -> bool:
        return time.monotonic() - self._armed >= self.seconds


class StatementHang(Exception):
    """The statement's connection hung (raised by the fault injector).

    Never escapes the watchdog: :meth:`Watchdog.guard` converts it into a
    :class:`StatementTimeout` after the deadline elapses on the clock.
    """

    def __init__(self, seconds: float) -> None:
        super().__init__(f"statement hung for {seconds:g}s")
        self.seconds = seconds


class StatementTimeout(Exception):
    """The watchdog killed a statement that exceeded its deadline."""

    def __init__(self, deadline: float, elapsed: float) -> None:
        super().__init__(
            f"statement killed after {elapsed:g}s (deadline {deadline:g}s)"
        )
        self.deadline = deadline
        self.elapsed = elapsed


class Clock:
    """Minimal clock interface shared by the harness components."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def advance(self, seconds: float) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class WallClock(Clock):
    """Real monotonic time; ``advance`` is a no-op (wall time can't be steered)."""

    def now(self) -> float:
        return time.monotonic()

    def advance(self, seconds: float) -> None:
        return None


class SimulatedClock(Clock):
    """A deterministic, manually-advanced clock."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clocks only move forward")
        self._now += seconds


class Watchdog:
    """Arms a per-statement deadline around one execution attempt."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        deadline_seconds: float = DEFAULT_DEADLINE_SECONDS,
        statement_cost_seconds: float = DEFAULT_STATEMENT_COST_SECONDS,
    ) -> None:
        self.clock = clock if clock is not None else WallClock()
        self.deadline_seconds = deadline_seconds
        self.statement_cost_seconds = statement_cost_seconds

    def guard(self, fn: Callable[[], T]) -> T:
        """Run *fn* under the deadline; raise :class:`StatementTimeout` when
        it hangs or overruns."""
        start = self.clock.now()
        self.clock.advance(self.statement_cost_seconds)
        try:
            result = fn()
        except StatementHang:
            # the connection hung past any deadline: the kill fires as soon
            # as the deadline elapses, never earlier
            elapsed = max(self.clock.now() - start, self.deadline_seconds)
            raise StatementTimeout(self.deadline_seconds, elapsed) from None
        elapsed = self.clock.now() - start
        if elapsed > self.deadline_seconds:
            # slow-response faults can accumulate past the deadline too
            raise StatementTimeout(self.deadline_seconds, elapsed)
        return result
