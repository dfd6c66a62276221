"""Deterministic fault injection for the simulated DBMS infrastructure.

The paper's campaigns run for 24 hours to two weeks against live containers,
where statement hangs, flaky connections, failed restarts, and spurious
non-reproducible crashes are routine (§7.3 triages 7 false positives out of
the raw crash stream).  The :class:`FaultInjector` reproduces that noise on
the simulated :class:`~repro.engine.connection.Server` through the engine's
:class:`~repro.engine.connection.FaultHook` seam:

=================  ====================================================
fault class        behaviour
=================  ====================================================
``hang``           the statement's connection hangs; the simulated clock
                   jumps past the watchdog deadline and the statement is
                   killed (``timeout`` handling in the runner)
``slow``           the statement completes but charges extra seconds to
                   the clock (can accumulate into a timeout)
``drop``           the client connection resets transiently
                   (:class:`~repro.engine.connection.ConnectionDropped`);
                   the server stays up and a reconnect recovers
``flaky_crash``    the server dies with a *spurious*, non-reproducible
                   crash signal — the runner's reconfirmation step must
                   keep it out of the bug list (the paper's FP triage)
``restart_fail``   a restart attempt wedges
                   (:class:`~repro.engine.connection.RestartFailed`);
                   retried with backoff, eventually circuit-broken
=================  ====================================================

Determinism contract: the fault stream is **keyed by statement position**.
Before a statement executes, the harness calls
:meth:`FaultInjector.set_position` with the statement's global campaign
position, which reseeds the RNG from ``(fault seed, position)``; the
statement's one ``on_execute`` draw plus any restart-attempt draws from
handling its crash all come from that per-position stream (retries and
reconfirmations run inside :meth:`FaultInjector.quiet` and draw nothing).
The schedule for a statement is therefore a pure function of
``(fault seed, position)`` — independent of which process executes it and
of everything executed before it — which is what lets sharded parallel
campaigns and checkpoint resume reproduce a serial run's fault schedule
exactly, without carrying RNG state.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Union

from ..engine.connection import ConnectionDropped, FaultHook, RestartFailed
from ..engine.errors import SegmentationViolation
from .tally import Tally, bump
from .watchdog import Clock, StatementHang

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.connection import Connection, Server

#: rates used by the ``--faults default`` preset: high enough that a 2k-query
#: smoke campaign exercises every fault class, low enough that retry budgets
#: absorb them
DEFAULT_RATES = {
    "hang": 0.002,
    "slow": 0.01,
    "drop": 0.004,
    "flaky_crash": 0.002,
    "restart_fail": 0.05,
}

_FIELD_ALIASES = {
    "hang": "hang_rate",
    "slow": "slow_rate",
    "drop": "drop_rate",
    "flaky": "flaky_crash_rate",
    "flaky_crash": "flaky_crash_rate",
    "restart_fail": "restart_failure_rate",
    "restart_failure": "restart_failure_rate",
}


def parse_rate_spec(
    spec: str,
    known: "set[str]",
    aliases: Optional[Dict[str, str]] = None,
    noun: str = "fault",
) -> Dict[str, float]:
    """Parse a ``name=value,name=value`` rate spec into a field dict.

    The shared grammar behind :meth:`FaultPlan.parse` and
    :meth:`~repro.robustness.chaos.StorageFaultPlan.parse`: *aliases*
    map short CLI names onto dataclass field names, duplicates are
    caught **after** alias resolution (two spellings of one field are
    still a duplicate), and values must be non-NaN and >= 0.  *noun*
    names the spec family in error messages (``"fault"``,
    ``"storage fault"``).
    """
    aliases = aliases or {}
    values: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {noun} spec item {part!r}: expected name=value")
        name, _, raw = part.partition("=")
        given = name.strip()
        name = aliases.get(given, given)
        if name not in known:
            raise ValueError(f"unknown {noun} class {given!r}")
        if name in values:
            raise ValueError(
                f"duplicate {noun} spec key {given!r}: "
                f"{name} was already set"
            )
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"bad {noun} rate {raw!r} for {name}") from None
        if math.isnan(value):
            raise ValueError(f"{noun} spec value for {name} must not be NaN")
        if value < 0:
            raise ValueError(
                f"{noun} spec value for {name} must be >= 0, got {raw.strip()}"
            )
        values[name] = value
    return values


@dataclass(frozen=True)
class FaultPlan:
    """Per-class fault probabilities plus fault magnitudes."""

    hang_rate: float = 0.0
    slow_rate: float = 0.0
    drop_rate: float = 0.0
    flaky_crash_rate: float = 0.0
    restart_failure_rate: float = 0.0
    #: how long a hung statement blocks the connection (simulated seconds);
    #: deliberately larger than the default watchdog deadline
    hang_seconds: float = 600.0
    #: extra latency charged by a slow response
    slow_seconds: float = 2.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise ValueError(f"{f.name} must be within [0, 1], got {value!r}")
            if f.name.endswith("_seconds") and value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")
        total = (
            self.hang_rate + self.slow_rate + self.drop_rate + self.flaky_crash_rate
        )
        if total > 1.0:
            raise ValueError(
                f"statement fault rates sum to {total:g} > 1"
            )

    @property
    def any_enabled(self) -> bool:
        return any(
            getattr(self, f.name) > 0 for f in fields(self) if f.name.endswith("_rate")
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a CLI fault spec.

        ``"default"`` (or ``"on"``) enables the preset rates; otherwise a
        comma-separated ``name=value`` list, e.g.
        ``"hang=0.01,drop=0.02,restart_fail=0.1"``.  Accepted names: the
        dataclass fields plus the short aliases ``hang``, ``slow``,
        ``drop``, ``flaky``, ``restart_fail``.
        """
        spec = spec.strip().lower()
        if spec in ("default", "on", "1", "true"):
            return cls(
                hang_rate=DEFAULT_RATES["hang"],
                slow_rate=DEFAULT_RATES["slow"],
                drop_rate=DEFAULT_RATES["drop"],
                flaky_crash_rate=DEFAULT_RATES["flaky_crash"],
                restart_failure_rate=DEFAULT_RATES["restart_fail"],
            )
        if spec in ("off", "none", "0", "false", ""):
            return cls()
        known = {f.name for f in fields(cls)}
        values = parse_rate_spec(spec, known, aliases=_FIELD_ALIASES, noun="fault")
        return cls(**values)


class FaultInjector(FaultHook):
    """Seed-driven fault schedule installed on a simulated server."""

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        seed: int = 0,
        clock: Optional[Clock] = None,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan.parse("default")
        self.seed = seed
        self.rng = random.Random(seed)
        #: where injected faults are counted (the runner's tally once attached)
        self.tally = Tally()
        self._quiet_depth = 0
        self._clock = clock
        #: global campaign position of the statement currently executing
        self.position = -1

    # ------------------------------------------------------------------
    def attach(self, server: "Server", clock: Optional[Clock] = None) -> None:
        """Install this injector as the server's fault hook."""
        server.fault_hook = self
        if clock is not None:
            self._clock = clock

    @contextmanager
    def quiet(self) -> Iterator[None]:
        """Suppress statement faults (used for retries and reconfirmation).

        Infrastructure noise is independent across attempts; suppressing it
        while re-executing a statement is how the harness distinguishes a
        reproducible server bug from a one-off infrastructure event.
        """
        self._quiet_depth += 1
        try:
            yield
        finally:
            self._quiet_depth -= 1

    @property
    def is_quiet(self) -> bool:
        return self._quiet_depth > 0

    def set_position(self, position: int) -> None:
        """Re-key the fault stream to global statement *position*.

        All draws attributable to the statement at this position — its
        ``on_execute`` draw plus any restart-attempt draws from handling
        its crash — come from a stream seeded by ``(fault seed,
        position)``.  See the module docstring's determinism contract.
        """
        self.position = position
        # Knuth multiplicative hash decorrelates adjacent positions; +1 on
        # both terms keeps seed=0/position=0 off the degenerate zero seed
        mixed = (2_654_435_761 * (position + 1)) & 0xFFFFFFFF
        self.rng.seed(((self.seed + 1) << 32) ^ mixed)

    def _count(self, kind: str) -> None:
        bump(self.tally.faults, kind)

    def _advance(self, seconds: float) -> None:
        if self._clock is not None:
            self._clock.advance(seconds)

    # ------------------------------------------------------------------
    # FaultHook interface (called by the engine)
    def on_execute(self, connection: "Connection", sql: str) -> None:
        if self._quiet_depth:
            return
        plan = self.plan
        draw = self.rng.random()  # exactly one draw per statement
        edge = plan.hang_rate
        if draw < edge:
            self._count("hang")
            self._advance(plan.hang_seconds)
            raise StatementHang(plan.hang_seconds)
        edge += plan.slow_rate
        if draw < edge:
            self._count("slow")
            self._advance(plan.slow_seconds)
            return
        edge += plan.drop_rate
        if draw < edge:
            self._count("drop")
            raise ConnectionDropped("connection reset by peer (injected fault)")
        edge += plan.flaky_crash_rate
        if draw < edge:
            self._count("flaky_crash")
            # a spurious abort: attributed to no function, never reproducible
            raise SegmentationViolation(
                "spurious abort (injected infrastructure fault)",
                function=None,
                stage="execute",
            )

    def on_restart(self, server: "Server") -> None:
        if self._quiet_depth:
            return
        if self.plan.restart_failure_rate <= 0:
            return
        if self.rng.random() < self.plan.restart_failure_rate:
            self._count("restart_fail")
            raise RestartFailed("server did not come back up (injected fault)")


FaultsLike = Union[None, str, FaultPlan, FaultInjector]


def make_fault_injector(
    faults: FaultsLike, seed: int = 0, clock: Optional[Clock] = None
) -> Optional[FaultInjector]:
    """Coerce the user-facing ``faults`` argument into an injector.

    Accepts ``None`` (faults off), a CLI spec string, a :class:`FaultPlan`,
    or a ready-made :class:`FaultInjector`.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        if clock is not None and faults._clock is None:
            faults._clock = clock
        return faults
    if isinstance(faults, str):
        plan = FaultPlan.parse(faults)
    elif isinstance(faults, FaultPlan):
        plan = faults
    else:
        raise TypeError(f"cannot build a FaultInjector from {faults!r}")
    if not plan.any_enabled:
        return None
    return FaultInjector(plan, seed=seed, clock=clock)
