"""The machine-speed reference that end-to-end timings are normalized by.

On a small shared machine the speed of identical Python work drifts by
10-25% over minutes, so raw wall times of the same workload spread too
widely between runs to gate a change on.  A :class:`Sampler` runs a
fixed, allocation-free loop (:func:`reference`) inside the measured
process every :data:`PERIOD_S` seconds and keeps how long it took.  The
median sample over the unit, divided by :data:`REFERENCE_NS`, is the
unit's *speed factor*: above 1 the machine ran slow, below 1 fast.
``run.py`` divides wall times by it, so timings read as on the machine
the constant was taken on.

Shard workers forked from a sampled process restart the timer and append
their samples to ``<sink_dir>/speed-<pid>.txt`` as they go (pool workers
are terminated, not exited, so nothing is left to write at the end).
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter_ns
from typing import List, Optional

#: one :func:`reference` call, in ns, as it typically took inside the
#: measured processes on the 2-vCPU machine the benchmark was defined on
REFERENCE_NS = 250_000

#: sampling periods: through a unit (one sample costs ~0.3 ms, so ~0.3%
#: of a core) and through a sub-second cold start
PERIOD_S = 0.1
SETUP_PERIOD_S = 0.01


def reference() -> int:
    """Fixed small-integer work: no container allocation, so it never
    triggers the garbage collector of the process it samples."""
    s = 0
    for i in range(3000):
        s = (s * 31 + i) & 0xFFFFF
    return s


class Sampler:
    """SIGALRM-driven samples of :func:`reference` in this process."""

    def __init__(self, period_s: float = PERIOD_S,
                 sink_dir: Optional[str] = None) -> None:
        self.period_s = period_s
        self.samples: List[int] = []
        self.sink_dir = sink_dir
        self._sink: Optional[int] = None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        if self.sink_dir is not None:
            os.register_at_fork(after_in_child=self._restart_in_child)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _restart_in_child(self) -> None:
        # interval timers are not inherited; the handler is
        self.samples = []
        path = os.path.join(self.sink_dir, f"speed-{os.getpid()}.txt")
        self._sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def _tick(self, signum, frame) -> None:
        start = perf_counter_ns()
        reference()
        elapsed = perf_counter_ns() - start
        self.samples.append(elapsed)
        if self._sink is not None:
            os.write(self._sink, b"%d\n" % elapsed)

    def shard_samples(self) -> List[int]:
        """Samples the forked shard workers wrote to the sink directory."""
        samples: List[int] = []
        for name in sorted(os.listdir(self.sink_dir)):
            with open(os.path.join(self.sink_dir, name)) as fh:
                samples.extend(int(line) for line in fh if line.strip())
        return samples


def factor(samples: List[int]) -> float:
    """The speed factor of a sample set (1.0 when there are none)."""
    return statistics.median(samples) / REFERENCE_NS if samples else 1.0
