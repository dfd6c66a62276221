"""The counters of one campaign stream, as one :class:`Tally`."""

from __future__ import annotations

from typing import Any, Dict, Iterable

#: the tally's sections of named ints
SECTIONS = ("outcomes", "faults", "supervisor")


def bump(counts: Dict[str, int], name: str, by: int = 1) -> None:
    counts[name] = counts.get(name, 0) + by


class Tally:
    """Every counter of one stream, each a plain named int written once,
    where its event happens; saved, restored and summed across shards as
    one mapping (:meth:`export`, :meth:`restore`, :meth:`merge`).

    * ``executed``: statements the runner ran (containment skips are not);
    * ``outcomes``: statements by outcome kind (``ok``, ..., ``skipped``),
      written by the campaign loop;
    * ``faults``: resilience events, written by the runner
      (``reconnects``, ``flaky_crashes``, ``governor.<budget>``,
      ``sandbox.*``, ...) and by the fault injector (``hang``, ``drop``,
      ...), under disjoint names;
    * ``supervisor``: the sandbox supervisor's ``kills``,
      ``worker_deaths`` and ``respawns``.  Not the runner's ``sandbox.*``
      events: a restart or reconnect absorbs a worker death that the
      supervisor still counts.
    """

    __slots__ = ("executed",) + SECTIONS

    def __init__(self) -> None:
        self.executed = 0
        self.outcomes: Dict[str, int] = {}
        self.faults: Dict[str, int] = {}
        self.supervisor: Dict[str, int] = {}

    def export(self) -> Dict[str, Any]:
        state: Dict[str, Any] = {"executed": self.executed}
        for name in SECTIONS:
            state[name] = dict(getattr(self, name))
        return state

    def restore(self, state: Dict[str, Any]) -> None:
        """Load an :meth:`export` in place: its writers keep this tally."""
        self.executed = state["executed"]
        for name in SECTIONS:
            getattr(self, name).clear()
            getattr(self, name).update(state[name])

    def merge(self, states: Iterable[Dict[str, Any]]) -> None:
        """Add every exported tally in *states* to this one."""
        for state in states:
            self.executed += state["executed"]
            for name in SECTIONS:
                counts = getattr(self, name)
                for key, count in state[name].items():
                    bump(counts, key, count)
