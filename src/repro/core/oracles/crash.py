"""Crash oracle: deduplication and attribution of observed crashes.

A crash is identified by ``(crashing function, crash class)`` within one
DBMS — the same granularity developers use when marking reports as
duplicates.  When the repository's injected-bug registry knows the identity,
the discovery is attributed to it (this is how the benchmarks check recall
against Table 4); unknown identities are still recorded, so the oracle works
unchanged against user-supplied dialects.

This is the original (and default) SOFT oracle, ported onto the
:class:`~repro.core.oracles.base.Oracle` protocol unchanged in behaviour:
a crash-only campaign reports byte-identical results to the pre-pipeline
code, including checkpoint round-trips and parallel shard merges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...dialects.bugs import InjectedBug, find_bug
from ...engine.errors import CrashSignal
from ..runner import Outcome
from .base import CaseInfo, Finding, Oracle, check_state_version

#: kill-reason normalisation, hoisted to import time: digit runs collapse to
#: ``N`` so one runaway argument pattern counts as one false positive no
#: matter which concrete boundary value produced it
_KILL_REASON_RE = re.compile(r"\d+")

#: checkpoint schema version for :meth:`CrashOracle.export_state`
ORACLE_STATE_VERSION = 2

_STATE_KEYS = ("dbms", "bugs", "false_positives", "flaky_signals", "fp_seen")


@dataclass
class DiscoveredBug(Finding):
    """One deduplicated crash discovery."""

    dbms: str
    function: str            # crashing built-in function
    crash_code: str          # NPD | SEGV | ...
    pattern: str             # pattern of the generated statement ("seed" if none)
    sql: str                 # the triggering statement
    stage: str               # parse | optimize | execute
    backtrace: List[str]
    message: str
    query_index: int         # how many statements had run when it surfaced
    injected: Optional[InjectedBug] = None

    kind = "crash"

    @property
    def key(self) -> Tuple[str, str]:
        return (self.function, self.crash_code)

    @property
    def bug_type_label(self) -> str:
        return self.crash_code

    @property
    def attribution(self) -> Optional[InjectedBug]:
        return self.injected

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by campaign checkpoints)."""
        return {
            "dbms": self.dbms,
            "function": self.function,
            "crash_code": self.crash_code,
            "pattern": self.pattern,
            "sql": self.sql,
            "stage": self.stage,
            "backtrace": list(self.backtrace),
            "message": self.message,
            "query_index": self.query_index,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DiscoveredBug":
        """Rebuild a discovery; the injected-bug link is re-resolved from
        the registry rather than serialized."""
        bug = cls(**data)  # type: ignore[arg-type]
        bug.backtrace = list(bug.backtrace)
        bug.injected = find_bug(bug.dbms, bug.function, bug.crash_code)
        return bug


class CrashOracle(Oracle):
    """Deduplicates crashes and tracks false positives for one dialect."""

    name = "crash"
    needs_fingerprints = False

    def __init__(self, dbms: str) -> None:
        self.dbms = dbms
        self.bugs: List[DiscoveredBug] = []
        self._seen: Set[Tuple[str, str]] = set()
        self._fp_seen: Set[str] = set()
        #: deduplicated (stream index, sql, normalized reason) kill records;
        #: the index is what lets shard merges replay global stream order
        self._fp_records: List[Tuple[Optional[int], str, str]] = []
        #: (stream index, sql) per non-reproducible crash, in stream order
        self._flaky_records: List[Tuple[Optional[int], str]] = []

    # -- legacy list views (the public pre-pipeline surface) ---------------
    @property
    def false_positives(self) -> List[str]:
        return [sql for _, sql, _ in self._fp_records]

    @property
    def flaky_signals(self) -> List[str]:
        return [sql for _, sql in self._flaky_records]

    # ------------------------------------------------------------------
    # Oracle protocol
    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> Optional[DiscoveredBug]:
        # query_index is 1-based ("how many statements had run"), matching
        # the serial campaign's historical runner.executed accounting
        if outcome.kind == "crash" and outcome.crash is not None:
            return self.observe_crash(
                outcome.crash, outcome.sql, case.pattern, index + 1
            )
        if outcome.kind == "resource_kill":
            self._record_resource_kill(outcome.sql, outcome.message, index)
        elif outcome.kind == "flaky":
            self._flaky_records.append((index, outcome.sql))
        return None

    def findings(self) -> List[DiscoveredBug]:
        return list(self.bugs)

    # ------------------------------------------------------------------
    # direct observation API (used by baselines/benchmarks and the legacy
    # call sites; indices default to "unknown")
    def observe_crash(
        self,
        crash: CrashSignal,
        sql: str,
        pattern: str,
        query_index: int,
    ) -> Optional[DiscoveredBug]:
        """Record a crash; returns the discovery when it is new."""
        function = (crash.function or "unknown").lower()
        key = (function, crash.code)
        if key in self._seen:
            return None
        self._seen.add(key)
        discovery = DiscoveredBug(
            dbms=self.dbms,
            function=function,
            crash_code=crash.code,
            pattern=pattern,
            sql=sql,
            stage=crash.stage or "execute",
            backtrace=list(crash.backtrace),
            message=crash.message,
            query_index=query_index,
            injected=find_bug(self.dbms, function, crash.code),
        )
        self.bugs.append(discovery)
        return discovery

    def observe_resource_kill(self, sql: str, message: str = "") -> bool:
        """Record a forcibly-terminated query (false-positive candidate).

        Deduplicated by the normalised kill reason: one runaway argument
        pattern ("REPEAT('a', 9999999999) exceeds the memory limit") is one
        false positive no matter how many functions it was fed to — which
        is how the paper counts its 7 FPs.
        """
        return self._record_resource_kill(sql, message, None)

    def _record_resource_kill(
        self, sql: str, message: str, index: Optional[int]
    ) -> bool:
        reason = _KILL_REASON_RE.sub("N", message or sql.split("(", 1)[0]).lower()
        if reason in self._fp_seen:
            return False
        self._fp_seen.add(reason)
        self._fp_records.append((index, sql, reason))
        return True

    def observe_flaky_crash(self, sql: str, message: str = "") -> None:
        """Record a crash that did not reproduce on re-execution.

        The paper's triage discards crash reports it cannot reproduce —
        infrastructure noise, not bugs.  We keep the signal (for the
        campaign health report) but never promote it to a
        :class:`DiscoveredBug`.
        """
        self._flaky_records.append((None, sql))

    # ------------------------------------------------------------------
    # checkpoint support
    def export_state(self) -> Dict[str, Any]:
        """Everything needed to rebuild this oracle (JSON-serializable)."""
        return {
            "version": ORACLE_STATE_VERSION,
            "dbms": self.dbms,
            "bugs": [bug.to_dict() for bug in self.bugs],
            "false_positives": [list(r) for r in self._fp_records],
            "flaky_signals": [list(r) for r in self._flaky_records],
            "fp_seen": sorted(self._fp_seen),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        check_state_version(
            state, ORACLE_STATE_VERSION, _STATE_KEYS, "crash oracle"
        )
        self.bugs = [DiscoveredBug.from_dict(d) for d in state["bugs"]]
        self._fp_records = [
            (r[0], r[1], r[2]) for r in state["false_positives"]
        ]
        self._flaky_records = [(r[0], r[1]) for r in state["flaky_signals"]]
        self._seen = {bug.key for bug in self.bugs}
        self._fp_seen = set(state["fp_seen"])

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Fold shard states in, replaying records in global stream order.

        Each shard deduplicated within its own slice; re-sorting the kept
        records by stream index and re-deduplicating keeps exactly the
        record a serial run would have kept (the globally first occurrence
        of each identity is necessarily the first within its shard).
        """
        bug_records: List[Tuple[int, DiscoveredBug]] = [
            (bug.query_index, bug) for bug in self.bugs
        ]
        fp_records = list(self._fp_records)
        flaky_records = list(self._flaky_records)
        for state in shard_states:
            check_state_version(
                state, ORACLE_STATE_VERSION, _STATE_KEYS, "crash oracle shard"
            )
            for data in state["bugs"]:
                bug = DiscoveredBug.from_dict(data)
                bug_records.append((bug.query_index, bug))
            fp_records.extend((r[0], r[1], r[2]) for r in state["false_positives"])
            flaky_records.extend((r[0], r[1]) for r in state["flaky_signals"])

        def order(index: Optional[int]) -> int:
            return -1 if index is None else index

        self.bugs = []
        self._seen = set()
        for _, bug in sorted(bug_records, key=lambda r: order(r[0])):
            if bug.key in self._seen:
                continue
            self._seen.add(bug.key)
            self.bugs.append(bug)
        self._fp_records = []
        self._fp_seen = set()
        for index, sql, reason in sorted(fp_records, key=lambda r: order(r[0])):
            if reason in self._fp_seen:
                continue
            self._fp_seen.add(reason)
            self._fp_records.append((index, sql, reason))
        self._flaky_records = sorted(flaky_records, key=lambda r: order(r[0]))

    # ------------------------------------------------------------------
    @property
    def attributed(self) -> List[DiscoveredBug]:
        return [b for b in self.bugs if b.injected is not None]

    def recall_against(self, expected: List[InjectedBug]) -> float:
        """Fraction of *expected* injected bugs discovered so far."""
        if not expected:
            return 1.0
        found = {b.injected.bug_id for b in self.attributed}
        return sum(1 for bug in expected if bug.bug_id in found) / len(expected)
