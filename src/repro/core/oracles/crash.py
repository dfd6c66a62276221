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
from .base import CaseInfo, Finding, Oracle

#: kill-reason normalisation, hoisted to import time: digit runs collapse to
#: ``N`` so one runaway argument pattern counts as one false positive no
#: matter which concrete boundary value produced it
_KILL_REASON_RE = re.compile(r"\d+")


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
    attribution_field = "injected"

    @property
    def key(self) -> Tuple[str, str]:
        return (self.function, self.crash_code)

    @property
    def bug_type_label(self) -> str:
        return self.crash_code

    def lookup_attribution(self) -> Optional[InjectedBug]:
        return find_bug(self.dbms, self.function, self.crash_code)


class CrashOracle(Oracle):
    """Deduplicates crashes and tracks false positives for one dialect."""

    name = "crash"
    finding_class = DiscoveredBug
    state_version = 2
    findings_key = "bugs"
    extra_state_keys = ("false_positives", "flaky_signals", "fp_seen")

    def _reset(self) -> None:
        super()._reset()
        self._fp_seen: Set[str] = set()
        #: deduplicated (stream index, sql, normalized reason) kill records;
        #: the index is what lets shard merges replay global stream order
        self._fp_records: List[Tuple[Optional[int], str, str]] = []
        #: (stream index, sql) per non-reproducible crash, in stream order
        self._flaky_records: List[Tuple[Optional[int], str]] = []

    # -- legacy list views (the public pre-pipeline surface) ---------------
    @property
    def bugs(self) -> List[DiscoveredBug]:
        return self._findings  # type: ignore[return-value]

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
        # the serial campaign's historical count of executed statements
        if outcome.kind == "crash" and outcome.crash is not None:
            return self.observe_crash(
                outcome.crash, outcome.sql, case.pattern, index + 1
            )
        if outcome.kind == "resource_kill":
            self._record_resource_kill(outcome.sql, outcome.message, index)
        elif outcome.kind == "flaky":
            self._flaky_records.append((index, outcome.sql))
        return None

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
        return self._keep(  # type: ignore[return-value]
            DiscoveredBug(
                dbms=self.dbms,
                function=(crash.function or "unknown").lower(),
                crash_code=crash.code,
                pattern=pattern,
                sql=sql,
                stage=crash.stage or "execute",
                backtrace=list(crash.backtrace),
                message=crash.message,
                query_index=query_index,
            )
        )

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
        return self._record_fp(index, sql, reason)

    def _record_fp(self, index: Optional[int], sql: str, reason: str) -> bool:
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
    # checkpoint support: the base saves and merges the bugs
    def export_state(self) -> Dict[str, Any]:
        state = super().export_state()
        state["false_positives"] = [list(r) for r in self._fp_records]
        state["flaky_signals"] = [list(r) for r in self._flaky_records]
        state["fp_seen"] = sorted(self._fp_seen)
        return state

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Fold shard states in; the kill and flaky records replay in
        global stream order like the bugs (first kill reason keeps)."""
        super().merge(shard_states)
        fp_records = list(self._fp_records)
        flaky_records = list(self._flaky_records)
        for state in shard_states:
            fp_records.extend((r[0], r[1], r[2]) for r in state["false_positives"])
            flaky_records.extend((r[0], r[1]) for r in state["flaky_signals"])

        def order(record: Tuple) -> int:
            return -1 if record[0] is None else record[0]

        self._fp_records, self._fp_seen = [], set()
        for index, sql, reason in sorted(fp_records, key=order):
            self._record_fp(index, sql, reason)
        self._flaky_records = sorted(flaky_records, key=order)

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
