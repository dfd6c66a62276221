"""Differential oracle: cross-dialect result comparison for logic bugs.

Crash oracles miss bugs that return *wrong answers*.  The differential
oracle closes that gap with the classic cross-DBMS referee: when a
statement succeeds on the campaign dialect, replay it on peer dialects
whose documentation promises identical semantics for every function the
statement calls, and flag any fingerprint divergence
(:mod:`repro.engine.fingerprint`).

The comparability bar is deliberately strict — a differential finding is
only as trustworthy as the claim that the two systems *should* agree:

* every called function must exist in both registries with identical
  documentation, signature, family, and aggregate-ness (the registry keeps
  metadata when a flaw is patched in, so seeded ``logic_flaw`` functions
  still qualify — that is exactly the point);
* the function must be pure on the campaign dialect: non-deterministic or
  stateful results legitimately differ;
* ``system`` and ``sequence`` families are excluded wholesale —
  ``VERSION()`` is documented identically everywhere and agrees nowhere;
* statements containing ``CAST(`` or ``UNION`` are skipped: cast rules and
  set-operation type unification are dialect policy, not function
  semantics;
* statements carrying a digit run at least as wide as the narrower
  dialect's ``decimal_max_digits`` are skipped per pair — overflow
  behaviour at the numeric cliff is a documented *difference*.

Peers run as throwaway in-process servers owned by the oracle.  A peer
that errors is skipped (strictness differences are the conformance
oracle's job); a peer that crashes is restarted and skipped — peer crashes
are that dialect's own injected bugs, already discoverable by running a
campaign against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...dialects import dialect_names
from ...dialects.base import Dialect
from ...dialects.bugs import LogicFlaw, find_logic_flaw
from ...engine.connection import ServerCrashed
from ...engine.errors import SQLError
from ...engine.fingerprint import (
    ResultFingerprint,
    divergence_class,
    fingerprint_result,
)
from ...sqlast import Statement
from ..runner import Outcome
from .base import DIAGNOSTICS, CaseInfo, Finding, Oracle
from .guards import INCOMPARABLE_FAMILIES, called_functions, parsed_statements

#: report labels per divergence class (most blatant first)
_LABELS = {"cardinality": "WRONGCARD", "type": "WRONGTYPE", "value": "WRONG"}


@dataclass
class DivergenceFinding(Finding):
    """One cross-dialect disagreement on a documented-identical call."""

    dbms: str                    # campaign dialect
    peer: str                    # the disagreeing peer dialect
    function: str                # attributed function (lower-case)
    divergence: str              # cardinality | type | value
    pattern: str                 # generation pattern of the statement
    sql: str
    query_index: int             # 1-based global statement position
    own_digest: str
    peer_digest: str
    flaw: Optional[LogicFlaw] = field(default=None, compare=False)

    kind = "divergence"

    @property
    def key(self) -> Tuple:
        # one finding per (function, unordered pair, class): re-discovering
        # the same disagreement through a different statement is not news
        return (self.function, tuple(sorted((self.dbms, self.peer))), self.divergence)

    @property
    def bug_type_label(self) -> str:
        return _LABELS[self.divergence]

    def lookup_attribution(self) -> Optional[LogicFlaw]:
        return find_logic_flaw(self.dbms, self.function)

    def one_liner(self) -> str:
        return (
            f"[{self.bug_type_label}] {self.function} vs {self.peer} "
            f"via {self.pattern}: {self.sql}"
        )


class DifferentialOracle(Oracle):
    """Replays successful statements on peer dialects and compares."""

    name = "differential"
    needs_fingerprints = True
    finding_class = DivergenceFinding
    counters = DIAGNOSTICS

    def __init__(self, dialect: Dialect) -> None:
        super().__init__(dialect.name)
        self.dialect = dialect
        self.peer_names = [n for n in dialect_names() if n != dialect.name]
        # peer name -> (dialect, server, connection); created on first use so
        # a campaign that never produces a comparable statement pays nothing
        self._peers: Dict[str, Tuple] = {}
        # (function, peer) -> comparability verdict
        self._comparable_cache: Dict[Tuple[str, str], bool] = {}

    # ------------------------------------------------------------------
    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> Optional[Finding]:
        if outcome.kind != "ok" or outcome.fingerprint is None:
            return None
        self.checked += 1
        sql = outcome.sql
        called = self._called_functions(sql)
        if not called:
            return None
        upper = sql.upper()
        if "CAST(" in upper or "UNION" in upper:
            self.skipped += 1
            return None
        first: Optional[DivergenceFinding] = None
        for peer_name in self.peer_names:
            finding = self._compare_against(
                peer_name, outcome, called, case, index
            )
            if finding is not None and first is None:
                first = finding
        return first

    # ------------------------------------------------------------------
    def _called_functions(self, sql: str) -> List[str]:
        """Called names that exist in the campaign dialect's registry."""
        return called_functions(sql, self.dialect.registry)

    def _comparable(self, function: str, peer_name: str, peer: Dialect) -> bool:
        cached = self._comparable_cache.get((function, peer_name))
        if cached is not None:
            return cached
        verdict = self._comparable_uncached(function, peer)
        self._comparable_cache[(function, peer_name)] = verdict
        return verdict

    def _comparable_uncached(self, function: str, peer: Dialect) -> bool:
        if not peer.registry.contains(function):
            return False
        own = self.dialect.registry.lookup(function)
        other = peer.registry.lookup(function)
        if not own.pure or own.family in INCOMPARABLE_FAMILIES:
            return False
        return (
            own.doc == other.doc
            and own.signature == other.signature
            and own.family == other.family
            and own.is_aggregate == other.is_aggregate
        )

    def _compare_against(
        self,
        peer_name: str,
        outcome: Outcome,
        called: Sequence[str],
        case: CaseInfo,
        index: int,
    ) -> Optional[Finding]:
        sql = outcome.sql
        peer_dialect, _, _ = self._peer(peer_name)
        for function in called:
            if not self._comparable(function, peer_name, peer_dialect):
                self.skipped += 1
                return None
        # numeric-cliff guard: wide literals overflow at different widths
        narrow = min(
            self.dialect.limits.decimal_max_digits,
            peer_dialect.limits.decimal_max_digits,
        )
        if re.search(r"\d{%d,}" % narrow, sql):
            self.skipped += 1
            return None
        peer_fp = self._execute_on_peer(peer_name, sql, parsed_statements(outcome))
        if peer_fp is None:
            self.skipped += 1
            return None
        self.compared += 1
        own_fp = outcome.fingerprint
        divergence = divergence_class(own_fp, peer_fp)
        if divergence is None:
            return None
        return self._keep(
            DivergenceFinding(
                dbms=self.dbms,
                peer=peer_name,
                function=case.function if case.function in called else called[0],
                divergence=divergence,
                pattern=case.pattern,
                sql=sql,
                query_index=index + 1,
                own_digest=own_fp.digest,
                peer_digest=peer_fp.digest,
            )
        )

    # -- peer lifecycle -----------------------------------------------------
    def _peer(self, name: str) -> Tuple:
        peer = self._peers.get(name)
        if peer is None:
            from ...dialects import dialect_by_name

            dialect = dialect_by_name(name)
            server = dialect.create_server()
            peer = (dialect, server, server.connect())
            self._peers[name] = peer
        return peer

    def _execute_on_peer(
        self, name: str, sql: str, statements: Sequence[Statement]
    ) -> Optional[ResultFingerprint]:
        """Fingerprint of *sql* on peer *name*, replaying *statements*
        (the campaign's parse of *sql*; parsing is dialect-independent and
        the trees are only read); ``None`` when the peer cannot answer."""
        if not statements:
            return None
        dialect, server, conn = self._peer(name)
        # pure functions cannot read sequence state, but clearing it keeps
        # the peer history-independent no matter what ran before
        server.ctx.clear_sequence_state()
        try:
            # rendering is inside: a result can be too large to render
            return fingerprint_result(conn.execute_parsed(sql, statements))
        except SQLError:
            return None
        except ServerCrashed:
            # the peer's own injected bug — not this campaign's business
            server.restart()
            self._peers[name] = (dialect, server, server.connect())
            return None
        except RecursionError:
            del self._peers[name]
            return None
