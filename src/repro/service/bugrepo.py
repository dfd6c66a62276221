"""The persistent, deduplicating bug repository (sqlite).

BugForge's observation (PAPERS.md) is that a bug repository is a *testing
amplifier*, not just storage: known triggers replayed against every
dialect on every campaign catch regressions and cross-dialect spread for
free.  This module is that repository:

* **Dedup identity.**  Findings collapse onto one record per
  ``(dialect, function, canonical statement)``.  The canonical statement
  is the *minimized* trigger — ingest runs the finding through
  :mod:`repro.core.minimize` with the oracle-appropriate
  :class:`~repro.core.minimize.Probe` (crash identity for crash bugs,
  divergence class for differential findings), so two raw statements that
  shrink to the same minimal reproducer are the same bug.  The oracle that
  found it is *not* part of the identity: the same flaw surfaced by the
  crash oracle in one campaign and by the differential oracle in another
  is still one defect, so record rows accumulate the set of ``kinds`` and
  report ``labels`` instead of splitting.  Distinct dialects never
  collapse — a bug is a property of one DBMS's implementation.
  Minimization is a pure function of ``(dialect, kind, peer, sql,
  minimize_attempts)`` (no clock, no RNG, fresh servers per probe), so
  each repository memoizes the canonical statement under that key: a
  trigger that recurs (every campaign over a dialect replays the same
  seed phase) runs the minimizer once per process.  The memo is a plain
  dict shared by every thread using the repository; it is not persisted
  and never evicts (one short statement per distinct finding).
* **Triage.**  Every record carries a workflow status
  (``new``/``confirmed``/``reported``/``fixed``/``wontfix``/``invalid``)
  mutable through :meth:`BugRepository.set_triage`.
* **Regression replay.**  :meth:`BugRepository.replay` re-executes every
  stored trigger against a chosen dialect on a fresh server and reports
  **status flips** — a trigger that no longer fires (candidate fix /
  lost reproducer) or fires differently.  Replays against the record's
  own dialect update its ``last_status``; re-targeted replays (another
  dialect) are report-only.

Storage is a single sqlite database under the service data directory,
opened in WAL mode through the shared
:class:`~repro.service.storage.SqliteStorage` boundary (same family as
the job journal's ``jobs.sqlite``): writes pass named crash points for
the chaos harness, classified failures degrade the repository's health
instead of leaking raw sqlite errors, and
:func:`~repro.service.storage.open_or_salvage` recovers a corrupt file
by moving it aside as ``bugs.sqlite.corrupt-<n>`` and salvaging every
readable record into a fresh database (:meth:`BugRepository.salvage`).
Ingest and the auditor's duplicate repair fold records together through
one merge rule (:func:`_fold`).  Connections are opened per
operation (sqlite serializes writers), so the repository is safe to
share between scheduler workers and HTTP handler threads — and, unlike
the journal's single-writer connection, across processes (the CLI's
``repro bugs`` reads it while a service runs).
"""

from __future__ import annotations

import json
import os
import re
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.minimize import (
    CrashProbe,
    DivergenceProbe,
    MetamorphicProbe,
    minimize_poc,
)
from ..dialects import dialect_by_name, dialect_names
from ..engine.connection import ServerCrashed
from ..engine.errors import SQLError
from ..robustness.chaos import StorageFaultInjector
from .jobs import finding_to_dict
from .storage import CorruptionDetected, SqliteStorage

#: triage workflow states
TRIAGE_STATES = ("new", "confirmed", "reported", "fixed", "wontfix", "invalid")

#: cap on minimisation work per ingested finding (candidate executions)
DEFAULT_MINIMIZE_ATTEMPTS = 400

_WS_RE = re.compile(r"\s+")


def canonical_statement(sql: str) -> str:
    """Whitespace/terminator-normalized statement text (the dedup key)."""
    return _WS_RE.sub(" ", sql.strip()).rstrip(";").strip()


_SCHEMA = """
CREATE TABLE IF NOT EXISTS bugs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    dialect     TEXT NOT NULL,
    function    TEXT NOT NULL,
    statement   TEXT NOT NULL,
    kinds       TEXT NOT NULL,
    labels      TEXT NOT NULL,
    pattern     TEXT NOT NULL DEFAULT '',
    peer        TEXT NOT NULL DEFAULT '',
    message     TEXT NOT NULL DEFAULT '',
    raw_sql     TEXT NOT NULL DEFAULT '',
    triage      TEXT NOT NULL DEFAULT 'new',
    last_status TEXT NOT NULL DEFAULT 'fires',
    occurrences INTEGER NOT NULL DEFAULT 1,
    campaigns   TEXT NOT NULL DEFAULT '[]',
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL,
    UNIQUE (dialect, function, statement)
);
CREATE TABLE IF NOT EXISTS replays (
    id         INTEGER PRIMARY KEY AUTOINCREMENT,
    bug_id     INTEGER NOT NULL REFERENCES bugs(id),
    dialect    TEXT NOT NULL,
    observed   TEXT NOT NULL,
    fires      INTEGER NOT NULL,
    flipped    INTEGER NOT NULL,
    job_id     TEXT NOT NULL DEFAULT '',
    created_at REAL NOT NULL
);
"""


@dataclass
class BugRecord:
    """One deduplicated repository record."""

    record_id: int
    dialect: str
    function: str
    statement: str
    kinds: List[str]
    labels: List[str]
    pattern: str = ""
    peer: str = ""
    message: str = ""
    raw_sql: str = ""
    triage: str = "new"
    last_status: str = "fires"
    occurrences: int = 1
    campaigns: List[str] = field(default_factory=list)
    created_at: float = 0.0
    updated_at: float = 0.0

    @property
    def expected_signal(self) -> str:
        """What a replay must observe for this record to still fire."""
        if "crash" in self.kinds:
            return "crash"
        if "divergence" in self.kinds:
            return "divergence"
        if "conformance" in self.kinds:
            return "error"
        if "tlp" in self.kinds:
            return "tlp"
        if "norec" in self.kinds:
            return "norec"
        return "crash"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.record_id,
            "dialect": self.dialect,
            "function": self.function,
            "statement": self.statement,
            "kinds": list(self.kinds),
            "labels": list(self.labels),
            "pattern": self.pattern,
            "peer": self.peer,
            "message": self.message,
            "raw_sql": self.raw_sql,
            "triage": self.triage,
            "last_status": self.last_status,
            "occurrences": self.occurrences,
            "campaigns": list(self.campaigns),
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }


@dataclass
class ReplayOutcome:
    """One record's regression replay result."""

    record_id: int
    dialect: str             # the dialect replayed against
    statement: str
    expected: str            # crash | divergence | error
    observed: str            # e.g. "crash:NPD", "divergence:value", "ok"
    fires: bool
    flipped: bool            # status changed vs. the record's last_status

    def to_dict(self) -> Dict[str, Any]:
        return {
            "record_id": self.record_id,
            "dialect": self.dialect,
            "statement": self.statement,
            "expected": self.expected,
            "observed": self.observed,
            "fires": self.fires,
            "flipped": self.flipped,
        }


@dataclass
class ReplayReport:
    """Summary of one replay job."""

    dialect: str
    outcomes: List[ReplayOutcome] = field(default_factory=list)

    @property
    def replayed(self) -> int:
        return len(self.outcomes)

    @property
    def still_firing(self) -> int:
        return sum(1 for o in self.outcomes if o.fires)

    @property
    def flips(self) -> List[ReplayOutcome]:
        return [o for o in self.outcomes if o.flipped]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "dialect": self.dialect,
            "replayed": self.replayed,
            "still_firing": self.still_firing,
            "flipped": len(self.flips),
            "flips": [o.to_dict() for o in self.flips],
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class BugRepository:
    """Sqlite-backed cross-campaign bug store with dedup and replay."""

    #: the storage subsystem's name (health, fault sites, crash points)
    SUBSYSTEM = "bugrepo"
    #: what :func:`~repro.service.storage.open_or_salvage` copies out of
    #: a quarantined repository
    SALVAGE_QUERY = "SELECT * FROM bugs ORDER BY id"

    def __init__(
        self,
        path: str,
        minimize: bool = True,
        minimize_attempts: int = DEFAULT_MINIMIZE_ATTEMPTS,
        chaos: Optional[StorageFaultInjector] = None,
    ) -> None:
        self.path = path
        self.minimize = minimize
        self.minimize_attempts = minimize_attempts
        #: canonical statements already minimized in this process, keyed
        #: by every input of the minimization (see ``_canonicalize``)
        self._canonical: Dict[Tuple[str, str, str, str, int], str] = {}
        self.storage = SqliteStorage(self.SUBSYSTEM, path, chaos=chaos)
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        failure = self.storage.integrity_failure()
        if failure is not None:
            self.storage.health.degrade(
                f"bugrepo failed integrity check: {failure}",
                needs_rebuild=True,
            )
            raise CorruptionDetected(
                "bugrepo",
                f"bug repository {path!r} failed integrity check: {failure}",
            )
        with self.storage.write("setup") as db:
            db.executescript(_SCHEMA)

    # ------------------------------------------------------------------
    def probe(self) -> bool:
        """Try a real write; clears degraded health on success."""
        return self.storage.probe()

    def integrity_failure(self) -> Optional[str]:
        return self.storage.integrity_failure()

    def salvage(self, row: Dict[str, Any]) -> None:
        """Copy one record out of a quarantined database.

        A row whose JSON columns no longer parse (the page it lived on
        was damaged) raises ``ValueError`` and is skipped by
        :func:`~repro.service.storage.open_or_salvage`.  Replay history
        is not salvaged (it is derived data; the records themselves are
        the asset) — the repository's documented data-loss bound under
        corruption.
        """
        for column in ("kinds", "labels", "campaigns"):
            json.loads(row[column])
        columns = sorted(row)
        with self.storage.write("rebuild") as db:
            db.execute(
                f"INSERT INTO bugs ({', '.join(columns)}) "
                f"VALUES ({', '.join('?' for _ in columns)})",
                [row[c] for c in columns],
            )

    def merge_duplicates(
        self, dialect: str, function: str, statement: str
    ) -> int:
        """Fold every record sharing one dedup key onto the lowest id.

        The UNIQUE constraint keeps this from happening in healthy
        operation; the auditor calls it when a repository without the
        constraint holds duplicates.  Returns how many were folded in.
        """
        with self.storage.write("rebuild") as db:
            rows = db.execute(
                "SELECT * FROM bugs WHERE dialect=? AND function=? AND"
                " statement=? ORDER BY id",
                (dialect, function, statement),
            ).fetchall()
            for dup in rows[1:]:
                db.execute("DELETE FROM bugs WHERE id=?", (dup["id"],))
            _fold(db, rows[0], [
                {
                    "kinds": json.loads(dup["kinds"]),
                    "labels": json.loads(dup["labels"]),
                    "campaigns": json.loads(dup["campaigns"]),
                    "occurrences": dup["occurrences"],
                    "peer": dup["peer"],
                }
                for dup in rows[1:]
            ])
        return len(rows) - 1

    @staticmethod
    def _row_to_record(row: sqlite3.Row) -> BugRecord:
        return BugRecord(
            record_id=row["id"],
            dialect=row["dialect"],
            function=row["function"],
            statement=row["statement"],
            kinds=json.loads(row["kinds"]),
            labels=json.loads(row["labels"]),
            pattern=row["pattern"],
            peer=row["peer"],
            message=row["message"],
            raw_sql=row["raw_sql"],
            triage=row["triage"],
            last_status=row["last_status"],
            occurrences=row["occurrences"],
            campaigns=json.loads(row["campaigns"]),
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def record_finding(
        self,
        finding: Any,
        campaign_id: str = "",
        minimize: Optional[bool] = None,
    ) -> Tuple[int, bool]:
        """Fold one oracle finding into the repository.

        *finding* is any :class:`~repro.core.oracles.base.Finding`
        (``DiscoveredBug``, ``DivergenceFinding``, ``ConformanceFinding``)
        or an equivalent plain dict.  Returns ``(record_id, created)`` —
        ``created`` is False when the finding deduplicated onto an
        existing record.
        """
        record_id, created, _ = self._ingest(finding, campaign_id, minimize)
        return record_id, created

    def _ingest(
        self, finding: Any, campaign_id: str, minimize: Optional[bool]
    ) -> Tuple[int, bool, bool]:
        """:meth:`record_finding`, plus whether the minimizer ran."""
        info = _finding_info(finding)
        do_minimize = self.minimize if minimize is None else minimize
        statement, minimized = self._canonicalize(info, do_minimize)
        now = time.time()
        with self.storage.write("ingest") as db:
            row = db.execute(
                "SELECT * FROM bugs WHERE dialect=? AND function=? AND statement=?",
                (info["dialect"], info["function"], statement),
            ).fetchone()
            if row is None:
                cursor = db.execute(
                    "INSERT INTO bugs (dialect, function, statement, kinds,"
                    " labels, pattern, peer, message, raw_sql, campaigns,"
                    " created_at, updated_at)"
                    " VALUES (?,?,?,?,?,?,?,?,?,?,?,?)",
                    (
                        info["dialect"], info["function"], statement,
                        json.dumps([info["kind"]]), json.dumps([info["label"]]),
                        info["pattern"], info["peer"], info["message"],
                        info["sql"],
                        json.dumps([campaign_id] if campaign_id else []),
                        now, now,
                    ),
                )
                return int(cursor.lastrowid), True, minimized
            _fold(db, row, [{
                "kinds": [info["kind"]],
                "labels": [info["label"]],
                "campaigns": [campaign_id] if campaign_id else [],
                "occurrences": 1,
                "peer": info["peer"],
            }], now)
            return int(row["id"]), False, minimized

    def record_result(
        self,
        result: Any,
        campaign_id: str = "",
        minimize: Optional[bool] = None,
    ) -> Dict[str, int]:
        """Fold a whole :class:`CampaignResult` (bugs + findings) in.

        ``minimized`` counts the findings that ran the minimizer (the
        rest were stored raw or reused a memoized canonical statement).
        """
        new = 0
        duplicates = 0
        minimized = 0
        for finding in list(result.bugs) + list(result.findings):
            _, created, ran = self._ingest(finding, campaign_id, minimize)
            if created:
                new += 1
            else:
                duplicates += 1
            minimized += ran
        return {
            "new_records": new, "duplicates": duplicates,
            "minimized": minimized,
        }

    def _canonicalize(
        self, info: Dict[str, str], do_minimize: bool
    ) -> Tuple[str, bool]:
        """Minimize the trigger with the oracle-appropriate probe.

        Returns the canonical statement and whether the minimizer ran.
        A trigger this repository already minimized under the same
        ``(dialect, kind, peer, sql, minimize_attempts)`` reuses its
        memoized statement without building a probe.  Threads share the
        memo without a lock: two that miss on one key both minimize it
        and store the same statement.
        """
        sql = info["sql"]
        if do_minimize:
            key = (
                info["dialect"], info["kind"], info["peer"], sql,
                self.minimize_attempts,
            )
            memo = self._canonical.get(key)
            if memo is not None:
                return memo, False
            probe = None
            try:
                if info["kind"] == "crash":
                    probe = CrashProbe(dialect_by_name(info["dialect"]))
                elif info["kind"] == "divergence" and info["peer"]:
                    subject = dialect_by_name(info["dialect"])
                    subject.install_logic_flaws()
                    probe = DivergenceProbe(
                        subject, dialect_by_name(info["peer"])
                    )
                elif info["kind"] in ("tlp", "norec"):
                    subject = dialect_by_name(info["dialect"])
                    subject.install_logic_flaws(
                        predicate_kinds=(info["kind"],)
                    )
                    probe = MetamorphicProbe(subject, info["kind"])
            except KeyError:
                probe = None  # unknown dialect: store the raw statement
            if probe is not None:
                try:
                    sql = minimize_poc(
                        probe.dialect, info["sql"],
                        max_attempts=self.minimize_attempts, probe=probe,
                    ).minimized
                except (ValueError, RecursionError):
                    # the finding no longer reproduces on a fresh server
                    # (flaky, or context-dependent); keep the raw statement
                    sql = info["sql"]
                statement = canonical_statement(sql)
                self._canonical[key] = statement
                return statement, True
        return canonical_statement(sql), False

    # ------------------------------------------------------------------
    # browse / triage
    # ------------------------------------------------------------------
    def get(self, record_id: int) -> Optional[BugRecord]:
        with self.storage.read("browse") as db:
            row = db.execute(
                "SELECT * FROM bugs WHERE id=?", (record_id,)
            ).fetchone()
        return self._row_to_record(row) if row is not None else None

    def list(
        self,
        dialect: Optional[str] = None,
        triage: Optional[str] = None,
    ) -> List[BugRecord]:
        query = "SELECT * FROM bugs"
        clauses: List[str] = []
        params: List[Any] = []
        if dialect:
            clauses.append("dialect=?")
            params.append(dialect)
        if triage:
            clauses.append("triage=?")
            params.append(triage)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        with self.storage.read("browse") as db:
            rows = db.execute(query, params).fetchall()
        return [self._row_to_record(row) for row in rows]

    def count(self) -> int:
        with self.storage.read("browse") as db:
            (n,) = db.execute("SELECT COUNT(*) FROM bugs").fetchone()
        return int(n)

    def set_triage(self, record_id: int, status: str) -> BugRecord:
        if status not in TRIAGE_STATES:
            raise ValueError(
                f"unknown triage status {status!r} "
                f"(known: {', '.join(TRIAGE_STATES)})"
            )
        with self.storage.write("triage") as db:
            cursor = db.execute(
                "UPDATE bugs SET triage=?, updated_at=? WHERE id=?",
                (status, time.time(), record_id),
            )
            if cursor.rowcount == 0:
                raise KeyError(f"no bug record with id {record_id}")
        record = self.get(record_id)
        assert record is not None
        return record

    def replay_history(self, record_id: int) -> List[Dict[str, Any]]:
        with self.storage.read("browse") as db:
            rows = db.execute(
                "SELECT * FROM replays WHERE bug_id=? ORDER BY id",
                (record_id,),
            ).fetchall()
        return [dict(row) for row in rows]

    # ------------------------------------------------------------------
    # regression replay
    # ------------------------------------------------------------------
    def replay(
        self,
        dialect: Optional[str] = None,
        target: Optional[str] = None,
        record_ids: Optional[Sequence[int]] = None,
        job_id: str = "",
    ) -> ReplayReport:
        """Re-execute stored triggers and report status flips.

        *dialect* filters which records replay (default: all); *target*
        re-targets execution onto another dialect (default: each record's
        own).  Replaying a record against its own dialect updates its
        ``last_status``; re-targeted replays never mutate the record.
        """
        if target is not None and target not in dialect_names():
            raise ValueError(f"unknown replay target dialect {target!r}")
        records = self.list(dialect=dialect)
        if record_ids is not None:
            wanted = set(int(i) for i in record_ids)
            records = [r for r in records if r.record_id in wanted]
        report = ReplayReport(dialect=target or dialect or "*")
        now = time.time()
        for record in records:
            target_name = target or record.dialect
            observed = _observe_trigger(record, target_name)
            fires = observed.split(":", 1)[0] == record.expected_signal
            own_dialect = target_name == record.dialect
            previously_fired = record.last_status == "fires"
            flipped = own_dialect and (fires != previously_fired)
            outcome = ReplayOutcome(
                record_id=record.record_id,
                dialect=target_name,
                statement=record.statement,
                expected=record.expected_signal,
                observed=observed,
                fires=fires,
                flipped=flipped,
            )
            report.outcomes.append(outcome)
            with self.storage.write("replay") as db:
                db.execute(
                    "INSERT INTO replays (bug_id, dialect, observed, fires,"
                    " flipped, job_id, created_at) VALUES (?,?,?,?,?,?,?)",
                    (
                        record.record_id, target_name, observed,
                        int(fires), int(flipped), job_id, now,
                    ),
                )
                if own_dialect:
                    db.execute(
                        "UPDATE bugs SET last_status=?, updated_at=? WHERE id=?",
                        (
                            "fires" if fires else "quiet",
                            now, record.record_id,
                        ),
                    )
        return report


def _fold(
    db: sqlite3.Connection,
    record: sqlite3.Row,
    others: Sequence[Dict[str, Any]],
    now: Optional[float] = None,
) -> None:
    """Fold *others* into *record*: the one record merge.

    Each of *others* (an ingested finding or a duplicate record) brings
    ``kinds``, ``labels`` and ``campaigns`` lists, which are unioned into
    the record's in first-seen order, ``occurrences``, which are added,
    and a ``peer``, which fills the record's only while it has none.
    """
    kinds = json.loads(record["kinds"])
    labels = json.loads(record["labels"])
    campaigns = json.loads(record["campaigns"])
    occurrences = record["occurrences"]
    peer = record["peer"]
    for other in others:
        for merged, items in (
            (kinds, other["kinds"]),
            (labels, other["labels"]),
            (campaigns, other["campaigns"]),
        ):
            for item in items:
                if item not in merged:
                    merged.append(item)
        occurrences += other["occurrences"]
        peer = peer or other["peer"]
    db.execute(
        "UPDATE bugs SET kinds=?, labels=?, campaigns=?, occurrences=?,"
        " peer=?, updated_at=? WHERE id=?",
        (
            json.dumps(kinds), json.dumps(labels), json.dumps(campaigns),
            occurrences, peer, time.time() if now is None else now,
            record["id"],
        ),
    )


# ---------------------------------------------------------------------------
# finding extraction / replay execution helpers
# ---------------------------------------------------------------------------
def _finding_info(finding: Any) -> Dict[str, str]:
    """Normalize a Finding (or plain dict) into the ingest fields."""
    data = finding if isinstance(finding, dict) else finding_to_dict(finding)
    return {
        "dialect": str(data.get("dialect") or data.get("dbms") or ""),
        "function": str(data.get("function", "")).lower(),
        "sql": str(data.get("sql", "")),
        "kind": str(data.get("kind", "crash")),
        "label": str(data.get("label") or data.get("bug_type_label") or ""),
        "pattern": str(data.get("pattern", "")),
        "peer": str(data.get("peer", "")),
        "message": str(data.get("message", "")),
    }


def _observe_trigger(record: BugRecord, target_name: str) -> str:
    """Execute a stored trigger against *target_name*; classify the signal.

    Returns ``"crash:<code>"``, ``"divergence:<class>"``, ``"error"``, or
    ``"ok"``.  Non-crash records hunt seeded logic flaws, so the target
    (and divergence peer) dialect gets its logic flaws installed — the
    same world the discovering oracle ran in.
    """
    sql = record.statement + ";"
    dialect = dialect_by_name(target_name)
    signal = record.expected_signal
    if signal != "crash":
        dialect.install_logic_flaws(
            predicate_kinds=(signal,) if signal in ("tlp", "norec") else ()
        )
    if signal == "divergence" and record.peer:
        probe = DivergenceProbe(dialect, dialect_by_name(record.peer))
        divergence = probe.identity(sql)
        if divergence is None:
            return "ok"
        return f"divergence:{divergence}"
    if signal in ("tlp", "norec"):
        meta_probe = MetamorphicProbe(dialect, signal)
        divergence = meta_probe.identity(sql)
        if divergence is None:
            return "ok"
        return f"{signal}:{divergence}"
    connection = dialect.create_server().connect()
    try:
        connection.execute(sql)
        return "ok"
    except SQLError:
        return "error"
    except ServerCrashed as crashed:
        return f"crash:{crashed.crash.code}"
    except RecursionError:
        return "crash:SO"
