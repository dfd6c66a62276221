"""The durable job journal (sqlite, WAL): the service's flight recorder.

PR 6's :class:`~repro.service.jobs.JobStore` was an in-memory registry —
a SIGKILL, OOM, or host reboot silently lost every queued and running
campaign, even though the robustness layer already knows how to resume
them from checkpoints.  The journal closes that gap: every job's config,
parameters, state transitions, retry count, lease, and checkpoint path
are written through to a sqlite database in the service data directory
(same file family as ``bugs.sqlite``), so a restarted service can
reconstruct the full job history and re-enqueue interrupted work.

Design notes:

* **One shared connection, one lock.**  The journal is written by worker
  threads and HTTP handler threads of a single service process, so a
  single ``check_same_thread=False`` connection serialized by an
  ``RLock`` is simpler and faster than per-operation connections, and it
  makes ``:memory:`` journals work for tests.  Cross-*process* readers
  (a crashed service's successor) only ever see the file after the
  writer died, which WAL + per-statement commits make safe.
* **WAL mode** on file-backed journals: readers never block the writer,
  and a kill between ``fsync``\\ s can lose at most the tail transition,
  never corrupt the file (sqlite's crash-safety contract).
* **Append-only transition log.**  Besides the current-row ``jobs``
  table there is a ``transitions`` audit table recording every state
  change with a timestamp and detail string — the raw material for
  post-mortems ("how often did this job retry, and why").
* **The storage boundary.**  All I/O routes through
  :class:`~repro.service.storage.SqliteStorage` (``name="journal"``):
  writes pass named crash points for the chaos harness, ``database is
  locked`` gets bounded jittered retry, and classified failures
  (:class:`~repro.service.storage.StorageUnavailable`,
  :class:`~repro.service.storage.CorruptionDetected`) **degrade** the
  journal instead of crashing the worker thread that hit them: the
  in-memory store stays the source of truth, dropped writes are counted
  (``lost_writes`` in ``/health``), and :meth:`JobJournal.resync`
  repairs the file from memory once a probe write succeeds.

A journal that fails its integrity check when opened is quarantined and
rebuilt by :func:`~repro.service.storage.open_or_salvage`, which
re-inserts each readable job row through :meth:`JobJournal.salvage`.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Dict, List, Optional, Set

from ..robustness.chaos import StorageFaultInjector
from .storage import CorruptionDetected, SqliteStorage, StorageError

__all__ = ["JOURNAL_VERSION", "JobJournal", "JournalError"]

#: bump when the journal layout changes incompatibly
JOURNAL_VERSION = 1


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id          TEXT PRIMARY KEY,
    seq             INTEGER NOT NULL,
    kind            TEXT NOT NULL,
    config          TEXT,
    params          TEXT NOT NULL DEFAULT '{}',
    submitter       TEXT NOT NULL DEFAULT '',
    priority        INTEGER NOT NULL DEFAULT 0,
    state           TEXT NOT NULL,
    error           TEXT NOT NULL DEFAULT '',
    retries         INTEGER NOT NULL DEFAULT 0,
    max_retries     INTEGER NOT NULL DEFAULT 2,
    next_attempt_at REAL NOT NULL DEFAULT 0,
    checkpoint_path TEXT NOT NULL DEFAULT '',
    lease_owner     TEXT NOT NULL DEFAULT '',
    lease_seq       INTEGER NOT NULL DEFAULT 0,
    lease_expires   REAL NOT NULL DEFAULT 0,
    created_at      REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    summary         TEXT NOT NULL DEFAULT '{}',
    ingest          TEXT NOT NULL DEFAULT '{}',
    findings_total  INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs (state, priority, seq);
CREATE TABLE IF NOT EXISTS transitions (
    id     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id TEXT NOT NULL,
    state  TEXT NOT NULL,
    detail TEXT NOT NULL DEFAULT '',
    at     REAL NOT NULL
);
"""


class JournalError(Exception):
    """The journal is unreadable or from an incompatible version."""


class JobJournal:
    """Write-through persistence for the job store.

    Every mutation the :class:`~repro.service.jobs.JobStore` makes to a
    job is mirrored here synchronously (one UPDATE + optional audit
    INSERT per transition — cheap next to running a campaign).  On
    startup the store calls :meth:`load_rows` to rebuild its registry
    and :meth:`max_seq` to continue the job-id sequence.

    Classified storage failures on the write path are **absorbed**: the
    write is dropped, counted against the subsystem's health, and the
    journal waits for :meth:`resync` — a service whose disk fills up
    keeps scheduling from memory rather than dying mid-campaign.
    Corruption detected at construction raises
    :class:`~repro.service.storage.CorruptionDetected` so the caller can
    quarantine and rebuild.
    """

    #: the storage subsystem's name (health, fault sites, crash points)
    SUBSYSTEM = "journal"
    #: what :func:`~repro.service.storage.open_or_salvage` copies out of
    #: a quarantined journal
    SALVAGE_QUERY = "SELECT * FROM jobs ORDER BY seq"

    def __init__(
        self,
        path: str,
        chaos: Optional[StorageFaultInjector] = None,
    ) -> None:
        self.path = path
        self.storage = SqliteStorage(self.SUBSYSTEM, path, chaos=chaos)
        self._lock = threading.RLock()
        self._db: Optional[sqlite3.Connection] = self.storage.open(
            check_same_thread=False
        )
        #: jobs whose journal record lost a write since the last resync
        self._unsynced: Set[str] = set()
        with self._lock:
            failure = self.storage.integrity_failure(self._db)
            if failure is not None:
                self.storage.health.degrade(
                    f"journal failed integrity check: {failure}",
                    needs_rebuild=True,
                )
                self.abandon()
                raise CorruptionDetected(
                    "journal", f"journal {path!r} failed integrity "
                    f"check: {failure}"
                )
            with self.storage.write("setup", db=self._db) as db:
                db.executescript(_SCHEMA)
                row = db.execute(
                    "SELECT value FROM meta WHERE key='version'"
                ).fetchone()
                if row is None:
                    db.execute(
                        "INSERT INTO meta (key, value) VALUES ('version', ?)",
                        (str(JOURNAL_VERSION),),
                    )
                elif int(row["value"]) != JOURNAL_VERSION:
                    raise JournalError(
                        f"job journal {path!r} has version {row['value']}, "
                        f"expected {JOURNAL_VERSION}"
                    )

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._db is not None:
                try:
                    self._db.commit()
                except sqlite3.Error:
                    pass  # a degraded journal still closes cleanly
                self._db.close()
                self._db = None

    def abandon(self) -> None:
        """Drop the connection without committing (simulated death).

        Test/teardown hook: after an in-process
        :class:`~repro.robustness.chaos.SimulatedCrash` the old
        incarnation must not flush a torn transaction on close — this is
        the ``close()`` a SIGKILLed process never runs.
        """
        with self._lock:
            if self._db is not None:
                try:
                    self._db.rollback()
                    self._db.close()
                except sqlite3.Error:
                    pass
                self._db = None

    @property
    def closed(self) -> bool:
        return self._db is None

    # ------------------------------------------------------------------
    def insert(self, row: Dict[str, Any]) -> None:
        """Journal a newly submitted job (full row)."""
        with self._lock:
            if self._db is None:
                return
            try:
                with self.storage.write("insert", db=self._db) as db:
                    columns = sorted(row)
                    db.execute(
                        f"INSERT INTO jobs ({', '.join(columns)}) "
                        f"VALUES ({', '.join('?' for _ in columns)})",
                        [_encode(row[c]) for c in columns],
                    )
                    db.execute(
                        "INSERT INTO transitions (job_id, state, detail, at)"
                        " VALUES (?,?,?,?)",
                        (
                            row["job_id"], row["state"], "submitted",
                            row["created_at"],
                        ),
                    )
            except StorageError:
                self._lose_write(row["job_id"])

    def update(
        self,
        row: Dict[str, Any],
        transition: Optional[str] = None,
        at: float = 0.0,
    ) -> None:
        """Write a job's current row back; optionally audit a transition.

        The first write that succeeds for a job which lost one since the
        last :meth:`resync` re-syncs that job instead: its journaled row
        may be missing or stale, and journaling *transition* alone could
        open its chain in a non-birth state.
        """
        job_id = row["job_id"]
        with self._lock:
            if self._db is None:
                return
            try:
                with self.storage.write("update", db=self._db) as db:
                    if job_id in self._unsynced:
                        self._resync_row(db, row, at, lost=True)
                    else:
                        self._write_row(db, row, transition, at)
            except StorageError:
                self._lose_write(job_id)
            else:
                self._unsynced.discard(job_id)

    def _lose_write(self, job_id: str) -> None:
        self._unsynced.add(job_id)
        self.storage.health.note_lost_write()

    @staticmethod
    def _write_row(
        db: sqlite3.Connection,
        row: Dict[str, Any],
        transition: Optional[str],
        at: float,
    ) -> None:
        job_id = row["job_id"]
        columns = sorted(c for c in row if c != "job_id")
        db.execute(
            f"UPDATE jobs SET {', '.join(f'{c}=?' for c in columns)}"
            f" WHERE job_id=?",
            [_encode(row[c]) for c in columns] + [job_id],
        )
        if transition is not None:
            db.execute(
                "INSERT INTO transitions (job_id, state, detail, at)"
                " VALUES (?,?,?,?)",
                (job_id, row["state"], transition, at),
            )

    # ------------------------------------------------------------------
    def resync(self, rows: List[Dict[str, Any]], at: float = 0.0) -> int:
        """Force-write the store's current rows after a degraded spell.

        Upserts every row; rows whose journaled state trails their
        in-memory state, and every job that lost a write since the last
        resync, get a ``resynced after degraded storage spell`` transition
        so the audit trail explains the jump (transitions a job made
        between a lost write and the next write of it that lands are lost
        — that is the journal's documented data-loss bound).  Returns the
        row count.
        """
        with self._lock:
            if self._db is None:
                return 0
            with self.storage.write("resync", db=self._db) as db:
                for row in rows:
                    self._resync_row(
                        db, row, at, lost=row["job_id"] in self._unsynced
                    )
            self._unsynced.clear()
            return len(rows)

    @staticmethod
    def _resync_row(
        db: sqlite3.Connection, row: Dict[str, Any], at: float, lost: bool
    ) -> None:
        """Upsert *row*; audit a ``resynced`` transition when the job
        *lost* a write or its journaled state trails *row*'s."""
        columns = sorted(row)
        db.execute(
            f"INSERT OR REPLACE INTO jobs ({', '.join(columns)}) "
            f"VALUES ({', '.join('?' for _ in columns)})",
            [_encode(row[c]) for c in columns],
        )
        last = db.execute(
            "SELECT state FROM transitions WHERE job_id=?"
            " ORDER BY id DESC LIMIT 1",
            (row["job_id"],),
        ).fetchone()
        if lost or last is None or last["state"] != row["state"]:
            db.execute(
                "INSERT INTO transitions (job_id, state, detail, at)"
                " VALUES (?,?,?,?)",
                (
                    row["job_id"], row["state"],
                    "resynced after degraded storage spell", at,
                ),
            )

    def probe(self) -> bool:
        """Try a real write; clears degraded health on success."""
        with self._lock:
            if self._db is None:
                return False
            return self.storage.probe(db=self._db)

    def salvage(self, row: Dict[str, Any]) -> None:
        """Re-insert one job row from a quarantined journal; its history
        restarts with a ``resynced`` transition, which the auditor's
        chain check accepts."""
        self.resync([row])

    # ------------------------------------------------------------------
    def load_rows(self) -> List[Dict[str, Any]]:
        """All journaled jobs in submission order (for startup rebuild)."""
        with self._lock:
            if self._db is None:
                return []
            with self.storage.read("load", db=self._db) as db:
                rows = db.execute("SELECT * FROM jobs ORDER BY seq").fetchall()
        return [dict(row) for row in rows]

    def max_seq(self) -> int:
        with self._lock:
            if self._db is None:
                return 0
            with self.storage.read("load", db=self._db) as db:
                (value,) = db.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM jobs"
                ).fetchone()
        return int(value)

    def transitions(self, job_id: str) -> List[Dict[str, Any]]:
        """The audit trail for one job, oldest first."""
        with self._lock:
            if self._db is None:
                return []
            with self.storage.read("transitions", db=self._db) as db:
                rows = db.execute(
                    "SELECT state, detail, at FROM transitions"
                    " WHERE job_id=? ORDER BY id",
                    (job_id,),
                ).fetchall()
        return [dict(row) for row in rows]


def _encode(value: Any) -> Any:
    """Journal column encoding: dicts/lists become JSON text."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True)
    return value
