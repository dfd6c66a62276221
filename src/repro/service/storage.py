"""The service's sqlite I/O boundary: faults, crash points, health.

Every byte the durable service writes flows through one of two sqlite
databases — the job journal (``jobs.sqlite``) and the bug repository
(``bugs.sqlite``).  PR 7 gave them WAL mode and per-statement commits
but left all failure handling implicit: a locked database surfaced raw
``sqlite3.OperationalError`` to HTTP handlers, ENOSPC killed worker
threads, and nothing noticed a corrupt file until a query happened to
touch a bad page.  This module is the explicit boundary:

* :class:`SqliteStorage` wraps one named database.  All writes go
  through :meth:`SqliteStorage.write`, a transaction context that

  1. draws an injected fault from the chaos injector (when armed),
  2. runs the caller's statements,
  3. passes the ``<db>.<op>.pre_commit`` **crash point**,
  4. commits (retrying ``database is locked`` with bounded jittered
     backoff),
  5. passes the ``<db>.<op>.post_commit`` crash point.

  Any failure — injected or real — rolls the transaction back before
  propagating, so a crash at ``pre_commit`` is exactly sqlite's
  torn-last-transaction semantics: everything since the previous commit
  vanishes atomically, the file stays healthy.

* Errors are **classified**, never leaked raw: persistent lock
  contention and ENOSPC become :class:`StorageUnavailable` (the
  subsystem degrades to read-only until a :meth:`probe` write clears
  it); a malformed database becomes :class:`CorruptionDetected` and
  latches ``needs_rebuild`` (only a quarantine-and-rebuild clears
  *that* — a probe must not un-degrade a corrupt file).

* :class:`StorageHealth` is the per-subsystem state the server's
  ``/health`` endpoint and degraded-mode gate read: ``ok`` vs
  ``degraded``, the reason, and how many writes were dropped while
  degraded (the data-loss bound the README's failure-mode matrix
  documents).

:func:`open_or_salvage` is the one repair path for a corrupt file: the
service's boot and the offline auditor both open each database through
it, which quarantines a file that fails its integrity check and
rebuilds it from whatever rows still read.

:func:`crash_points` enumerates every named crash point so the CI
harness can kill-and-restart the service at each one — the storage
equivalent of the paper's boundary-value sweep.
"""

from __future__ import annotations

import errno
import os
import random
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Tuple

from ..robustness.chaos import StorageFaultInjector

#: steady-state write operations with named crash points, per database
WRITE_OPS = {
    "journal": ("insert", "update"),
    "bugrepo": ("ingest", "replay", "triage"),
}

#: bounded jittered backoff for "database is locked"
DEFAULT_LOCKED_ATTEMPTS = 6
DEFAULT_LOCKED_BACKOFF = 0.01  # seconds, doubled per attempt

#: jitter source for lock backoff (scheduling noise only — never part of
#: any campaign's deterministic state)
_jitter = random.Random()

_CORRUPT_MARKERS = (
    "malformed", "not a database", "database disk image",
)
_FULL_MARKERS = ("disk is full", "disk i/o error", "no space left")


def crash_points() -> Tuple[str, ...]:
    """Every named crash point, ``<db>.<op>.<pre_commit|post_commit>``."""
    return tuple(
        f"{db}.{op}.{edge}"
        for db in sorted(WRITE_OPS)
        for op in WRITE_OPS[db]
        for edge in ("pre_commit", "post_commit")
    )


class StorageError(Exception):
    """Base class for classified storage-boundary failures."""

    def __init__(self, subsystem: str, message: str) -> None:
        super().__init__(message)
        self.subsystem = subsystem


class StorageUnavailable(StorageError):
    """The database cannot be written right now (contention, ENOSPC)."""


class CorruptionDetected(StorageError):
    """The database file is damaged; it needs quarantine and rebuild."""


def _is_locked(exc: BaseException) -> bool:
    return isinstance(exc, sqlite3.OperationalError) and "locked" in str(exc).lower()


def _is_corrupt(exc: BaseException) -> bool:
    if not isinstance(exc, sqlite3.DatabaseError):
        return False
    message = str(exc).lower()
    return any(marker in message for marker in _CORRUPT_MARKERS)


def _is_full(exc: BaseException) -> bool:
    if isinstance(exc, OSError) and exc.errno is not None:
        return exc.errno == errno.ENOSPC
    if isinstance(exc, sqlite3.Error):
        message = str(exc).lower()
        return any(marker in message for marker in _FULL_MARKERS)
    return False


class StorageHealth:
    """One subsystem's writability state, shared across threads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.state = "ok"
        self.reason = ""
        self.needs_rebuild = False
        self.degraded_since = 0.0
        self.lost_writes = 0
        self.recoveries = 0

    @property
    def ok(self) -> bool:
        with self._lock:
            return self.state == "ok"

    def degrade(self, reason: str, needs_rebuild: bool = False) -> None:
        with self._lock:
            if self.state != "degraded":
                self.state = "degraded"
                self.degraded_since = time.time()
            self.reason = reason
            # corruption latches: a later transient fault must not let a
            # probe un-degrade a file that still needs rebuilding
            self.needs_rebuild = self.needs_rebuild or needs_rebuild

    def recover(self) -> None:
        with self._lock:
            self.state = "ok"
            self.reason = ""
            self.needs_rebuild = False
            self.degraded_since = 0.0
            self.recoveries += 1

    def note_lost_write(self) -> None:
        with self._lock:
            self.lost_writes += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "state": self.state,
                "reason": self.reason,
                "needs_rebuild": self.needs_rebuild,
                "degraded_since": self.degraded_since or None,
                "lost_writes": self.lost_writes,
                "recoveries": self.recoveries,
            }


def open_database(
    path: str,
    timeout: float = 30.0,
    check_same_thread: bool = True,
    locked_attempts: int = DEFAULT_LOCKED_ATTEMPTS,
    locked_backoff: float = DEFAULT_LOCKED_BACKOFF,
) -> sqlite3.Connection:
    """Open a service sqlite database with the shared pragma set.

    File-backed databases get WAL journaling (concurrent readers, crash
    safety) and ``NORMAL`` synchronous mode (fsync at WAL checkpoints —
    a power loss can drop the last transactions but never corrupt).
    ``:memory:`` databases skip the pragmas (WAL is meaningless there).

    ``database is locked`` during open (another process holds the WAL
    write lock through our ``busy_timeout``) is retried with bounded
    jittered exponential backoff before surfacing — the contention fix
    this PR's regression test pins down.
    """
    if path != ":memory:":
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
    last_error: Optional[BaseException] = None
    for attempt in range(max(1, locked_attempts)):
        db = None
        try:
            db = sqlite3.connect(
                path, timeout=timeout, check_same_thread=check_same_thread
            )
            db.row_factory = sqlite3.Row
            if path != ":memory:":
                db.execute("PRAGMA journal_mode=WAL")
                db.execute("PRAGMA synchronous=NORMAL")
            return db
        except sqlite3.OperationalError as exc:
            if db is not None:
                try:
                    db.close()
                except sqlite3.Error:
                    pass
            if not _is_locked(exc):
                raise
            last_error = exc
            time.sleep(_backoff_delay(locked_backoff, attempt))
    assert last_error is not None
    raise last_error


def _backoff_delay(base: float, attempt: int) -> float:
    """Exponential backoff with ±50% jitter (decorrelates contenders)."""
    return base * (2 ** attempt) * (0.5 + _jitter.random())


class SqliteStorage:
    """One named sqlite database behind the fault/health boundary.

    *name* keys the chaos injector's fault sites and crash points
    (``journal`` / ``bugrepo``); *chaos* is an optional shared
    :class:`~repro.robustness.chaos.StorageFaultInjector`.  With
    ``chaos=None`` every hook is a no-op — the boundary's steady-state
    cost is one method call and one ``try`` per transaction, which
    ``benchmarks/bench_chaos_overhead.py`` holds under 3%.
    """

    def __init__(
        self,
        name: str,
        path: str,
        chaos: Optional[StorageFaultInjector] = None,
        locked_attempts: int = DEFAULT_LOCKED_ATTEMPTS,
        locked_backoff: float = DEFAULT_LOCKED_BACKOFF,
    ) -> None:
        self.name = name
        self.path = path
        self.chaos = chaos
        self.locked_attempts = max(1, locked_attempts)
        self.locked_backoff = locked_backoff
        self.health = StorageHealth(name)

    # -- connections ----------------------------------------------------
    def open(
        self, timeout: float = 30.0, check_same_thread: bool = True
    ) -> sqlite3.Connection:
        try:
            return open_database(
                self.path,
                timeout=timeout,
                check_same_thread=check_same_thread,
                locked_attempts=self.locked_attempts,
                locked_backoff=self.locked_backoff,
            )
        except sqlite3.Error as exc:
            raise self._classify(exc, "open") from exc

    # -- the write boundary ---------------------------------------------
    @contextmanager
    def write(
        self, op: str, db: Optional[sqlite3.Connection] = None
    ) -> Iterator[sqlite3.Connection]:
        """One write transaction with fault sites and crash points.

        Yields a connection (the caller's *db*, or a fresh per-operation
        one that is closed afterwards).  On **any** exception — injected
        fault, real sqlite error, or an armed :class:`SimulatedCrash` —
        the open transaction is rolled back before the exception
        propagates, which makes an in-process simulated crash
        byte-equivalent to a real kill: the torn transaction vanishes,
        the file stays consistent.
        """
        owns = db is None
        if owns:
            db = self.open()
        assert db is not None
        try:
            self._fault_site(op)
            try:
                yield db
            except sqlite3.Error as exc:
                raise self._classify(exc, op) from exc
            self._crash_point(f"{op}.pre_commit")
            self._commit(db, op)
            self._crash_point(f"{op}.post_commit")
        except BaseException:
            _rollback_quietly(db)
            raise
        finally:
            if owns:
                _close_quietly(db)

    @contextmanager
    def read(
        self, op: str, db: Optional[sqlite3.Connection] = None
    ) -> Iterator[sqlite3.Connection]:
        """One read operation (no transaction, no crash points)."""
        owns = db is None
        if owns:
            db = self.open()
        assert db is not None
        try:
            self._fault_site(op, write=False)
            try:
                yield db
            except sqlite3.Error as exc:
                raise self._classify(exc, op) from exc
        finally:
            if owns:
                _close_quietly(db)

    # -- fault plumbing -------------------------------------------------
    def _fault_site(self, op: str, write: bool = True) -> None:
        """Draw injected faults for ``<name>.<op>``, absorbing ``locked``
        with the same bounded retry real contention gets."""
        if self.chaos is None:
            return
        site = f"{self.name}.{op}"
        for attempt in range(self.locked_attempts):
            try:
                self.chaos.on_op(site, write=write)
                return
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == self.locked_attempts - 1:
                    raise self._classify(exc, op) from exc
                time.sleep(_backoff_delay(self.locked_backoff, attempt))
            except (OSError, sqlite3.Error) as exc:
                raise self._classify(exc, op) from exc

    def _crash_point(self, point: str) -> None:
        if self.chaos is not None:
            self.chaos.on_crash_point(f"{self.name}.{point}")

    def _commit(self, db: sqlite3.Connection, op: str) -> None:
        for attempt in range(self.locked_attempts):
            try:
                db.commit()
                return
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == self.locked_attempts - 1:
                    raise self._classify(exc, op) from exc
                time.sleep(_backoff_delay(self.locked_backoff, attempt))
            except sqlite3.Error as exc:
                raise self._classify(exc, op) from exc

    def _classify(self, exc: BaseException, op: str) -> StorageError:
        """Map a raw failure onto the boundary's error taxonomy,
        degrading the subsystem's health on the way."""
        if _is_corrupt(exc):
            self.health.degrade(
                f"{self.name} database is corrupt: {exc}", needs_rebuild=True
            )
            return CorruptionDetected(self.name, f"{self.name}.{op}: {exc}")
        if _is_full(exc):
            self.health.degrade(f"{self.name} write failed: {exc}")
            return StorageUnavailable(self.name, f"{self.name}.{op}: {exc}")
        if _is_locked(exc):
            self.health.degrade(
                f"{self.name} lock contention persisted past "
                f"{self.locked_attempts} attempts"
            )
            return StorageUnavailable(self.name, f"{self.name}.{op}: {exc}")
        if isinstance(exc, StorageError):
            return exc
        # anything else is a programming error — let it surface raw
        raise exc

    # -- health probes / corruption handling ----------------------------
    def probe(self, db: Optional[sqlite3.Connection] = None) -> bool:
        """A cheap real write proving the subsystem is writable again.

        Returns ``True`` (and clears degraded health) on success.  A
        subsystem latched ``needs_rebuild`` never probes healthy — only
        :meth:`quarantine` plus a rebuild may clear corruption.
        """
        if self.health.snapshot()["needs_rebuild"]:
            return False
        try:
            with self.write("probe", db=db) as conn:
                (version,) = conn.execute("PRAGMA user_version").fetchone()
                conn.execute(f"PRAGMA user_version = {int(version)}")
        except StorageError:
            return False
        self.health.recover()
        return True

    def integrity_failure(
        self, db: Optional[sqlite3.Connection] = None
    ) -> Optional[str]:
        """``PRAGMA integrity_check``; ``None`` when healthy, else detail."""
        if self.chaos is not None and self.chaos.is_corrupted(self.name):
            return "injected corruption latch"
        if self.path == ":memory:" and db is None:
            return None
        owns = db is None
        try:
            if owns:
                db = sqlite3.connect(self.path)
            assert db is not None
            row = db.execute("PRAGMA integrity_check").fetchone()
            verdict = str(row[0])
            return None if verdict == "ok" else verdict
        except sqlite3.Error as exc:
            return str(exc)
        finally:
            if owns and db is not None:
                _close_quietly(db)

    def quarantine(self) -> str:
        """Move the damaged database aside as ``<path>.corrupt-<n>``.

        The WAL/SHM sidecars move with it (replaying a stale WAL against
        a fresh database would be its own corruption).  Clears any
        injected corruption latch — the bad file is gone — and returns
        the quarantine path.  The caller rebuilds a fresh database and
        then marks health recovered.
        """
        n = 1
        while os.path.exists(f"{self.path}.corrupt-{n}"):
            n += 1
        dest = f"{self.path}.corrupt-{n}"
        if os.path.exists(self.path):
            os.replace(self.path, dest)
        for suffix in ("-wal", "-shm"):
            if os.path.exists(self.path + suffix):
                os.replace(self.path + suffix, dest + suffix)
        if self.chaos is not None:
            self.chaos.clear_corruption(self.name)
        return dest


@dataclass
class Salvage:
    """What :func:`open_or_salvage` found wrong with a database file."""

    failure: str          # why the file was refused
    quarantined: str = ""  # where it was moved ("" when left in place)
    salvaged: int = 0      # rows copied into the rebuilt file


def open_or_salvage(
    cls: Any,
    path: str,
    chaos: Optional[StorageFaultInjector] = None,
    repair: bool = True,
    **kwargs: Any,
) -> Tuple[Any, Optional[Salvage]]:
    """Open a service database, quarantining and rebuilding a corrupt one.

    The one repair path for both databases, used by the service's boot
    and by the offline auditor.  *cls* is
    :class:`~repro.service.journal.JobJournal` or
    :class:`~repro.service.bugrepo.BugRepository`: its constructor
    checks the file's integrity (the one check per open) and raises
    :class:`CorruptionDetected` when it fails.  With *repair* the file
    is then moved aside (:meth:`SqliteStorage.quarantine`), *cls* opens
    a fresh one, and ``cls.salvage(row)`` copies every row of
    ``cls.SALVAGE_QUERY`` the quarantined file still yields; rows on
    damaged pages are skipped.  Returns ``(database, salvage)``:
    *salvage* is ``None`` for a healthy file, and *database* is ``None``
    for a corrupt one left in place because *repair* is off.
    """
    try:
        return cls(path, chaos=chaos, **kwargs), None
    except CorruptionDetected as exc:
        salvage = Salvage(str(exc))
    if not repair:
        return None, salvage
    salvage.quarantined = SqliteStorage(
        cls.SUBSYSTEM, path, chaos=chaos
    ).quarantine()
    database = cls(path, chaos=chaos, **kwargs)
    try:
        old = sqlite3.connect(salvage.quarantined)
        old.row_factory = sqlite3.Row
        try:
            rows = old.execute(cls.SALVAGE_QUERY).fetchall()
        finally:
            old.close()
    except sqlite3.Error:
        rows = []
    for row in rows:
        try:
            database.salvage(dict(row))
        except (StorageError, sqlite3.Error, KeyError, ValueError):
            continue  # the page this row lived on was damaged
        salvage.salvaged += 1
    return database, salvage


def _rollback_quietly(db: sqlite3.Connection) -> None:
    try:
        db.rollback()
    except sqlite3.Error:
        pass


def _close_quietly(db: sqlite3.Connection) -> None:
    try:
        db.close()
    except sqlite3.Error:
        pass


__all__ = [
    "CorruptionDetected",
    "DEFAULT_LOCKED_ATTEMPTS",
    "DEFAULT_LOCKED_BACKOFF",
    "Salvage",
    "SqliteStorage",
    "StorageError",
    "StorageHealth",
    "StorageUnavailable",
    "WRITE_OPS",
    "crash_points",
    "open_database",
    "open_or_salvage",
]
