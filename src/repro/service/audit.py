"""The service invariant auditor (``repro audit`` + startup hook).

The durable service's correctness rests on invariants: journal states
must form legal transition chains, ``running`` rows must hold live
leases, bug-repository dedup keys must be unique, and checkpoint
sidecars must belong to live jobs.  A crash — real or injected by the
chaos harness — is exactly when those invariants are most at risk, so
the :class:`ServiceAuditor` runs both **offline** (``repro audit
--data-dir``, against a dead service's files) and as a **startup hook**
inside :class:`~repro.service.server.BugService` (after crash recovery,
with ``repair=True``).

Every check yields :class:`AuditFinding` rows.  Violations are either
*repairable* — re-enqueue a stale lease, quarantine-and-rebuild a
corrupt database into ``<name>.corrupt-<n>``, merge duplicate dedup
keys, delete orphaned sidecars — or they **fail loudly**: an illegal
state transition in the audit trail means the journal cannot be trusted
and no automatic repair is attempted (:attr:`AuditReport.ok` goes
``False``).
"""

from __future__ import annotations

import glob
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..robustness.chaos import StorageFaultInjector
from .bugrepo import BugRepository
from .jobs import JobStore, TERMINAL_STATES
from .journal import JobJournal
from .storage import CorruptionDetected, SqliteStorage, StorageError

#: legal (from, to) edges in the job lifecycle, as journaled
LEGAL_EDGES = {
    ("queued", "running"),
    ("queued", "cancelled"),
    ("running", "done"),
    ("running", "failed"),
    ("running", "queued"),
    ("running", "cancelled"),
}

#: states a job may be born in (the "submitted" transition)
BIRTH_STATES = {"queued", "rejected"}

#: transition details that legitimately jump states (degraded-spell
#: resync, post-corruption rebuild) and are exempt from edge validation
_SKIP_DETAIL_PREFIXES = ("resynced", "rebuilt")


@dataclass
class AuditFinding:
    """One invariant violation (or repair record)."""

    check: str           # e.g. "journal.transitions"
    severity: str        # "error" | "warning"
    subject: str         # job id / record id / file path
    detail: str
    repaired: bool = False
    repair: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "severity": self.severity,
            "subject": self.subject,
            "detail": self.detail,
            "repaired": self.repaired,
            "repair": self.repair,
        }


@dataclass
class AuditReport:
    """The outcome of one auditor run."""

    checks: List[str] = field(default_factory=list)
    findings: List[AuditFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No unrepaired errors (warnings never fail the audit)."""
        return not any(
            f.severity == "error" and not f.repaired for f in self.findings
        )

    @property
    def errors(self) -> List[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def repaired_count(self) -> int:
        return sum(1 for f in self.findings if f.repaired)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": list(self.checks),
            "errors": sum(1 for f in self.findings if f.severity == "error"),
            "warnings": sum(
                1 for f in self.findings if f.severity == "warning"
            ),
            "repaired": self.repaired_count,
            "findings": [f.to_dict() for f in self.findings],
        }


class ServiceAuditor:
    """Check (and optionally repair) the service's durable invariants.

    Two construction modes:

    * **offline** — ``ServiceAuditor(data_dir=...)`` opens the dead
      service's files itself (``repro audit``);
    * **live** — pass the running service's ``journal``/``repo``/
      ``store`` (the startup hook).  With a live store, lease repair
      delegates to the store's own reclaim machinery so memory and
      journal stay in step.
    """

    def __init__(
        self,
        data_dir: Optional[str] = None,
        journal: Optional[JobJournal] = None,
        repo: Optional[BugRepository] = None,
        store: Optional[JobStore] = None,
        checkpoint_dir: Optional[str] = None,
        chaos: Optional[StorageFaultInjector] = None,
    ) -> None:
        if data_dir is None and journal is None and repo is None:
            raise ValueError(
                "ServiceAuditor needs a data_dir or live journal/repo objects"
            )
        self.data_dir = data_dir
        self.journal = journal
        self.repo = repo
        self.store = store
        self.chaos = chaos
        self._owns_journal = False
        if checkpoint_dir is not None:
            self.checkpoint_dir: Optional[str] = checkpoint_dir
        elif data_dir is not None:
            self.checkpoint_dir = os.path.join(data_dir, "checkpoints")
        elif store is not None:
            self.checkpoint_dir = store.checkpoint_dir
        else:
            self.checkpoint_dir = None

    # ------------------------------------------------------------------
    def run(self, repair: bool = False) -> AuditReport:
        report = AuditReport()
        journal = self._check_journal_integrity(report, repair)
        repo = self._check_bugrepo_integrity(report, repair)
        if journal is not None:
            rows = journal.load_rows()
            self._check_transitions(report, journal, rows)
            self._check_leases(report, repair, journal, rows)
            self._check_orphan_sidecars(report, repair, rows)
            if self._owns_journal:
                journal.close()
        if repo is not None:
            self._check_dedup(report, repair, repo)
        return report

    # -- database integrity ---------------------------------------------
    def _journal_path(self) -> Optional[str]:
        if self.journal is not None:
            return self.journal.path
        if self.data_dir is not None:
            return os.path.join(self.data_dir, "jobs.sqlite")
        return None

    def _check_journal_integrity(
        self, report: AuditReport, repair: bool
    ) -> Optional[JobJournal]:
        path = self._journal_path()
        if path is None:
            return None
        report.checks.append("journal.integrity")
        if self.journal is not None:
            failure = self.journal.integrity_failure()
            if failure is None:
                return self.journal
            # a live journal that went corrupt cannot be rebuilt from
            # here (the service owns the connection); report and let the
            # degraded-mode path drive the rebuild
            report.findings.append(AuditFinding(
                "journal.integrity", "error", path,
                f"journal failed integrity check: {failure}",
            ))
            return None
        if not os.path.exists(path):
            return None  # nothing journaled yet: vacuously consistent
        storage = SqliteStorage("journal", path, chaos=self.chaos)
        failure = storage.integrity_failure()
        if failure is None:
            try:
                journal = JobJournal(path, chaos=self.chaos)
            except (CorruptionDetected, StorageError) as exc:
                failure = str(exc)
            else:
                self._owns_journal = True
                return journal
        finding = AuditFinding(
            "journal.integrity", "error", path,
            f"journal failed integrity check: {failure}",
        )
        report.findings.append(finding)
        if repair:
            quarantined, salvaged = rebuild_journal(path, self.chaos)
            finding.repaired = True
            finding.repair = (
                f"quarantined to {quarantined}; rebuilt with {salvaged} "
                f"salvaged job rows"
            )
            journal = JobJournal(path, chaos=self.chaos)
            self._owns_journal = True
            return journal
        return None

    def _check_bugrepo_integrity(
        self, report: AuditReport, repair: bool
    ) -> Optional[BugRepository]:
        if self.repo is not None:
            repo: Optional[BugRepository] = self.repo
            path = self.repo.path
        elif self.data_dir is not None:
            path = os.path.join(self.data_dir, "bugs.sqlite")
            if not os.path.exists(path):
                return None
            repo = None
        else:
            return None
        report.checks.append("bugrepo.integrity")
        if repo is None:
            try:
                repo = BugRepository(path, minimize=False, chaos=self.chaos)
            except (CorruptionDetected, StorageError) as exc:
                finding = AuditFinding(
                    "bugrepo.integrity", "error", path, str(exc),
                )
                report.findings.append(finding)
                if repair:
                    storage = SqliteStorage("bugrepo", path, chaos=self.chaos)
                    quarantined = storage.quarantine()
                    repo = BugRepository(path, minimize=False, chaos=self.chaos)
                    salvaged = repo.salvage_from(quarantined)
                    finding.repaired = True
                    finding.repair = (
                        f"quarantined to {quarantined}; rebuilt with "
                        f"{salvaged} salvaged records"
                    )
                    return repo
                return None
            return repo
        failure = repo.integrity_failure()
        if failure is None:
            return repo
        finding = AuditFinding(
            "bugrepo.integrity", "error", path,
            f"bug repository failed integrity check: {failure}",
        )
        report.findings.append(finding)
        if repair:
            quarantined, salvaged = repo.quarantine_and_rebuild()
            finding.repaired = True
            finding.repair = (
                f"quarantined to {quarantined}; rebuilt with {salvaged} "
                f"salvaged records"
            )
            return repo
        return None

    # -- journal invariants ---------------------------------------------
    def _check_transitions(
        self,
        report: AuditReport,
        journal: JobJournal,
        rows: List[Dict[str, Any]],
    ) -> None:
        """Transition chains must be legal and agree with the row state."""
        report.checks.append("journal.transitions")
        for row in rows:
            job_id = row["job_id"]
            chain = journal.transitions(job_id)
            if not chain:
                report.findings.append(AuditFinding(
                    "journal.transitions", "error", job_id,
                    "job row has no transition history",
                ))
                continue
            first = chain[0]
            if (
                first["state"] not in BIRTH_STATES
                and not _skips_validation(first["detail"])
            ):
                report.findings.append(AuditFinding(
                    "journal.transitions", "error", job_id,
                    f"job was born in state {first['state']!r} "
                    f"(legal births: {sorted(BIRTH_STATES)})",
                ))
            for prev, entry in zip(chain, chain[1:]):
                if _skips_validation(entry["detail"]):
                    continue
                if prev["state"] == entry["state"]:
                    continue  # re-persist in place (ingest, progress)
                if (prev["state"], entry["state"]) not in LEGAL_EDGES:
                    report.findings.append(AuditFinding(
                        "journal.transitions", "error", job_id,
                        f"illegal transition {prev['state']!r} -> "
                        f"{entry['state']!r} ({entry['detail']!r})",
                    ))
            if chain[-1]["state"] != row["state"]:
                report.findings.append(AuditFinding(
                    "journal.transitions", "error", job_id,
                    f"row state {row['state']!r} disagrees with the last "
                    f"journaled transition {chain[-1]['state']!r}",
                ))

    def _check_leases(
        self,
        report: AuditReport,
        repair: bool,
        journal: JobJournal,
        rows: List[Dict[str, Any]],
    ) -> None:
        """Every ``running`` row must hold a live lease."""
        report.checks.append("journal.leases")
        now = time.time()
        for row in rows:
            if row["state"] != "running":
                continue
            if float(row.get("lease_expires") or 0.0) >= now:
                continue
            finding = AuditFinding(
                "journal.leases", "error", row["job_id"],
                f"running job's lease expired at {row.get('lease_expires')}"
                f" with owner {row.get('lease_owner')!r}",
            )
            report.findings.append(finding)
            if not repair:
                continue
            if self.store is not None:
                reclaimed = self.store.reclaim_expired()
                finding.repaired = row["job_id"] in reclaimed
                finding.repair = "reclaimed via the store"
            else:
                finding.repair = _offline_reclaim(journal, row, now)
                finding.repaired = True

    def _check_orphan_sidecars(
        self,
        report: AuditReport,
        repair: bool,
        rows: List[Dict[str, Any]],
    ) -> None:
        """Checkpoint files must belong to a live (non-terminal) job."""
        directory = self.checkpoint_dir
        if not directory or not os.path.isdir(directory):
            return
        report.checks.append("checkpoints.orphans")
        referenced: Set[str] = set()
        for row in rows:
            if row["state"] in TERMINAL_STATES:
                continue
            if row.get("checkpoint_path"):
                referenced.add(os.path.abspath(row["checkpoint_path"]))
        for entry in sorted(glob.glob(os.path.join(directory, "*"))):
            path = os.path.abspath(entry)
            if any(
                path == ref or path.startswith(ref + ".")
                for ref in referenced
            ):
                continue
            finding = AuditFinding(
                "checkpoints.orphans", "warning", entry,
                "checkpoint sidecar belongs to no live job",
            )
            report.findings.append(finding)
            if repair:
                try:
                    os.remove(entry)
                    finding.repaired = True
                    finding.repair = "deleted"
                except OSError as exc:
                    finding.repair = f"delete failed: {exc}"

    # -- bug repository invariants --------------------------------------
    def _check_dedup(
        self, report: AuditReport, repair: bool, repo: BugRepository
    ) -> None:
        """The (dialect, function, statement) dedup key must be unique.

        sqlite enforces this through the UNIQUE constraint in healthy
        operation; a salvage-rebuild of a corrupt file is where
        duplicates can sneak in.
        """
        report.checks.append("bugrepo.dedup")
        try:
            with repo.storage.read("audit") as db:
                groups = db.execute(
                    "SELECT dialect, function, statement, COUNT(*) AS n,"
                    " MIN(id) AS keeper FROM bugs"
                    " GROUP BY dialect, function, statement HAVING n > 1"
                ).fetchall()
        except StorageError as exc:
            report.findings.append(AuditFinding(
                "bugrepo.dedup", "error", repo.path,
                f"dedup scan failed: {exc}",
            ))
            return
        for group in groups:
            key = (group["dialect"], group["function"], group["statement"])
            finding = AuditFinding(
                "bugrepo.dedup", "error", str(group["keeper"]),
                f"{group['n']} records share dedup key {key!r}",
            )
            report.findings.append(finding)
            if not repair:
                continue
            merged = _merge_duplicates(repo, group)
            finding.repaired = True
            finding.repair = (
                f"merged {merged} duplicates into record {group['keeper']}"
            )


def _skips_validation(detail: str) -> bool:
    return str(detail or "").startswith(_SKIP_DETAIL_PREFIXES)


def _offline_reclaim(
    journal: JobJournal, row: Dict[str, Any], now: float
) -> str:
    """Repair a stale ``running`` row directly in the journal.

    Mirrors :meth:`JobStore._reclaim` semantics at the row level: burn a
    retry and requeue (the campaign resumes from its checkpoint when a
    worker next starts it), or turn terminal once retries are exhausted.
    """
    retries = int(row.get("retries") or 0)
    max_retries = int(row.get("max_retries") or 0)
    row = dict(row)
    row["lease_owner"] = ""
    row["lease_expires"] = 0.0
    if retries >= max_retries:
        row["state"] = "failed"
        row["error"] = "reclaimed by audit; retries exhausted"
        row["finished_at"] = now
        journal.update(row, transition="reclaimed by audit", at=now)
        return "failed: retries exhausted"
    row["retries"] = retries + 1
    row["state"] = "queued"
    row["next_attempt_at"] = now
    row["error"] = "reclaimed by audit; attempt abandoned"
    journal.update(row, transition="reclaimed by audit", at=now)
    return "requeued"


def rebuild_journal(
    path: str, chaos: Optional[StorageFaultInjector] = None
) -> Tuple[str, int]:
    """Quarantine a corrupt journal and rebuild it, salvaging job rows.

    Shared by the offline auditor and the service's boot path (a
    :class:`~repro.service.storage.CorruptionDetected` from
    :class:`~repro.service.journal.JobJournal` construction).  Each
    salvaged row lands via :meth:`JobJournal.resync`, so its transition
    history restarts with a ``resynced`` entry the transition-chain
    check knows to accept."""
    storage = SqliteStorage("journal", path, chaos=chaos)
    quarantined = storage.quarantine()
    rows: List[Dict[str, Any]] = []
    try:
        old = sqlite3.connect(quarantined)
        old.row_factory = sqlite3.Row
        try:
            rows = [
                dict(r)
                for r in old.execute("SELECT * FROM jobs ORDER BY seq")
            ]
        finally:
            old.close()
    except sqlite3.Error:
        rows = []
    journal = JobJournal(path, chaos=chaos)
    salvaged = 0
    for row in rows:
        try:
            journal.resync([row])
            salvaged += 1
        except (StorageError, sqlite3.Error, KeyError, ValueError):
            continue
    journal.close()
    return quarantined, salvaged


def _merge_duplicates(repo: BugRepository, group: sqlite3.Row) -> int:
    """Fold duplicate dedup-key records onto the lowest id."""
    with repo.storage.write("rebuild") as db:
        rows = db.execute(
            "SELECT * FROM bugs WHERE dialect=? AND function=? AND"
            " statement=? ORDER BY id",
            (group["dialect"], group["function"], group["statement"]),
        ).fetchall()
        keeper = rows[0]
        kinds = json.loads(keeper["kinds"])
        labels = json.loads(keeper["labels"])
        campaigns = json.loads(keeper["campaigns"])
        occurrences = keeper["occurrences"]
        for dup in rows[1:]:
            for kind in json.loads(dup["kinds"]):
                if kind not in kinds:
                    kinds.append(kind)
            for label in json.loads(dup["labels"]):
                if label not in labels:
                    labels.append(label)
            for campaign in json.loads(dup["campaigns"]):
                if campaign not in campaigns:
                    campaigns.append(campaign)
            occurrences += dup["occurrences"]
            db.execute("DELETE FROM bugs WHERE id=?", (dup["id"],))
        db.execute(
            "UPDATE bugs SET kinds=?, labels=?, campaigns=?, occurrences=?,"
            " updated_at=? WHERE id=?",
            (
                json.dumps(kinds), json.dumps(labels),
                json.dumps(campaigns), occurrences, time.time(),
                keeper["id"],
            ),
        )
    return len(rows) - 1


__all__ = [
    "AuditFinding",
    "AuditReport",
    "BIRTH_STATES",
    "LEGAL_EDGES",
    "ServiceAuditor",
    "rebuild_journal",
]
