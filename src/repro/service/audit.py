"""The service invariant auditor (``repro audit`` + startup hook).

The durable service's correctness rests on invariants: journal states
must form legal transition chains, ``running`` rows must hold live
leases, bug-repository dedup keys must be unique, and checkpoint
sidecars must belong to live jobs.  A crash — real or injected by the
chaos harness — is exactly when those invariants are most at risk, so
the :class:`ServiceAuditor` runs as a **startup hook** inside
:class:`~repro.service.server.BugService` (after crash recovery, with
``repair=True``) and **offline** (``repro audit --data-dir``, against a
dead service's files).  Both run the same checks over the same objects:
offline, the auditor opens the data directory the way boot does.

Every check yields :class:`AuditFinding` rows.  Violations are either
*repairable* — reclaim a stale lease (:meth:`JobStore.reclaim`),
quarantine and rebuild a corrupt database
(:func:`~repro.service.storage.open_or_salvage`), merge duplicate dedup
keys (:meth:`BugRepository.merge_duplicates`), delete orphaned
sidecars — or they **fail loudly**: an illegal state transition in the
audit trail (against :data:`~repro.service.jobs.LEGAL_EDGES`) means the
journal cannot be trusted and no automatic repair is attempted
(:attr:`AuditReport.ok` goes ``False``).
"""

from __future__ import annotations

import glob
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .bugrepo import BugRepository
from .jobs import (
    BIRTH_STATES,
    LEGAL_EDGES,
    TERMINAL_STATES,
    JobStore,
    sidecar_files,
)
from .journal import JobJournal
from .storage import StorageError, open_or_salvage

#: a transition detail that may jump states: the journal's resync after
#: a degraded spell or a salvage-rebuild, exempt from edge validation
_RESYNCED = "resynced"


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

    The checks run over a :class:`JobStore` (and its journal) and a
    :class:`BugRepository`.  The live service passes the ones it booted
    with (*store*, *repo*); their files were integrity-checked when they
    were opened.  Given a *data_dir* instead (``repro audit``), the
    auditor opens the data directory the way boot does —
    :func:`~repro.service.storage.open_or_salvage` per database (which
    quarantines a corrupt one only under ``repair``), then a store over
    the journal — and closes the journal afterwards.
    """

    def __init__(
        self,
        data_dir: Optional[str] = None,
        store: Optional[JobStore] = None,
        repo: Optional[BugRepository] = None,
    ) -> None:
        if data_dir is None and store is None and repo is None:
            raise ValueError(
                "ServiceAuditor needs a data_dir or live store/repo objects"
            )
        self.data_dir = data_dir
        self.store = store
        self.repo = repo

    # ------------------------------------------------------------------
    def run(self, repair: bool = False) -> AuditReport:
        report = AuditReport()
        if self.data_dir is None:
            # the live databases were integrity-checked when boot opened
            # them (once per boot): the check is reported, not repeated
            if self.store is not None:
                report.checks.append("journal.integrity")
            if self.repo is not None:
                report.checks.append("bugrepo.integrity")
            return self._check(report, repair, self.store, self.repo)
        journal = self._open(report, repair, JobJournal, "jobs.sqlite")
        try:
            store = None
            if journal is not None:
                store = JobStore(
                    journal=journal,
                    checkpoint_dir=os.path.join(self.data_dir, "checkpoints"),
                )
            repo = self._open(
                report, repair, BugRepository, "bugs.sqlite", minimize=False
            )
            return self._check(report, repair, store, repo)
        finally:
            if journal is not None:
                journal.close()

    def _check(
        self,
        report: AuditReport,
        repair: bool,
        store: Optional[JobStore],
        repo: Optional[BugRepository],
    ) -> AuditReport:
        """The checks, the same live and offline."""
        if store is not None and store.journal is not None:
            rows = store.journal.load_rows()
            self._check_transitions(report, store.journal, rows)
            self._check_leases(report, repair, store)
            self._check_orphan_sidecars(report, repair, store, rows)
        if repo is not None:
            self._check_dedup(report, repair, repo)
        return report

    def _open(
        self,
        report: AuditReport,
        repair: bool,
        cls: Any,
        name: str,
        **kwargs: Any,
    ) -> Any:
        """Open one database of the data dir as boot does (integrity
        check, quarantine-and-salvage under *repair*)."""
        assert self.data_dir is not None
        path = os.path.join(self.data_dir, name)
        if not os.path.exists(path):
            return None  # nothing written yet: vacuously consistent
        check = f"{cls.SUBSYSTEM}.integrity"
        report.checks.append(check)
        try:
            database, salvage = open_or_salvage(
                cls, path, repair=repair, **kwargs
            )
        except StorageError as exc:
            # unreadable right now (locked, disk full): report, no repair
            report.findings.append(AuditFinding(check, "error", path, str(exc)))
            return None
        if salvage is not None:
            finding = AuditFinding(check, "error", path, salvage.failure)
            if database is not None:
                finding.repaired = True
                finding.repair = (
                    f"quarantined to {salvage.quarantined}; rebuilt with "
                    f"{salvage.salvaged} salvaged rows"
                )
            report.findings.append(finding)
        return database

    # -- journal invariants ---------------------------------------------
    def _check_transitions(
        self,
        report: AuditReport,
        journal: JobJournal,
        rows: List[Dict[str, Any]],
    ) -> None:
        """Transition chains must walk the lifecycle's legal edges and
        agree with the row state."""
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
                and not _resynced(first)
            ):
                report.findings.append(AuditFinding(
                    "journal.transitions", "error", job_id,
                    f"job was born in state {first['state']!r} "
                    f"(legal births: {sorted(BIRTH_STATES)})",
                ))
            for prev, entry in zip(chain, chain[1:]):
                if _resynced(entry) or prev["state"] == entry["state"]:
                    continue  # a resync jump, or a re-persist in place
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
        self, report: AuditReport, repair: bool, store: JobStore
    ) -> None:
        """Every ``running`` job must hold a live lease."""
        report.checks.append("journal.leases")
        now = time.time()
        for job in store.list():
            if job.state != "running" or job.lease_expires >= now:
                continue
            finding = AuditFinding(
                "journal.leases", "error", job.job_id,
                f"running job's lease expired at {job.lease_expires}"
                f" with owner {job.lease_owner!r}",
            )
            report.findings.append(finding)
            if repair:
                outcome = (
                    "retries exhausted" if job.retries_exhausted
                    else "attempt abandoned"
                )
                state = store.reclaim(
                    job, f"reclaimed by audit; {outcome}",
                    detail="reclaimed by audit",
                )
                finding.repaired = bool(state)
                finding.repair = {
                    "queued": "requeued",
                    "failed": "failed: retries exhausted",
                }.get(state, "")

    def _check_orphan_sidecars(
        self,
        report: AuditReport,
        repair: bool,
        store: JobStore,
        rows: List[Dict[str, Any]],
    ) -> None:
        """Checkpoint files must belong to a live (non-terminal) job."""
        directory = store.checkpoint_dir
        if not directory or not os.path.isdir(directory):
            return
        report.checks.append("checkpoints.orphans")
        owned = {
            os.path.abspath(path)
            for row in rows
            if row["state"] not in TERMINAL_STATES
            for path in sidecar_files(row.get("checkpoint_path") or "")
        }
        for entry in sorted(glob.glob(os.path.join(directory, "*"))):
            if os.path.abspath(entry) in owned:
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
        operation; a repository file without that constraint is where
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
            merged = repo.merge_duplicates(*key)
            finding.repaired = True
            finding.repair = (
                f"merged {merged} duplicates into record {group['keeper']}"
            )


def _resynced(entry: Dict[str, Any]) -> bool:
    return str(entry["detail"] or "").startswith(_RESYNCED)


__all__ = ["AuditFinding", "AuditReport", "ServiceAuditor"]
