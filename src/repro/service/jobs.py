"""The asynchronous job model: durable jobs, leases, quotas, admission.

A :class:`Job` is one unit of scheduled work — either a fuzzing
**campaign** (runs a :class:`~repro.core.config.CampaignConfig` through
the scheduler, streaming findings as they surface) or a regression
**replay** (re-executes stored bug-repository triggers and reports
status flips).  Jobs move through ``queued → running → done/failed``
(``cancelled`` while queued or cooperatively while running;
``rejected`` when a per-submitter quota refuses admission).

The :class:`JobStore` is the thread-safe registry plus priority work
queue shared between HTTP handler threads (producers) and N scheduler
workers (consumers).  Three properties distinguish it from the PR 6
in-memory version:

* **Durability.**  Every state transition writes through to a
  :class:`~repro.service.journal.JobJournal`; on startup the store
  rebuilds its registry from the journal and
  :meth:`JobStore.recover` re-enqueues jobs a dead process left in
  ``running`` (a campaign resumes from its checkpoint when it next runs).
* **Leases.**  Workers *claim* jobs (:meth:`JobStore.claim` — a
  compare-and-swap on the ``queued`` state, so a job can never run
  twice concurrently) and must heartbeat to keep the lease; an expired
  lease makes the job reclaimable by any worker.
* **Admission control.**  The queue has a depth watermark
  (:class:`QueueFull` → HTTP 429 upstream) and optional per-submitter
  quotas (over-quota jobs land in the terminal ``rejected`` state
  rather than crashing a worker).

Findings stream through a cursor API — :meth:`Job.findings_since`
returns everything past a client-held offset.  The in-job buffer is
bounded (:data:`DEFAULT_MAX_FINDINGS`): a divergence-storm campaign
drops its overflow (counted as ``findings_truncated``) instead of
OOMing the service, and cursors stay monotone across truncation.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import CampaignConfig
from ..robustness.governor import ResourceBudgets
from .journal import JobJournal

#: the job lifecycle
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled", "rejected",
)

#: states a job never leaves
TERMINAL_STATES = ("done", "failed", "cancelled", "rejected")

#: cap on the in-job streaming buffer (entries, not bytes); overflow is
#: counted, not stored
DEFAULT_MAX_FINDINGS = 2000

#: attempts after the first before a failing job turns terminal
DEFAULT_MAX_RETRIES = 2

#: how long a claim lives without a heartbeat
DEFAULT_LEASE_SECONDS = 30.0

#: retry backoff: ``base * 2**(retries-1)`` capped at ``cap`` seconds
DEFAULT_BACKOFF_BASE = 1.0
DEFAULT_BACKOFF_CAP = 60.0


class QueueFull(Exception):
    """Admission refused: the queue is at its depth watermark."""

    def __init__(self, depth: int, watermark: int, retry_after: int = 5) -> None:
        super().__init__(
            f"job queue is full ({depth} queued, watermark {watermark})"
        )
        self.depth = depth
        self.watermark = watermark
        self.retry_after = retry_after


class TenantBudgetExceeded(Exception):
    """A job would overrun its submitter's resource budget.

    Terminal: the scheduler marks the job ``failed`` with a
    ``resource_exhausted`` error and burns no retries — rerunning the
    same job against the same exhausted budget can only fail again.
    """


@dataclass(frozen=True)
class TenantBudget:
    """Per-submitter resource limits (ROADMAP item 3, riding PR 5).

    Two enforcement layers:

    * ``statements`` — a cumulative statement allowance per submitter
      for the service's lifetime: a campaign whose ``config.budget``
      exceeds what the submitter has left is refused up front
      (:class:`TenantBudgetExceeded` → terminal ``resource_exhausted``).
    * ``budgets`` — a per-statement
      :class:`~repro.robustness.governor.ResourceBudgets` ceiling
      applied to **every** tenant campaign (overriding any submitted
      spec: tenants must not be able to loosen their own cage).
    """

    statements: Optional[int] = None
    budgets: Optional[ResourceBudgets] = None

    def __post_init__(self) -> None:
        if self.statements is not None and (
            isinstance(self.statements, bool)
            or not isinstance(self.statements, int)
            or self.statements <= 0
        ):
            raise ValueError(
                f"tenant budget 'statements' must be a positive integer, "
                f"got {self.statements!r}"
            )

    @property
    def enabled(self) -> bool:
        return self.statements is not None or (
            self.budgets is not None and self.budgets.enabled
        )

    @classmethod
    def parse(cls, spec: str) -> "TenantBudget":
        """Parse a CLI tenant-budget spec.

        ``statements=N`` is the cumulative per-submitter allowance; any
        other keys are a :meth:`ResourceBudgets.parse` per-statement
        spec, e.g. ``"statements=10000,rows=5000,wall_ms=100"``.
        """
        spec = spec.strip().lower()
        if spec in ("", "off", "none", "0", "false"):
            return cls()
        statements: Optional[int] = None
        rest: List[str] = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            name, _, raw = part.partition("=")
            if name.strip() == "statements":
                if statements is not None:
                    raise ValueError("duplicate tenant budget 'statements'")
                try:
                    value = float(raw)
                except ValueError:
                    raise ValueError(
                        f"bad tenant budget value {raw!r} for statements"
                    ) from None
                if value != int(value) or int(value) <= 0:
                    raise ValueError(
                        f"tenant budget 'statements' must be a positive "
                        f"integer, got {raw.strip()}"
                    )
                statements = int(value)
            else:
                rest.append(part)
        budgets = ResourceBudgets.parse(",".join(rest)) if rest else None
        if budgets is not None and not budgets.enabled:
            budgets = None
        return cls(statements=statements, budgets=budgets)


def finding_to_dict(finding: Any) -> Dict[str, Any]:
    """Serialize any oracle finding for the wire (stable JSON shape)."""
    return {
        "kind": finding.kind,
        "label": finding.bug_type_label,
        "dialect": finding.dbms,
        "function": finding.function,
        "pattern": finding.pattern,
        "sql": finding.sql,
        # only some finding classes name a peer or carry an error text
        "peer": getattr(finding, "peer", "") or "",
        "message": getattr(finding, "message", "") or "",
        "query_index": finding.query_index,
    }


def signature_digest(result: Any) -> str:
    """A stable hex digest of ``CampaignResult.signature()``.

    The tuple itself is not JSON-able; its ``repr`` is deterministic
    (primitives and tuples only), so the digest lets two runs —
    e.g. a SIGKILLed-and-recovered campaign and its uninterrupted
    control — be compared for byte-identical outcomes over the wire.
    """
    return hashlib.sha256(repr(result.signature()).encode("utf-8")).hexdigest()


def result_to_summary(result: Any) -> Dict[str, Any]:
    """Serialize a :class:`CampaignResult` into the job's summary dict."""
    summary = {
        "dialect": result.dialect,
        "queries_executed": result.queries_executed,
        "bug_count": result.bug_count,
        "finding_count": len(result.findings),
        "triggered_functions": sorted(result.triggered_functions),
        "branch_coverage": result.branch_coverage,
        "outcomes": dict(result.outcomes),
        "quarantined": result.quarantined,
        "elapsed_seconds": result.elapsed_seconds,
        "wall_seconds": result.wall_seconds,
        "signature_digest": signature_digest(result),
    }
    if result.fault_counters:
        summary["fault_counters"] = dict(result.fault_counters)
    if result.sandbox_active:
        # the sandbox supervisor's health, surfaced to service pollers
        summary["sandbox"] = dict(
            result.tally.supervisor,
            open_breakers=list(result.open_breakers),
            quarantined_statements=result.quarantined_statements,
            skipped_statements=result.outcomes.get("skipped", 0),
        )
    return summary


class Job:
    """One scheduled unit of work, with leased CAS state transitions.

    Every transition method is a compare-and-swap: it checks the current
    state (and, where relevant, the caller's lease) under the job lock
    and returns ``False`` without side effects when the precondition no
    longer holds — a job cancelled between being claimed and being
    marked running stays cancelled instead of being silently revived.
    Successful transitions write through to the journal.
    """

    def __init__(
        self,
        job_id: str,
        kind: str,
        config: Optional[CampaignConfig] = None,
        params: Optional[Dict[str, Any]] = None,
        submitter: str = "",
        priority: int = 0,
        max_retries: int = DEFAULT_MAX_RETRIES,
        max_findings: int = DEFAULT_MAX_FINDINGS,
        seq: int = 0,
    ) -> None:
        if kind not in ("campaign", "replay"):
            raise ValueError(f"unknown job kind {kind!r}")
        self.job_id = job_id
        self.kind = kind
        self.config = config
        self.params = dict(params or {})
        self.submitter = submitter
        self.priority = int(priority)
        self.seq = seq
        self.state = "queued"
        self.error = ""
        self.retries = 0
        self.max_retries = max(0, int(max_retries))
        self.next_attempt_at = 0.0
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.summary: Dict[str, Any] = {}
        self.progress: Dict[str, Any] = {}
        self.ingest: Dict[str, Any] = {}
        # lease bookkeeping (meaningful while running)
        self.lease_owner = ""
        self.lease_seq = 0
        self.lease_expires = 0.0
        # cooperative stop flags, checked from the campaign progress hook
        self.cancel_event = threading.Event()
        self.drain_event = threading.Event()
        self.max_findings = max(1, int(max_findings))
        self._findings: List[Dict[str, Any]] = []
        self._findings_total = 0
        self._lock = threading.Lock()
        self._journal: Optional[JobJournal] = None
        #: the store's checkpoint directory; sidecars under it are GC'd
        #: when this job turns terminal (store-owned paths only)
        self._sidecar_dir: Optional[str] = None

    # -- durability -----------------------------------------------------
    @property
    def checkpoint_path(self) -> str:
        if self.config is not None and self.config.checkpoint_path:
            return self.config.checkpoint_path
        return ""

    def to_row(self) -> Dict[str, Any]:
        """The journal's current-state row (caller holds ``_lock``)."""
        return {
            "job_id": self.job_id,
            "seq": self.seq,
            "kind": self.kind,
            "config": self.config.to_dict() if self.config is not None else None,
            "params": dict(self.params),
            "submitter": self.submitter,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "retries": self.retries,
            "max_retries": self.max_retries,
            "next_attempt_at": self.next_attempt_at,
            "checkpoint_path": self.checkpoint_path,
            "lease_owner": self.lease_owner,
            "lease_seq": self.lease_seq,
            "lease_expires": self.lease_expires,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "summary": dict(self.summary),
            "ingest": dict(self.ingest),
            "findings_total": self._findings_total,
        }

    @classmethod
    def from_row(cls, row: Dict[str, Any]) -> "Job":
        """Rebuild a journaled job (inverse of :meth:`to_row`)."""
        config = row.get("config")
        if isinstance(config, str):
            config = json.loads(config)
        job = cls(
            row["job_id"],
            row["kind"],
            config=CampaignConfig.from_dict(config) if config else None,
            params=_loads(row.get("params")),
            submitter=row.get("submitter", ""),
            priority=row.get("priority", 0),
            max_retries=row.get("max_retries", DEFAULT_MAX_RETRIES),
            seq=row.get("seq", 0),
        )
        job.state = row["state"]
        job.error = row.get("error", "")
        job.retries = row.get("retries", 0)
        job.next_attempt_at = row.get("next_attempt_at", 0.0)
        job.created_at = row.get("created_at", 0.0)
        job.started_at = row.get("started_at")
        job.finished_at = row.get("finished_at")
        job.summary = _loads(row.get("summary"))
        job.ingest = _loads(row.get("ingest"))
        job.lease_owner = row.get("lease_owner", "")
        job.lease_seq = row.get("lease_seq", 0)
        job.lease_expires = row.get("lease_expires", 0.0)
        job._findings_total = row.get("findings_total", 0)
        return job

    def _persist(self, transition: Optional[str] = None) -> None:
        """Write the current row through (caller holds ``_lock``)."""
        if self._journal is not None:
            self._journal.update(self.to_row(), transition, at=time.time())

    def row_snapshot(self) -> Dict[str, Any]:
        """A journal row of the current state (takes the job lock)."""
        with self._lock:
            return self.to_row()

    def _gc_sidecars(self) -> None:
        """Delete checkpoint files once the job is terminal.

        Only store-owned paths (directly under the store's checkpoint
        directory) are touched — a user-specified ``checkpoint_path``
        outside it is the user's file to keep.  Removes the checkpoint
        and every ``<path>.*`` companion (shard files, atomic-write temp
        files): the ownership rule the auditor's orphan sweep uses too.
        Caller holds ``_lock``.
        """
        path = self.checkpoint_path
        if not path or not self._sidecar_dir:
            return
        owned = os.path.abspath(self._sidecar_dir)
        if os.path.dirname(os.path.abspath(path)) != owned:
            return
        for victim in [path] + glob.glob(glob.escape(path) + ".*"):
            try:
                os.remove(victim)
            except OSError:
                pass

    # -- state transitions (all CAS) ------------------------------------
    def mark_running(
        self,
        owner: str = "",
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
    ) -> bool:
        """``queued → running`` under a fresh lease.

        Returns ``False`` from any other state — in particular a job
        cancelled after being popped from the queue stays cancelled
        (the PR 6 race this CAS closes).
        """
        with self._lock:
            if self.state != "queued":
                return False
            self.state = "running"
            self.started_at = time.time()
            self.lease_owner = owner
            self.lease_seq += 1
            self.lease_expires = time.time() + lease_seconds
            self._persist(f"claimed by {owner or 'worker'}")
            return True

    def heartbeat(
        self, lease_seq: int, lease_seconds: float = DEFAULT_LEASE_SECONDS
    ) -> bool:
        """Extend the lease; ``False`` if it was lost (stale worker)."""
        with self._lock:
            if self.state != "running" or self.lease_seq != lease_seq:
                return False
            self.lease_expires = time.time() + lease_seconds
            return True

    def lease_valid(self, lease_seq: int) -> bool:
        with self._lock:
            return self.state == "running" and self.lease_seq == lease_seq

    def mark_done(
        self, summary: Optional[Dict[str, Any]] = None, lease_seq: Optional[int] = None
    ) -> bool:
        """``running → done`` (lease holder only when *lease_seq* given)."""
        with self._lock:
            if self.state != "running":
                return False
            if lease_seq is not None and self.lease_seq != lease_seq:
                return False
            self.state = "done"
            self.finished_at = time.time()
            if summary is not None:
                self.summary = summary
            if self._findings_total > len(self._findings):
                self.summary = dict(
                    self.summary,
                    findings_truncated=self._findings_total - len(self._findings),
                )
            self._clear_lease()
            self._gc_sidecars()
            self._persist("completed")
            return True

    def mark_failed(
        self, error: str, lease_seq: Optional[int] = None
    ) -> bool:
        """``running → failed`` terminally, preserving the traceback."""
        with self._lock:
            if self.state != "running":
                return False
            if lease_seq is not None and self.lease_seq != lease_seq:
                return False
            self.state = "failed"
            self.finished_at = time.time()
            self.error = error
            self._clear_lease()
            self._gc_sidecars()
            self._persist("failed")
            return True

    def mark_retrying(
        self,
        error: str,
        lease_seq: Optional[int] = None,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        expired_only: bool = False,
    ) -> str:
        """Record a failed attempt: requeue with capped exponential
        backoff, or turn terminal once retries are exhausted.

        *expired_only* makes the transition conditional on the lease
        having lapsed — the reclaimer's guard against racing a worker
        whose heartbeat arrived after the expiry scan read the lease.

        Returns the resulting state (``"queued"``/``"failed"``), or
        ``""`` when the CAS lost (not running / stale lease / renewed).
        """
        with self._lock:
            if self.state != "running":
                return ""
            if lease_seq is not None and self.lease_seq != lease_seq:
                return ""
            if expired_only and self.lease_expires >= time.time():
                return ""
            if self.retries >= self.max_retries:
                self.state = "failed"
                self.finished_at = time.time()
                self.error = error
                self._clear_lease()
                self._gc_sidecars()
                self._persist("retries exhausted")
                return self.state
            self.retries += 1
            delay = min(backoff_cap, backoff_base * (2 ** (self.retries - 1)))
            self.next_attempt_at = time.time() + delay
            self.error = error
            self.state = "queued"
            self._clear_lease()
            self._persist(
                f"retry {self.retries}/{self.max_retries} in {delay:.1f}s"
            )
            return self.state

    def requeue(
        self, lease_seq: Optional[int] = None, detail: str = "requeued"
    ) -> bool:
        """``running → queued`` without burning a retry (graceful drain)."""
        with self._lock:
            if self.state != "running":
                return False
            if lease_seq is not None and self.lease_seq != lease_seq:
                return False
            self.state = "queued"
            self._clear_lease()
            self._persist(detail)
            return True

    def mark_cancelled(self) -> str:
        """Request cancellation.

        A queued job turns ``cancelled`` immediately; a running job gets
        its stop flag set (the campaign aborts at the next progress
        beat) and ``"pending"`` is returned.  Terminal jobs return
        ``""``.
        """
        with self._lock:
            if self.state == "queued":
                self.state = "cancelled"
                self.finished_at = time.time()
                self._gc_sidecars()
                self._persist("cancelled while queued")
                return "cancelled"
            if self.state == "running":
                self.cancel_event.set()
                return "pending"
            return ""

    def finish_cancelled(self, lease_seq: Optional[int] = None) -> bool:
        """``running → cancelled`` after a cooperative stop."""
        with self._lock:
            if self.state != "running":
                return False
            if lease_seq is not None and self.lease_seq != lease_seq:
                return False
            self.state = "cancelled"
            self.finished_at = time.time()
            self._clear_lease()
            self._gc_sidecars()
            self._persist("cancelled while running")
            return True

    def mark_rejected(self, reason: str) -> None:
        """Admission refused (quota): terminal from birth."""
        with self._lock:
            self.state = "rejected"
            self.error = reason
            self.finished_at = time.time()

    def _clear_lease(self) -> None:
        self.lease_owner = ""
        self.lease_expires = 0.0

    # -- streaming ------------------------------------------------------
    def add_finding(self, finding: Any, position: int = -1) -> None:
        """Buffer one finding for pollers (bounded; overflow is counted).

        The buffer keeps the stream *prefix*: cursors held by clients
        stay valid, and the drop count surfaces as ``findings_truncated``
        in the progress/summary dicts.
        """
        entry = finding_to_dict(finding)
        entry["position"] = position
        with self._lock:
            self._findings_total += 1
            if len(self._findings) < self.max_findings:
                self._findings.append(entry)

    def set_progress(self, progress: Dict[str, Any]) -> None:
        with self._lock:
            self.progress = dict(progress)
            dropped = self._findings_total - len(self._findings)
            if dropped:
                self.progress["findings_truncated"] = dropped

    def set_ingest(self, ingest: Dict[str, Any]) -> None:
        with self._lock:
            self.ingest = dict(ingest)
            self._persist()

    def findings_since(self, cursor: int = 0) -> Tuple[int, List[Dict[str, Any]]]:
        """Return ``(next_cursor, stored findings past cursor)``.

        The cursor indexes the *total* finding stream.  Once the buffer
        cap truncates the tail, positions past the cap yield no entries
        but the cursor still advances to the total — pollers observe the
        gap through ``findings_truncated`` rather than a stuck cursor.
        """
        with self._lock:
            cursor = max(0, int(cursor))
            return self._findings_total, list(self._findings[cursor:])

    @property
    def finding_count(self) -> int:
        with self._lock:
            return self._findings_total

    @property
    def findings_truncated(self) -> int:
        with self._lock:
            return self._findings_total - len(self._findings)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            data: Dict[str, Any] = {
                "id": self.job_id,
                "kind": self.kind,
                "state": self.state,
                "submitter": self.submitter,
                "priority": self.priority,
                "retries": self.retries,
                "created_at": self.created_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "finding_count": self._findings_total,
                "progress": dict(self.progress),
            }
            if self.config is not None:
                data["config"] = self.config.to_dict()
            if self.params:
                data["params"] = dict(self.params)
            if self.error:
                data["error"] = self.error
            if self.summary:
                data["summary"] = dict(self.summary)
            if self.ingest:
                data["ingest"] = dict(self.ingest)
            dropped = self._findings_total - len(self._findings)
            if dropped:
                data["findings_truncated"] = dropped
            return data


def _loads(value: Any) -> Dict[str, Any]:
    if isinstance(value, str):
        return json.loads(value) if value else {}
    return dict(value or {})


class JobStore:
    """Thread-safe job registry + leased priority queue, journal-backed.

    With ``journal=None`` the store runs purely in memory (unit tests,
    embedded use); the service always passes a
    :class:`~repro.service.journal.JobJournal` so every job survives the
    process.
    """

    def __init__(
        self,
        journal: Optional[JobJournal] = None,
        checkpoint_dir: Optional[str] = None,
        max_depth: Optional[int] = None,
        submitter_quota: Optional[int] = None,
        max_retries: int = DEFAULT_MAX_RETRIES,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        max_findings: int = DEFAULT_MAX_FINDINGS,
        preemption: bool = True,
        tenant_budget: Optional[TenantBudget] = None,
    ) -> None:
        self.journal = journal
        self.checkpoint_dir = checkpoint_dir
        self.max_depth = max_depth
        self.submitter_quota = submitter_quota
        self.max_retries = max_retries
        self.lease_seconds = lease_seconds
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_findings = max_findings
        self.preemption = preemption
        self.tenant_budget = tenant_budget
        #: how many workers consume this store (set by the pool); 0 means
        #: unknown, which disables the idle-capacity preemption guard
        self.worker_count = 0
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._wake: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._counter = 0
        self._shed = 0
        self._preemptions = 0
        #: cumulative statements executed per submitter (tenant budgets)
        self._tenant_statements: Dict[str, int] = {}
        if journal is not None:
            self._load_journal(journal)

    # -- startup: rebuild + recover -------------------------------------
    def _load_journal(self, journal: JobJournal) -> None:
        for row in journal.load_rows():
            job = Job.from_row(row)
            job.max_findings = self.max_findings
            job._journal = journal
            job._sidecar_dir = self.checkpoint_dir
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        self._counter = journal.max_seq()

    def recover(self) -> Dict[str, List[str]]:
        """Re-enqueue work a dead process left behind.

        Jobs journaled as ``running`` are orphans (no worker of *this*
        process holds their lease): they go back to ``queued``, burning
        one retry, and a campaign resumes from its checkpoint when a
        worker next starts it; jobs whose retries are exhausted turn
        terminal ``failed``.  Already-``queued`` jobs just re-enter the
        wake queue.  Returns ``{"requeued": [...], "failed": [...]}``.
        """
        report: Dict[str, List[str]] = {"requeued": [], "failed": []}
        for job in self.list():
            if job.state == "running":
                # the owning process is gone: its lease is void by fiat
                state = self._reclaim(job, detail="orphaned by restart")
                if state == "queued":
                    report["requeued"].append(job.job_id)
                elif state == "failed":
                    report["failed"].append(job.job_id)
            elif job.state == "queued":
                report["requeued"].append(job.job_id)
        for job_id in report["requeued"]:
            self._wake.put(job_id)
        return report

    # -- submission (HTTP side) -----------------------------------------
    def submit(
        self,
        kind: str,
        config: Optional[CampaignConfig] = None,
        params: Optional[Dict[str, Any]] = None,
        submitter: str = "",
        priority: int = 0,
    ) -> Job:
        """Admit one job (or refuse: :class:`QueueFull` / ``rejected``)."""
        with self._lock:
            if self.max_depth is not None:
                depth = sum(
                    1 for j in self._jobs.values() if j.state == "queued"
                )
                if depth >= self.max_depth:
                    self._shed += 1
                    raise QueueFull(depth, self.max_depth)
            self._counter += 1
            job_id = f"job-{self._counter:04d}"
            if (
                kind == "campaign"
                and config is not None
                and not config.checkpoint_path
                and self.checkpoint_dir
            ):
                # durable sidecar: every service campaign is resumable
                config = config.replace(
                    checkpoint_path=os.path.join(
                        self.checkpoint_dir, f"{job_id}.ckpt"
                    )
                )
            job = Job(
                job_id,
                kind,
                config,
                params,
                submitter=submitter,
                priority=priority,
                max_retries=self.max_retries,
                max_findings=self.max_findings,
                seq=self._counter,
            )
            job._journal = self.journal
            job._sidecar_dir = self.checkpoint_dir
            over_quota = (
                self.submitter_quota is not None
                and sum(
                    1
                    for j in self._jobs.values()
                    if j.submitter == submitter
                    and j.state in ("queued", "running")
                )
                >= self.submitter_quota
            )
            if over_quota:
                job.mark_rejected(
                    f"submitter {submitter or '(anonymous)'} is at its "
                    f"quota of {self.submitter_quota} active jobs"
                )
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        if self.journal is not None:
            self.journal.insert(job.to_row())
        if job.state == "queued":
            self._wake.put(job.job_id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> Optional[Job]:
        job = self.get(job_id)
        if job is not None:
            job.mark_cancelled()
        return job

    # -- metrics --------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == "queued")

    @property
    def shed_count(self) -> int:
        with self._lock:
            return self._shed

    def state_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.list():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- worker side ----------------------------------------------------
    def wait(self, timeout: float = 0.2) -> bool:
        """Block up to *timeout* for work (or a poison pill → ``False``)."""
        try:
            token = self._wake.get(timeout=timeout)
        except queue.Empty:
            return True
        return token is not None

    def claim(
        self, owner: str = "", lease_seconds: Optional[float] = None
    ) -> Optional[Tuple[Job, int]]:
        """CAS-claim the best eligible queued job under a fresh lease.

        Eligibility: ``queued`` state and past its retry backoff.
        Ordering: highest priority first, then submission order.
        Returns ``(job, lease_seq)`` or ``None``; the lease_seq is the
        worker's completion token — every finishing transition checks
        it, so a reclaimed job's original worker cannot double-finish.
        """
        lease = self.lease_seconds if lease_seconds is None else lease_seconds
        now = time.time()
        with self._lock:
            eligible = [
                j
                for j in self._jobs.values()
                if j.state == "queued" and j.next_attempt_at <= now
            ]
            eligible.sort(key=lambda j: (-j.priority, j.seq))
            for job in eligible:
                if job.mark_running(owner, lease):
                    return job, job.lease_seq
        return None

    def reclaim_expired(self) -> List[str]:
        """Requeue (or fail) running jobs whose lease expired."""
        reclaimed = []
        now = time.time()
        for job in self.list():
            if job.state == "running" and 0 < job.lease_expires < now:
                state = self._reclaim(
                    job, detail="lease expired", expired_only=True
                )
                if state:
                    reclaimed.append(job.job_id)
                    if state == "queued":
                        self._wake.put(job.job_id)
        return reclaimed

    def notify(self, job_id: str) -> None:
        """Wake a worker for *job_id* (requeued outside :meth:`submit`)."""
        self._wake.put(job_id)

    # -- priority preemption --------------------------------------------
    def should_preempt(self, job: Job) -> bool:
        """Should running *job* yield its worker to a higher-priority
        queued job?

        Checked from the job's own progress hook (the same seam as
        cancel/drain), so preemption rides the existing
        ``JobInterrupted`` checkpoint-and-requeue path: no retry burned,
        resume is signature-identical.  True only when **all** hold:

        * preemption is enabled and the job's config allows it;
        * a strictly higher-priority job is queued and past its backoff
          (equal priority never preempts — FIFO within a priority band);
        * no idle worker could absorb the queued job instead;
        * *job* is the designated victim — the lowest-priority running
          job, most recently started among ties (least work lost).
        """
        if not self.preemption:
            return False
        if job.config is not None and not job.config.preemptible:
            return False
        now = time.time()
        with self._lock:
            best_queued: Optional[int] = None
            running: List[Job] = []
            for candidate in self._jobs.values():
                if candidate.state == "queued" and candidate.next_attempt_at <= now:
                    if best_queued is None or candidate.priority > best_queued:
                        best_queued = candidate.priority
                elif candidate.state == "running":
                    running.append(candidate)
            if best_queued is None or best_queued <= job.priority:
                return False
            if self.worker_count and len(running) < self.worker_count:
                return False  # an idle worker will claim the queued job
            victim = min(
                running,
                key=lambda j: (j.priority, -(j.started_at or 0.0)),
                default=None,
            )
            if victim is not job:
                return False
            self._preemptions += 1
            return True

    @property
    def preemption_count(self) -> int:
        with self._lock:
            return self._preemptions

    # -- tenant budgets --------------------------------------------------
    def tenant_denial(self, job: Job) -> Optional[str]:
        """Why *job* must not run under its submitter's statement
        allowance (``None`` when it may run)."""
        budget = self.tenant_budget
        if budget is None or budget.statements is None or job.config is None:
            return None
        with self._lock:
            used = self._tenant_statements.get(job.submitter, 0)
        remaining = budget.statements - used
        if job.config.budget > remaining:
            return (
                f"resource_exhausted: submitter "
                f"{job.submitter or '(anonymous)'} has {max(0, remaining)} of "
                f"{budget.statements} budgeted statements left; this "
                f"campaign needs {job.config.budget}"
            )
        return None

    def apply_tenant_budgets(self, config: CampaignConfig) -> CampaignConfig:
        """Overlay the tenant's per-statement ceilings onto *config*.

        The tenant spec **overrides** any submitted ``budgets`` — a
        tenant must not be able to loosen its own cage by submitting a
        more generous spec.
        """
        budget = self.tenant_budget
        if budget is None or budget.budgets is None:
            return config
        return config.replace(budgets=budget.budgets)

    def charge_tenant(self, submitter: str, statements: int) -> None:
        """Record executed statements against *submitter*'s allowance."""
        if self.tenant_budget is None or self.tenant_budget.statements is None:
            return
        with self._lock:
            self._tenant_statements[submitter] = (
                self._tenant_statements.get(submitter, 0) + max(0, statements)
            )

    def tenant_usage(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._tenant_statements)

    def _reclaim(self, job: Job, detail: str, expired_only: bool = False) -> str:
        """Shared requeue path for recovery and expiry."""
        return job.mark_retrying(
            f"{detail}; attempt abandoned",
            lease_seq=None,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            expired_only=expired_only,
        )

    def poison(self, count: int = 1) -> None:
        """Wake *count* blocked workers so they observe shutdown."""
        for _ in range(count):
            self._wake.put(None)
