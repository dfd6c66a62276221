"""Campaign-as-a-service: scheduler, job model, bug repository, HTTP API.

Everything the one-shot CLI could do is reachable as a long-running
service:

* :mod:`repro.service.scheduler` — the reusable campaign lifecycle
  (serial vs. sharded dispatch, checkpoint/resume wiring, finding
  streaming) that both the CLI and the server call, plus the leased
  :class:`~repro.service.scheduler.SchedulerPool` of N worker threads
  with cooperative cancellation and graceful drain.
* :mod:`repro.service.jobs` — the asynchronous job model: campaign and
  replay jobs, CAS state transitions under leases, retry backoff,
  bounded finding buffers, and admission control (queue watermark +
  per-submitter quotas).
* :mod:`repro.service.journal` — the durable sqlite job journal (WAL):
  every job's config, state transitions, retries, lease, and checkpoint
  path survive the process; startup recovery re-enqueues orphaned work.
* :mod:`repro.service.bugrepo` — the persistent, deduplicating bug
  repository (sqlite): findings from every campaign collapse onto
  canonical records with triage status and regression replay.
* :mod:`repro.service.storage` — the sqlite I/O boundary every byte of
  service state crosses: named crash points for the chaos harness,
  classified failures (:class:`~repro.service.storage.StorageUnavailable`
  vs :class:`~repro.service.storage.CorruptionDetected`), per-subsystem
  :class:`~repro.service.storage.StorageHealth`, and
  :func:`~repro.service.storage.open_or_salvage`, the one
  quarantine-and-salvage routine for corrupt files.
* :mod:`repro.service.audit` — the invariant auditor (``repro audit``
  and the service's startup hook, one set of checks): transition-chain
  legality against the job lifecycle's table, live leases, dedup
  uniqueness, orphan sidecars; violations are repaired or fail loudly.
* :mod:`repro.service.server` — the threaded HTTP/JSON front end
  (``repro serve``): submit jobs, poll streamed findings and supervisor
  health, browse/triage/replay the repository, with overload
  protection (HTTP 429 load shedding, HTTP 413 body caps) and a
  degraded read-only mode while storage is unwritable (HTTP 503 on
  mutations, reads keep answering).
"""

from .audit import AuditFinding, AuditReport, ServiceAuditor
from .bugrepo import BugRecord, BugRepository, ReplayOutcome, ReplayReport
from .jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    QueueFull,
    TenantBudget,
    TenantBudgetExceeded,
    finding_to_dict,
    result_to_summary,
    signature_digest,
)
from .journal import JobJournal
from .scheduler import (
    JobInterrupted,
    SchedulerPool,
    SchedulerWorker,
    build_campaign,
    run_scheduled,
)
from .server import BugService
from .storage import (
    CorruptionDetected,
    SqliteStorage,
    StorageError,
    StorageHealth,
    StorageUnavailable,
    crash_points,
    open_database,
    open_or_salvage,
)

__all__ = [
    "AuditFinding", "AuditReport", "BugRecord", "BugRepository",
    "BugService", "CorruptionDetected", "JOB_STATES", "Job",
    "JobInterrupted", "JobJournal", "JobStore", "QueueFull",
    "ReplayOutcome", "ReplayReport", "SchedulerPool", "SchedulerWorker",
    "ServiceAuditor", "SqliteStorage", "StorageError", "StorageHealth",
    "StorageUnavailable", "TERMINAL_STATES", "TenantBudget",
    "TenantBudgetExceeded", "build_campaign", "crash_points",
    "finding_to_dict", "open_database", "open_or_salvage",
    "result_to_summary", "run_scheduled", "signature_digest",
]
