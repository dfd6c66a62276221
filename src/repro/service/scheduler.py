"""The reusable campaign lifecycle — shared by the CLI and the server.

The one-shot CLI and the long-running service drive campaigns through the
same door:

* :func:`build_campaign` — config in, ready-to-run
  :class:`~repro.core.campaign.Campaign` out, serial or sharded alike.
* :func:`run_scheduled` — build, wire streaming hooks, run, return the
  :class:`~repro.core.campaign.CampaignResult`.
* :class:`SchedulerWorker` — one consumer thread: CAS-claims jobs from
  the :class:`~repro.service.jobs.JobStore` under a lease, heartbeats
  while the campaign runs, honours cooperative cancellation and drain
  requests from the job's stop flags, and classifies failures into
  retry-with-backoff vs. terminal ``failed``.
* :class:`SchedulerPool` — N workers over one store; knows how to stop
  hard (tests) or **drain** gracefully: stop claiming, interrupt running
  campaigns at their next progress beat and requeue them, so a restarted
  service continues where this one stopped.

A campaign job keeps no resume pointer.  When a worker starts one, it
resumes exactly when :func:`~repro.core.campaign.load_checkpoints`
accepts the saved state at the config's ``checkpoint_path`` (tenant
budgets applied) and otherwise starts over, so an unusable checkpoint
never costs a retry.  The job summary's ``resumed`` records the choice.

Every campaign streams its findings live through ``Campaign.on_finding``
(once per finding key) and beats through ``Campaign.on_progress``, which
renews the lease and raises :class:`JobInterrupted` to stop the run.  A
sharded campaign (``config.jobs > 1``) beats whenever one of its shards
does, and an interrupt stops every shard at its next beat with its
sidecar saved.
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, List, Optional

from ..core.campaign import Campaign, CampaignResult, load_checkpoints
from ..core.config import CampaignConfig
from ..dialects import dialect_by_name
from ..robustness.chaos import SimulatedCrash
from ..robustness.checkpoint import CheckpointError
from .bugrepo import BugRepository
from .jobs import Job, JobStore, TenantBudgetExceeded, result_to_summary
from .storage import StorageError

#: lease floor for the non-heartbeating phases (ingest/minimization,
#: replay jobs): generous enough that normal work never loses its lease
SLOW_PHASE_LEASE_SECONDS = 300.0


class JobInterrupted(Exception):
    """A cooperative stop fired mid-campaign (``cancel``, ``drain``, or
    ``preempt``)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def build_campaign(config: CampaignConfig) -> Campaign:
    """The :class:`Campaign` *config* describes (``config.jobs > 1``
    shards it across that many processes)."""
    if not config.dialect:
        raise ValueError("build_campaign needs config.dialect to be set")
    return Campaign(dialect_by_name(config.dialect), config=config)


def run_scheduled(
    config: CampaignConfig,
    resume: bool = False,
    on_finding: Optional[Callable[[Any, int], None]] = None,
    on_progress: Optional[Callable[[dict], None]] = None,
) -> CampaignResult:
    """Run one campaign end to end with optional streaming hooks.

    *resume* continues it from the state saved at
    ``config.checkpoint_path``, serial or sharded alike.
    """
    campaign = build_campaign(config)
    campaign.on_finding = on_finding
    campaign.on_progress = on_progress
    return campaign.run(resume=resume)


class SchedulerWorker:
    """One job consumer: claim under lease, run, finish via CAS."""

    def __init__(
        self,
        store: JobStore,
        repo: BugRepository,
        name: str = "repro-scheduler",
        drain_flag: Optional[threading.Event] = None,
    ) -> None:
        self.store = store
        self.repo = repo
        self.name = name
        self._stop = threading.Event()
        #: shared by the pool: set => interrupt campaigns for requeue
        self._drain = drain_flag if drain_flag is not None else threading.Event()
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SchedulerWorker":
        self._thread.start()
        return self

    def stop(self, timeout: float = 30.0, drain: bool = False) -> None:
        self._stop.set()
        if drain:
            self._drain.set()
        self.store.poison()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    # -- the drain loop -------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            if not self.store.wait(timeout=0.2):
                break  # poison pill: one per worker
            if self._stop.is_set() or self._drain.is_set():
                break
            try:
                # the claim/reclaim transitions journal too, so a crash
                # point can fire here as well as inside the job
                self.store.reclaim_expired()
                claimed = self.store.claim(owner=self.name)
                if claimed is None:
                    continue
                self._run_job(*claimed)
            except SimulatedCrash:
                # the chaos harness "killed" this worker: die like a
                # SIGKILLed thread would — silently, leaving the lease to
                # expire and the journal exactly as the crash left it
                return

    def _run_job(self, job: Job, lease_seq: int) -> None:
        try:
            if job.kind == "campaign":
                self._run_campaign_job(job, lease_seq)
            else:
                self._run_replay_job(job, lease_seq)
        except JobInterrupted as interrupt:
            if interrupt.reason == "cancel":
                job.finish_cancelled(lease_seq)
            elif interrupt.reason == "preempt":
                # yield the worker to a higher-priority job: requeue, no
                # retry burned, and wake a worker so both the preemptor
                # and the victim get claimed
                job.requeue(lease_seq, detail="preempted by higher-priority job")
                self.store.notify(job.job_id)
            else:  # drain: hand the job to the next service incarnation
                job.requeue(lease_seq, detail="requeued by drain")
        except TenantBudgetExceeded as exc:
            # terminal, not retried: the budget cannot un-exhaust itself
            job.mark_failed(str(exc), lease_seq)
        except Exception:  # noqa: BLE001 - job isolation: record, don't die
            error = traceback.format_exc(limit=8)
            job.mark_retrying(
                error,
                lease_seq=lease_seq,
                backoff_base=self.store.backoff_base,
                backoff_cap=self.store.backoff_cap,
            )

    def _hooks(self, job: Job, lease_seq: int):
        """The streaming callbacks, wired for leases + cooperative stop."""

        def on_progress(snapshot: dict) -> None:
            job.set_progress(snapshot)
            job.heartbeat(lease_seq, self.store.lease_seconds)
            if job.cancel_event.is_set():
                raise JobInterrupted("cancel")
            if self._drain.is_set() or job.drain_event.is_set():
                raise JobInterrupted("drain")
            if self.store.should_preempt(job):
                raise JobInterrupted("preempt")

        return job.add_finding, on_progress

    def _run_campaign_job(self, job: Job, lease_seq: int) -> None:
        config = job.config
        assert config is not None
        denial = self.store.tenant_denial(job)
        if denial is not None:
            raise TenantBudgetExceeded(denial)
        run_config = self.store.apply_tenant_budgets(config)
        try:
            load_checkpoints(run_config)
            resumed = True
        except CheckpointError:
            resumed = False  # none saved yet, or unusable: start over
        on_finding, on_progress = self._hooks(job, lease_seq)
        result = run_scheduled(
            run_config,
            resume=resumed,
            on_finding=on_finding,
            on_progress=on_progress,
        )
        self.store.charge_tenant(job.submitter, result.queries_executed)
        # ingest can minimize hundreds of findings — too slow for the
        # normal heartbeat cadence, so take a long lease up front
        job.heartbeat(
            lease_seq,
            max(self.store.lease_seconds, SLOW_PHASE_LEASE_SECONDS),
        )
        try:
            ingest = self.repo.record_result(result, campaign_id=job.job_id)
        except StorageError as exc:
            # a degraded repository must not fail a finished campaign:
            # the findings live on in the job's summary/stream, only the
            # cross-campaign dedup record is lost (counted)
            self.repo.storage.health.note_lost_write()
            ingest = {
                "new_records": 0, "duplicates": 0, "minimized": 0,
                "error": str(exc),
            }
        job.set_ingest(ingest)
        job.mark_done(dict(result_to_summary(result), resumed=resumed), lease_seq)

    def _run_replay_job(self, job: Job, lease_seq: int) -> None:
        # replays execute every stored trigger without progress beats
        job.heartbeat(
            lease_seq,
            max(self.store.lease_seconds, SLOW_PHASE_LEASE_SECONDS),
        )
        report = self.repo.replay(
            dialect=job.params.get("dialect"),
            target=job.params.get("target"),
            record_ids=job.params.get("record_ids"),
            job_id=job.job_id,
        )
        job.mark_done(report.to_dict(), lease_seq)


class SchedulerPool:
    """N scheduler workers over one store, with graceful drain."""

    def __init__(
        self,
        store: JobStore,
        repo: BugRepository,
        workers: int = 1,
        name: str = "repro-scheduler",
    ) -> None:
        if workers < 1:
            raise ValueError(f"the worker pool needs >= 1 workers (got {workers})")
        self.store = store
        self.repo = repo
        # the idle-capacity guard in JobStore.should_preempt needs to know
        # how many consumers this store has
        store.worker_count = workers
        self._drain = threading.Event()
        self.workers: List[SchedulerWorker] = [
            SchedulerWorker(
                store, repo, name=f"{name}-{index}", drain_flag=self._drain
            )
            for index in range(workers)
        ]

    def start(self) -> "SchedulerPool":
        for worker in self.workers:
            worker.start()
        return self

    def stop(self, timeout: float = 30.0, drain: bool = True) -> None:
        """Stop all workers.

        With *drain* (the default), running campaigns are interrupted at
        their next progress beat and requeued — the journal then carries
        them to the next service start, which resumes each from its
        checkpoint.  Without it, workers still exit between jobs
        but running campaigns run to completion first (tests' hard-stop).
        """
        if drain:
            self._drain.set()
            for job in self.store.list():
                if job.state == "running":
                    job.drain_event.set()
        for worker in self.workers:
            worker._stop.set()
        # one pill per worker: each blocked thread eats exactly one
        self.store.poison(len(self.workers))
        for worker in self.workers:
            if worker._thread.is_alive():
                worker._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return any(worker.alive for worker in self.workers)

    @property
    def alive_count(self) -> int:
        return sum(1 for worker in self.workers if worker.alive)
