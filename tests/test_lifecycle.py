"""The job lifecycle is one table, shared by the store and the auditor.

Every path a :class:`~repro.service.jobs.JobStore` can take a job down
is driven on one journal, and the offline
:class:`~repro.service.audit.ServiceAuditor` must find every journaled
chain legal: the transitions the store writes and the edges the auditor
accepts come from the same :data:`~repro.service.jobs.LEGAL_EDGES`.
A stale lease repaired offline must also land exactly where the live
service's own reclaim puts it.
"""

import time

import pytest

from repro.robustness.chaos import StorageFaultInjector
from repro.service.audit import ServiceAuditor
from repro.service.jobs import Job, JobStore
from repro.service.journal import JobJournal


def _transition_errors(report):
    return [f for f in report.findings if f.check == "journal.transitions"]


def test_an_illegal_edge_is_refused_before_any_write():
    job = Job("job-0001", "replay")
    with pytest.raises(ValueError, match="illegal job transition"):
        job._move("queued", "done", "completed")
    assert job.state == "queued"


def test_every_store_path_audits_clean(tmp_path):
    data = tmp_path / "data"
    path = str(data / "jobs.sqlite")
    chaos = StorageFaultInjector()
    journal = JobJournal(path, chaos=chaos)
    store = JobStore(
        journal=journal, checkpoint_dir=str(data / "checkpoints"),
        max_retries=1, backoff_base=0.0, submitter_quota=4,
    )

    def claim(job):
        claimed = store.claim(owner="w0")
        assert claimed is not None and claimed[0] is job
        return claimed[1]

    # claim -> done
    done = store.submit("replay")
    assert done.mark_done({}, claim(done))
    # retry until retries are exhausted
    retried = store.submit("replay")
    assert retried.mark_retrying("boom", claim(retried), backoff_base=0.0) == "queued"
    assert retried.mark_retrying("boom", claim(retried), backoff_base=0.0) == "failed"
    # drain requeue and preempt requeue, then cancel while running
    moved = store.submit("replay")
    assert moved.requeue(claim(moved), detail="requeued by drain")
    assert moved.requeue(claim(moved), detail="preempted by higher-priority job")
    lease = claim(moved)
    assert moved.mark_cancelled() == "pending"
    assert moved.finish_cancelled(lease)
    # cancel while queued
    queued = store.submit("replay")
    assert store.cancel(queued.job_id).state == "cancelled"
    # quota reject: four active jobs fill alice's quota of four
    active = [store.submit("replay", submitter="alice") for _ in range(4)]
    assert store.submit("replay", submitter="alice").state == "rejected"
    # lease-expiry reclaim
    expiring = active[0]
    claim(expiring)
    expiring.lease_expires = time.time() - 1.0
    assert store.reclaim_expired() == [expiring.job_id]
    # a lost-write spell across a claim and a completion, then a resync
    chaos.arm_enospc("journal")
    claimed = store.claim(owner="w0")
    assert claimed is not None
    claimed[0].mark_done({}, claimed[1])
    chaos.disarm_enospc()
    assert journal.probe()
    journal.resync([job.row_snapshot() for job in store.list()], at=time.time())
    # boot recover(): a job left running when the process died
    orphan = store.claim(owner="doomed")
    assert orphan is not None
    journal.close()
    reborn = JobStore(
        journal=JobJournal(path), checkpoint_dir=str(data / "checkpoints"),
        max_retries=1, backoff_base=0.0,
    )
    report = reborn.recover()
    assert orphan[0].job_id in report["requeued"] + report["failed"]
    reborn.journal.close()

    report = ServiceAuditor(data_dir=str(data)).run()
    assert _transition_errors(report) == []
    assert report.ok, report.to_dict()


@pytest.mark.parametrize("retries", [0, 1])
def test_live_reclaims_journal_the_retry_count(tmp_path, retries):
    journal = JobJournal(str(tmp_path / "jobs.sqlite"))
    store = JobStore(journal=journal, max_retries=1, backoff_base=1.0)
    job = store.submit("replay")
    job.retries = retries
    store.claim(owner="w0")
    job.lease_expires = time.time() - 1.0
    assert store.reclaim_expired() == [job.job_id]
    detail = journal.transitions(job.job_id)[-1]["detail"]
    journal.close()
    assert detail == ("retry 1/1 in 1.0s" if retries == 0 else "retries exhausted")
    assert job.error == "lease expired; attempt abandoned"


def _stale_journal(path, retries):
    """A journal holding one job whose worker died mid-run."""
    journal = JobJournal(path)
    store = JobStore(journal=journal, max_retries=2)
    job = store.submit("replay")
    job.retries = retries
    store.claim(owner="w0")
    with job._lock:
        job.lease_expires = time.time() - 60.0
        job._persist()
    journal.close()


@pytest.mark.parametrize("retries", [0, 2])
def test_offline_repair_reclaims_like_the_live_service(tmp_path, retries):
    offline = tmp_path / "offline"
    live = tmp_path / "live"
    for data in (offline, live):
        _stale_journal(str(data / "jobs.sqlite"), retries)

    before = time.time()
    assert ServiceAuditor(data_dir=str(offline)).run(repair=True).ok
    journal = JobJournal(str(live / "jobs.sqlite"))
    assert ServiceAuditor(store=JobStore(journal=journal)).run(repair=True).ok
    journal.close()

    rows = []
    for data in (offline, live):
        reopened = JobJournal(str(data / "jobs.sqlite"))
        (row,) = reopened.load_rows()
        rows.append(row)
        reopened.close()
    fields = ("state", "retries", "error", "lease_owner", "lease_expires")
    assert {f: rows[0][f] for f in fields} == {f: rows[1][f] for f in fields}
    if retries == 0:
        # one retry burned, and the requeue waits out the store's backoff
        assert [row["state"] for row in rows] == ["queued", "queued"]
        assert all(row["next_attempt_at"] >= before + 1.0 for row in rows)
        assert rows[0]["error"] == "reclaimed by audit; attempt abandoned"
    else:
        assert [row["state"] for row in rows] == ["failed", "failed"]
        assert rows[0]["error"] == "reclaimed by audit; retries exhausted"
