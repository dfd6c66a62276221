"""Campaign-as-a-service, end to end over real HTTP.

Boots a :class:`~repro.service.server.BugService` on an ephemeral port,
submits a campaign job through the JSON API, polls the streamed-findings
cursor while the campaign runs, checks the deduplicated repository
records, runs a replay job, and exercises triage/cancel/error paths —
the full lifecycle the CLI's ``repro serve`` offers.

Also pins the API-redesign acceptance bar: a default-config ``repro run``
(serial *and* sharded) produces a byte-identical campaign signature to
calling the library directly.
"""

import functools
import http.client
import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.campaign import Campaign, load_checkpoints
from repro.core.collect import SeedCollector
from repro.dialects import dialect_by_name
from repro.robustness.chaos import SimulatedCrash, StorageFaultInjector
from repro.service import BugService
from repro.service.audit import ServiceAuditor
from repro.core.oracles import (
    ConformanceFinding,
    DiscoveredBug,
    DivergenceFinding,
    MetamorphicFinding,
)
from repro.service.bugrepo import BugRepository, _finding_info
from repro.service.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobStore,
    QueueFull,
    finding_to_dict,
    signature_digest,
)
from repro.service.journal import JobJournal
from repro.service.scheduler import (
    JobInterrupted,
    SchedulerPool,
    SchedulerWorker,
    build_campaign,
    run_scheduled,
)
from repro.service.storage import crash_points


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------
@pytest.fixture
def service(tmp_path):
    svc = BugService(str(tmp_path / "data")).start()
    yield svc
    svc.stop()


def _request(service, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _wait(service, job_id, deadline=120.0):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        _, job = _request(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish: {job}")


class TestServiceEndToEnd:
    def test_submit_stream_dedup_replay(self, service):
        status, health = _request(service, "GET", "/health")
        assert status == 200 and health["worker_alive"]

        # -- submit a campaign job --------------------------------------
        config = CampaignConfig(dialect="virtuoso", budget=500).to_dict()
        status, job = _request(
            service, "POST", "/jobs", {"kind": "campaign", "config": config}
        )
        assert status == 200 and job["state"] == "queued"
        job_id = job["id"]

        # -- poll the streamed-findings cursor while it runs ------------
        streamed = []
        cursor = 0
        end = time.monotonic() + 120
        while time.monotonic() < end:
            status, chunk = _request(
                service, "GET", f"/jobs/{job_id}/findings?since={cursor}"
            )
            assert status == 200
            assert cursor + len(chunk["findings"]) == chunk["next"]
            streamed.extend(chunk["findings"])
            cursor = chunk["next"]
            if chunk["state"] in ("done", "failed"):
                break
            time.sleep(0.1)

        final = _wait(service, job_id)
        assert final["state"] == "done", final.get("error")
        assert final["summary"]["bug_count"] == len(streamed) > 0
        # the stream carried real positions and labels
        assert all(f["label"] and f["position"] >= 0 for f in streamed)

        # -- the repository deduplicated the campaign's findings --------
        assert final["ingest"]["new_records"] == len(streamed)
        status, listing = _request(service, "GET", "/bugs")
        assert len(listing["bugs"]) == len(streamed)
        record = listing["bugs"][0]
        assert record["dialect"] == "virtuoso"
        assert record["kinds"] == ["crash"]

        # resubmitting the same campaign only bumps occurrences
        status, rerun = _request(
            service, "POST", "/jobs", {"kind": "campaign", "config": config}
        )
        rerun_final = _wait(service, rerun["id"])
        assert rerun_final["ingest"]["new_records"] == 0
        assert rerun_final["ingest"]["duplicates"] == len(streamed)
        status, listing = _request(service, "GET", "/bugs")
        assert len(listing["bugs"]) == len(streamed)

        # -- a replay job re-fires every stored trigger -----------------
        status, replay = _request(
            service, "POST", "/jobs", {"kind": "replay", "dialect": "virtuoso"}
        )
        replay_final = _wait(service, replay["id"])
        assert replay_final["state"] == "done"
        summary = replay_final["summary"]
        assert summary["replayed"] == len(streamed)
        assert summary["still_firing"] == len(streamed)
        assert summary["flipped"] == 0

        # -- triage over HTTP ------------------------------------------
        record_id = record["id"]
        status, updated = _request(
            service, "POST", f"/bugs/{record_id}/triage",
            {"status": "confirmed"},
        )
        assert status == 200 and updated["triage"] == "confirmed"
        status, shown = _request(service, "GET", f"/bugs/{record_id}")
        assert shown["triage"] == "confirmed"
        assert shown["replays"]  # the replay job left history

    def test_api_error_paths(self, service):
        status, body = _request(service, "GET", "/nope")
        assert status == 404
        status, body = _request(service, "POST", "/jobs", {"kind": "campaign"})
        assert status == 400 and "config" in body["error"]
        status, body = _request(
            service, "POST", "/jobs",
            {"kind": "campaign", "config": {"dialect": "duckdb", "bogus": 1}},
        )
        assert status == 400 and "bogus" in body["error"]
        # a campaign resumes from its own checkpoint path, never a pointer
        status, body = _request(
            service, "POST", "/jobs",
            {"kind": "campaign", "config": {"dialect": "duckdb"},
             "resume": "elsewhere.ckpt"},
        )
        assert status == 400 and "config.checkpoint_path" in body["error"]
        status, body = _request(
            service, "POST", "/jobs", {"kind": "sabotage"}
        )
        assert status == 400
        status, body = _request(service, "GET", "/jobs/job-9999")
        assert status == 404
        status, body = _request(service, "GET", "/bugs/999")
        assert status == 404

    def test_invalid_config_fails_loudly_not_silently(self, service):
        config = {"dialect": "duckdb", "sandbox": True, "faults": "default"}
        status, body = _request(
            service, "POST", "/jobs", {"kind": "campaign", "config": config}
        )
        assert status == 400
        assert "mutually exclusive" in body["error"]


#: one finding of each kind, and its wire form (key order included)
WIRE_CASES = [
    (
        DiscoveredBug(
            dbms="mariadb", function="reverse", crash_code="NPD",
            pattern="P1.2", sql="SELECT REVERSE('');", stage="execute",
            backtrace=["f0"], message="boom", query_index=8,
        ),
        {"kind": "crash", "label": "NPD", "dialect": "mariadb",
         "function": "reverse", "pattern": "P1.2",
         "sql": "SELECT REVERSE('');", "peer": "", "message": "boom",
         "query_index": 8},
    ),
    (
        DivergenceFinding(
            dbms="duckdb", peer="mysql", function="abs", divergence="value",
            pattern="P2.1", sql="SELECT ABS(-1);", query_index=3,
            own_digest="a", peer_digest="b",
        ),
        {"kind": "divergence", "label": "WRONG", "dialect": "duckdb",
         "function": "abs", "pattern": "P2.1", "sql": "SELECT ABS(-1);",
         "peer": "mysql", "message": "", "query_index": 3},
    ),
    (
        ConformanceFinding(
            dbms="mysql", function="left", pattern="seed",
            sql="SELECT LEFT('ab', 1);", message="out of range",
            query_index=12,
        ),
        {"kind": "conformance", "label": "STRICT", "dialect": "mysql",
         "function": "left", "pattern": "seed",
         "sql": "SELECT LEFT('ab', 1);", "peer": "",
         "message": "out of range", "query_index": 12},
    ),
    (
        MetamorphicFinding(
            dbms="duckdb", function="abs", oracle="tlp",
            divergence="cardinality", pattern="P1.1",
            sql="SELECT k FROM fuzz_t WHERE (i) > 0;", query_index=40,
            own_digest="a", variant_digest="b",
        ),
        {"kind": "tlp", "label": "WRONGCARD", "dialect": "duckdb",
         "function": "abs", "pattern": "P1.1",
         "sql": "SELECT k FROM fuzz_t WHERE (i) > 0;", "peer": "",
         "message": "", "query_index": 40},
    ),
]


class TestFindingWireForm:
    @pytest.mark.parametrize(
        "finding,wire", WIRE_CASES, ids=[wire["kind"] for _, wire in WIRE_CASES]
    )
    def test_one_wire_form_for_jobs_and_ingest(self, finding, wire):
        data = finding_to_dict(finding)
        assert list(data.items()) == list(wire.items())
        # bug-repository ingest reads the same fields, object or wire dict
        info = _finding_info(finding)
        assert info == _finding_info(data)
        assert info == {
            key: str(wire[key]) for key in
            ("dialect", "function", "sql", "kind", "label", "pattern",
             "peer", "message")
        }


class TestJobModel:
    def test_job_states_and_cursor(self):
        store = JobStore()
        job = store.submit("campaign", config=CampaignConfig(dialect="duckdb"))
        assert job.state == "queued" and job.state in JOB_STATES
        claimed = store.claim(owner="w0")
        assert claimed is not None and claimed[0] is job
        job, lease = claimed
        assert job.state == "running"
        bug = run_campaign("virtuoso", budget=500).bugs[0]
        job.add_finding(bug, position=7)
        cursor, first = job.findings_since(0)
        assert cursor == 1 and first[0]["position"] == 7
        _, rest = job.findings_since(cursor)
        assert rest == []
        assert job.mark_done({"bug_count": 1}, lease)
        assert job.to_dict()["summary"]["bug_count"] == 1

    def test_cancelled_jobs_are_not_claimable(self):
        store = JobStore()
        job = store.submit("replay")
        store.cancel(job.job_id)
        assert job.state == "cancelled"
        assert store.claim(owner="w0") is None

    def test_cancel_claim_race_is_a_cas(self):
        # the PR 6 race: a job cancelled between being popped and
        # mark_running was silently revived to 'running'
        store = JobStore()
        job = store.submit("replay")
        store.cancel(job.job_id)
        assert job.mark_running("w0") is False
        assert job.state == "cancelled"

    def test_terminal_transitions_require_the_lease(self):
        store = JobStore()
        job = store.submit("replay")
        _, lease = store.claim(owner="w0")
        # a stale worker (lost lease) cannot finish the job
        assert not job.mark_done({}, lease + 1)
        assert not job.mark_failed("boom", lease + 1)
        assert job.mark_retrying("boom", lease + 1) == ""
        assert job.state == "running"
        assert job.mark_done({"ok": 1}, lease)
        assert job.state == "done"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Job("job-0001", "espresso")

    def test_priority_orders_claims(self):
        store = JobStore()
        low = store.submit("replay", priority=0)
        high = store.submit("replay", priority=5)
        assert store.claim()[0] is high
        assert store.claim()[0] is low

    def test_findings_buffer_is_bounded(self):
        store = JobStore(max_findings=5)
        job = store.submit("campaign", config=CampaignConfig(dialect="duckdb"))
        _, lease = store.claim()
        bug = run_campaign("virtuoso", budget=500).bugs[0]
        for position in range(9):
            job.add_finding(bug, position=position)
        assert job.finding_count == 9
        assert job.findings_truncated == 4
        # the cursor indexes the total stream, not the buffer
        cursor, chunk = job.findings_since(0)
        assert cursor == 9 and len(chunk) == 5
        cursor2, chunk2 = job.findings_since(cursor)
        assert cursor2 == 9 and chunk2 == []
        # mid-buffer cursors still see the stored suffix
        _, tail = job.findings_since(3)
        assert [f["position"] for f in tail] == [3, 4]
        job.mark_done({"bug_count": 9}, lease)
        assert job.to_dict()["summary"]["findings_truncated"] == 4

    def test_queue_watermark_sheds(self):
        store = JobStore(max_depth=2)
        store.submit("replay")
        store.submit("replay")
        with pytest.raises(QueueFull) as excinfo:
            store.submit("replay")
        assert excinfo.value.retry_after > 0
        assert store.shed_count == 1

    def test_submitter_quota_rejects_as_a_state(self):
        store = JobStore(submitter_quota=1)
        ok = store.submit("replay", submitter="alice")
        over = store.submit("replay", submitter="alice")
        other = store.submit("replay", submitter="bob")
        assert ok.state == "queued"
        assert over.state == "rejected" and "quota" in over.error
        assert other.state == "queued"
        # rejected jobs are terminal and never claimable
        claimed_ids = {store.claim()[0].job_id, store.claim()[0].job_id}
        assert over.job_id not in claimed_ids

    def test_lease_expiry_reclaims_with_backoff(self):
        store = JobStore(lease_seconds=0.05, backoff_base=0.01, max_retries=3)
        job = store.submit("replay")
        _, lease = store.claim(owner="w0")
        time.sleep(0.1)
        assert store.reclaim_expired() == [job.job_id]
        assert job.state == "queued" and job.retries == 1
        # ...and the stale worker's completion is refused
        assert not job.mark_done({}, lease)

    def test_heartbeat_prevents_reclaim(self):
        store = JobStore(lease_seconds=0.2)
        job = store.submit("replay")
        _, lease = store.claim(owner="w0")
        for _ in range(3):
            time.sleep(0.05)
            assert job.heartbeat(lease, 0.2)
        assert store.reclaim_expired() == []
        assert job.state == "running"

    def test_retries_exhaust_to_terminal_failed(self):
        store = JobStore(max_retries=1, backoff_base=0.0)
        job = store.submit("replay")
        _, lease = store.claim()
        assert job.mark_retrying("first boom", lease, backoff_base=0.0) == "queued"
        _, lease = store.claim()
        assert job.mark_retrying("second boom", lease, backoff_base=0.0) == "failed"
        assert job.state == "failed" and "second boom" in job.error


class TestSchedulerDispatch:
    def test_build_campaign_dispatches_on_jobs(self):
        # one campaign class: a sharded campaign forks its shards itself
        serial = build_campaign(CampaignConfig(dialect="duckdb"))
        assert type(serial) is Campaign and serial.config.jobs == 1
        sharded = build_campaign(CampaignConfig(dialect="duckdb", jobs=2))
        assert type(sharded) is Campaign and sharded.config.jobs == 2
        with pytest.raises(ValueError, match="dialect"):
            build_campaign(CampaignConfig())

    def test_serial_streaming_hooks_fire(self):
        seen = []
        progress = []
        result = run_scheduled(
            CampaignConfig(dialect="virtuoso", budget=500),
            on_finding=lambda f, pos: seen.append((f.bug_type_label, pos)),
            on_progress=progress.append,
        )
        assert [label for label, _ in seen] == [
            b.bug_type_label for b in result.bugs
        ]
        assert all(pos >= 0 for _, pos in seen)
        assert progress and progress[-1]["budget"] == 500

    def test_sharded_run_streams_each_key_once(self):
        seen = []
        progress = []
        result = run_scheduled(
            CampaignConfig(dialect="virtuoso", budget=1_500, jobs=2),
            on_finding=lambda f, pos: seen.append(f.key),
            on_progress=progress.append,
        )
        assert sorted(seen) == sorted(b.key for b in result.bugs)
        # the shards beat while they run, not once after the merge
        assert len(progress) > 3 and progress[-1]["position"] == 1_500

    def test_resumed_sharded_run_streams_no_key_twice(self, tmp_path):
        """Keys streamed before an interrupt are not streamed again by the
        resumed run, even when another shard finds them."""
        config = CampaignConfig(
            dialect="virtuoso", budget=6_000, jobs=2,
            checkpoint_path=str(tmp_path / "job.ckpt"), checkpoint_every=100,
        )
        seeds = len(SeedCollector(dialect_by_name("virtuoso")).collect())
        streamed = []
        campaign = build_campaign(config)
        campaign.progress_every = 50
        campaign.on_finding = lambda f, pos: streamed.append(f.key)

        def drain(snapshot):
            if snapshot["position"] >= seeds + 1_000:
                raise JobInterrupted("drain")

        campaign.on_progress = drain
        with pytest.raises(JobInterrupted):
            campaign.run()
        assert streamed
        result = run_scheduled(
            config, resume=True, on_finding=lambda f, pos: streamed.append(f.key)
        )
        assert sorted(streamed) == sorted(b.key for b in result.bugs)

    def test_cancelled_sharded_run_stops_within_a_beat(self, tmp_path):
        """A cancel raised in the parent's ``on_progress`` stops every
        shard at its next beat with its sidecar saved; resuming signs
        like an uninterrupted run."""
        import multiprocessing

        config = CampaignConfig(
            dialect="duckdb", budget=20_000, jobs=2,
            checkpoint_path=str(tmp_path / "job.ckpt"), checkpoint_every=1_000,
        )
        seeds = len(SeedCollector(dialect_by_name("duckdb")).collect())
        campaign = build_campaign(config)
        campaign.progress_every = every = 100
        stopped_at = []

        def on_progress(snapshot):
            if snapshot["position"] > seeds:
                stopped_at.append(snapshot["position"])
                raise JobInterrupted("cancel")

        campaign.on_progress = on_progress
        with pytest.raises(JobInterrupted):
            campaign.run()
        assert multiprocessing.active_children() == []
        saved = load_checkpoints(config)
        positions = [saved[w].progress["position"] for w in range(2)]
        # each shard stopped at a beat, at most one beat (plus one still
        # in the queue) past what the parent had seen
        assert all(p % every == 0 for p in positions)
        assert seeds + sum(positions) <= stopped_at[0] + 2 * 2 * every

        resumed = run_scheduled(config, resume=True)
        control = run_scheduled(config.replace(checkpoint_path=None))
        assert resumed.signature() == control.signature()


class TestSchedulerFailurePaths:
    """Worker crash isolation, poison pills, lease reclamation."""

    def _pool(self, tmp_path, workers=1, **store_kwargs):
        store_kwargs.setdefault("backoff_base", 0.0)
        store = JobStore(
            checkpoint_dir=str(tmp_path / "ckpt"), **store_kwargs
        )
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(store, repo, workers=workers)
        return store, repo, pool

    def _wait_state(self, job, states, deadline=30.0):
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if job.state in states:
                return job.state
            time.sleep(0.02)
        raise AssertionError(f"job stuck in {job.state!r}, wanted {states}")

    def test_worker_exception_marks_failed_with_traceback(self, tmp_path):
        store, repo, pool = self._pool(tmp_path, max_retries=0)
        # an unknown dialect blows up inside build_campaign
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="not-a-dbms")
        )
        pool.start()
        try:
            assert self._wait_state(job, ("failed",)) == "failed"
            assert "Traceback" in job.error
            assert pool.alive  # the worker survived the job
        finally:
            pool.stop(drain=False)

    def test_failed_jobs_retry_before_turning_terminal(self, tmp_path):
        store, repo, pool = self._pool(tmp_path, max_retries=2)
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="not-a-dbms")
        )
        pool.start()
        try:
            self._wait_state(job, ("failed",))
            assert job.retries == 2
        finally:
            pool.stop(drain=False)

    def test_poison_pills_stop_every_worker(self, tmp_path):
        store, repo, pool = self._pool(tmp_path, workers=4)
        pool.start()
        assert pool.alive_count == 4
        pool.stop(drain=False)  # one pill per worker
        assert pool.alive_count == 0

    def test_multi_worker_drains_mixed_queue_with_no_double_runs(self, tmp_path):
        store, repo, pool = self._pool(tmp_path, workers=4)
        jobs = []
        for index in range(6):
            jobs.append(store.submit(
                "campaign",
                config=CampaignConfig(dialect="virtuoso", budget=300),
            ))
            jobs.append(store.submit("replay"))
        pool.start()
        try:
            for job in jobs:
                assert self._wait_state(job, ("done",)) == "done"
            # lease uniqueness: every job was claimed exactly once
            assert all(job.lease_seq == 1 for job in jobs)
            assert all(job.retries == 0 for job in jobs)
        finally:
            pool.stop(drain=False)

    def test_lease_expiry_reclamation_end_to_end(self, tmp_path):
        store, repo, pool = self._pool(
            tmp_path, workers=1, lease_seconds=0.05, max_retries=3
        )
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="virtuoso", budget=300)
        )
        # a wedged worker claimed the job and went silent
        claimed = store.claim(owner="wedged")
        assert claimed is not None and claimed[0] is job
        time.sleep(0.1)
        pool.start()  # a healthy worker reclaims and completes it
        try:
            assert self._wait_state(job, ("done",)) == "done"
            assert job.retries == 1 and job.lease_seq == 2
        finally:
            pool.stop(drain=False)

    def test_sharded_job_keeps_its_lease(self, tmp_path):
        """A ``jobs=2`` job renews its lease at every shard beat: it runs
        for more than three leases beside an idle second worker, is
        claimed once, and streams each merged finding key exactly once."""
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        store = JobStore(
            journal=journal, checkpoint_dir=str(tmp_path / "ckpt"),
            lease_seconds=0.5, backoff_base=0.0,
        )
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        merged = []
        record_result = repo.record_result

        def keep_result(result, **kwargs):
            merged.append(result)
            return record_result(result, **kwargs)

        repo.record_result = keep_result
        pool = SchedulerPool(store, repo, workers=2).start()
        job = store.submit(
            "campaign",
            config=CampaignConfig(dialect="duckdb", budget=20_000, jobs=2),
        )
        try:
            assert self._wait_state(job, TERMINAL_STATES, 120) == "done", job.error
        finally:
            pool.stop(drain=False)
        assert merged[0].wall_seconds > 3 * store.lease_seconds
        claims = [t for t in journal.transitions(job.job_id)
                  if t["state"] == "running"]
        assert len(claims) == 1 and job.retries == 0
        _, streamed = job.findings_since(0)
        keys = [(entry["function"], entry["label"]) for entry in streamed]
        assert len(keys) == len(set(keys))
        assert set(keys) == merged[0].bug_keys()

    def test_cooperative_cancel_of_a_running_campaign(self, tmp_path):
        store, repo, pool = self._pool(tmp_path, workers=1)
        job = store.submit(
            "campaign",
            config=CampaignConfig(dialect="virtuoso", budget=200_000),
        )
        pool.start()
        try:
            self._wait_state(job, ("running",))
            assert job.mark_cancelled() == "pending"
            assert self._wait_state(job, ("cancelled",)) == "cancelled"
        finally:
            pool.stop(drain=False)


class TestDurabilityAndRecovery:
    """The journal: jobs survive the process; orphans resume."""

    def test_journal_round_trips_jobs(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        store = JobStore(journal=journal)
        config = CampaignConfig(dialect="duckdb", budget=777, priority=2)
        job = store.submit(
            "campaign", config=config, submitter="alice", priority=2
        )
        _, lease = store.claim(owner="w0")
        job.mark_done({"bug_count": 3}, lease)
        journal.close()

        reloaded = JobStore(journal=JobJournal(path))
        twin = reloaded.get(job.job_id)
        assert twin is not None
        assert twin.state == "done"
        assert twin.submitter == "alice" and twin.priority == 2
        assert twin.config.budget == 777
        assert twin.summary == {"bug_count": 3}
        # the id sequence continues across the restart
        assert reloaded.submit("replay").job_id != job.job_id

    def test_transitions_are_audited(self, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        store = JobStore(journal=journal)
        job = store.submit("replay")
        _, lease = store.claim(owner="w0")
        job.mark_done({}, lease)
        states = [t["state"] for t in journal.transitions(job.job_id)]
        assert states == ["queued", "running", "done"]

    def test_recovery_requeues_orphaned_running_jobs(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        store = JobStore(
            journal=journal, checkpoint_dir=str(tmp_path / "ckpt")
        )
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="virtuoso", budget=400)
        )
        assert store.claim(owner="doomed") is not None  # then the host dies
        journal.close()

        # ...the next service incarnation boots over the same journal
        reborn = JobStore(
            journal=JobJournal(path), checkpoint_dir=str(tmp_path / "ckpt"),
            backoff_base=0.0,
        )
        report = reborn.recover()
        twin = reborn.get(job.job_id)
        assert report["requeued"] == [job.job_id]
        assert twin.state == "queued" and twin.retries == 1

        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(reborn, repo, workers=1).start()
        try:
            end = time.monotonic() + 30
            while twin.state != "done" and time.monotonic() < end:
                time.sleep(0.02)
            assert twin.state == "done"
            # recovery is invisible in the outcome: same digest as a
            # clean run of the same config
            control = run_scheduled(twin.config)
            from repro.service import signature_digest
            assert twin.summary["signature_digest"] == signature_digest(control)
        finally:
            pool.stop(drain=False)

    def test_journaled_config_with_retired_fields_replays(self, tmp_path):
        """A journal written while configs carried ``statement_cache`` and
        ``compile`` still boots, and its orphaned job runs to the same
        digest as a clean run."""
        import sqlite3

        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        store = JobStore(journal=journal, checkpoint_dir=str(tmp_path / "ckpt"))
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="virtuoso", budget=400)
        )
        assert store.claim(owner="doomed") is not None
        journal.close()
        db = sqlite3.connect(path)
        with db:
            (config,) = db.execute(
                "SELECT config FROM jobs WHERE job_id=?", (job.job_id,)
            ).fetchone()
            stored = {**json.loads(config), "statement_cache": True,
                      "compile": False}
            db.execute(
                "UPDATE jobs SET config=? WHERE job_id=?",
                (json.dumps(stored, sort_keys=True), job.job_id),
            )
        db.close()

        reborn = JobStore(
            journal=JobJournal(path), checkpoint_dir=str(tmp_path / "ckpt"),
            backoff_base=0.0,
        )
        assert reborn.recover()["requeued"] == [job.job_id]
        twin = reborn.get(job.job_id)
        assert twin.config == job.config
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(reborn, repo, workers=1).start()
        try:
            end = time.monotonic() + 30
            while twin.state != "done" and time.monotonic() < end:
                time.sleep(0.02)
            assert twin.state == "done"
            control = run_scheduled(twin.config)
            assert twin.summary["signature_digest"] == signature_digest(control)
        finally:
            pool.stop(drain=False)

    def test_recovery_exhausts_retries_to_failed(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        store = JobStore(journal=journal, max_retries=0)
        store.submit("replay")
        assert store.claim(owner="doomed") is not None
        journal.close()
        reborn = JobStore(journal=JobJournal(path), max_retries=0)
        report = reborn.recover()
        assert len(report["failed"]) == 1
        job = reborn.get(report["failed"][0])
        assert job.state == "failed" and "orphaned" in job.error

    def test_graceful_drain_requeues_with_resume(self, tmp_path):
        journal = JobJournal(str(tmp_path / "jobs.sqlite"))
        store = JobStore(
            journal=journal, checkpoint_dir=str(tmp_path / "ckpt")
        )
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(store, repo, workers=1).start()
        job = store.submit(
            "campaign",
            config=CampaignConfig(
                dialect="virtuoso", budget=200_000, checkpoint_every=200
            ),
        )
        end = time.monotonic() + 30
        while job.state != "running" and time.monotonic() < end:
            time.sleep(0.02)
        # let it get past the first checkpoint so the drain can resume
        end = time.monotonic() + 30
        while not job.progress.get("position") and time.monotonic() < end:
            time.sleep(0.02)
        pool.stop(drain=True)
        assert job.state == "queued"
        assert job.retries == 0  # drain is not a failure
        # the next start resumes from the state saved at the config's path
        assert load_checkpoints(job.config)

    def test_interrupted_sharded_job_resumes(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        ckpt = str(tmp_path / "ckpt")
        journal = JobJournal(path)
        store = JobStore(journal=journal, checkpoint_dir=ckpt)
        job = store.submit(
            "campaign",
            config=CampaignConfig(
                dialect="virtuoso", budget=1_500, jobs=2, checkpoint_every=100
            ),
        )
        assert store.claim(owner="doomed") is not None
        # the doomed worker's shards save their state, then the host dies
        seeds = len(SeedCollector(dialect_by_name("virtuoso")).collect())

        def die(snapshot):
            if snapshot["position"] >= seeds + 300:
                raise JobInterrupted("drain")

        with pytest.raises(JobInterrupted):
            run_scheduled(job.config, on_progress=die)
        journal.close()

        reborn = JobStore(
            journal=JobJournal(path), checkpoint_dir=ckpt, backoff_base=0.0
        )
        assert reborn.recover()["requeued"] == [job.job_id]
        twin = reborn.get(job.job_id)
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(reborn, repo, workers=1).start()
        try:
            end = time.monotonic() + 60
            while twin.state != "done" and time.monotonic() < end:
                time.sleep(0.02)
            assert twin.state == "done", twin.error
            assert twin.summary["resumed"] is True
            control = run_scheduled(twin.config.replace(checkpoint_path=None))
            assert twin.summary["signature_digest"] == signature_digest(control)
        finally:
            pool.stop(drain=False)

    def test_drained_job_with_an_old_format_checkpoint_starts_over(
        self, tmp_path
    ):
        path = str(tmp_path / "jobs.sqlite")
        ckpt = str(tmp_path / "ckpt")
        journal = JobJournal(path)
        store = JobStore(journal=journal, checkpoint_dir=ckpt)
        repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
        pool = SchedulerPool(store, repo, workers=1).start()
        job = store.submit(
            "campaign",
            config=CampaignConfig(
                dialect="virtuoso", budget=3_000, checkpoint_every=200
            ),
        )
        end = time.monotonic() + 30
        while not os.path.exists(job.checkpoint_path) and time.monotonic() < end:
            time.sleep(0.02)
        pool.stop(drain=True)
        assert job.state == "queued"
        # an upgrade leaves the checkpoint in an older, unloadable format
        with open(job.checkpoint_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 2
        with open(job.checkpoint_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        journal.close()

        reborn = JobStore(
            journal=JobJournal(path), checkpoint_dir=ckpt, backoff_base=0.0
        )
        reborn.recover()
        twin = reborn.get(job.job_id)
        pool = SchedulerPool(reborn, repo, workers=1).start()
        try:
            end = time.monotonic() + 60
            while twin.state not in TERMINAL_STATES and time.monotonic() < end:
                time.sleep(0.02)
            assert twin.state == "done", twin.error
            assert twin.retries == 0
            control = run_scheduled(twin.config.replace(checkpoint_path=None))
            assert twin.summary["signature_digest"] == signature_digest(control)
        finally:
            pool.stop(drain=False)


class TestServiceOverloadProtection:
    """HTTP-level robustness: 429 load shedding, 413 body caps."""

    def test_queue_watermark_returns_429_with_retry_after(self, tmp_path):
        svc = BugService(
            str(tmp_path / "data"), queue_depth=2, workers=1
        ).start()
        try:
            # jam the single worker with a long campaign, then fill up
            config = CampaignConfig(dialect="virtuoso", budget=200_000)
            _request(svc, "POST", "/jobs",
                     {"kind": "campaign", "config": config.to_dict()})
            small = CampaignConfig(dialect="virtuoso", budget=300).to_dict()
            statuses = []
            for _ in range(6):
                status, _body = _request(
                    svc, "POST", "/jobs",
                    {"kind": "campaign", "config": small},
                )
                statuses.append(status)
            assert 429 in statuses
            # the Retry-After header rides on the 429
            request = urllib.request.Request(
                svc.url + "/jobs",
                data=json.dumps(
                    {"kind": "campaign", "config": small}
                ).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            try:
                urllib.request.urlopen(request, timeout=30)
                raise AssertionError("expected HTTP 429")
            except urllib.error.HTTPError as error:
                assert error.code == 429
                assert error.headers.get("Retry-After")
            # the server stays responsive under shed load
            status, health = _request(svc, "GET", "/health")
            assert status == 200 and health["shed"] >= 2
        finally:
            svc.stop()

    def test_oversized_body_is_413(self, service):
        big = json.dumps({"pad": "x" * (2 << 20)}).encode()
        request = urllib.request.Request(
            service.url + "/jobs",
            data=big,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=30)
            raise AssertionError("expected HTTP 413")
        except urllib.error.HTTPError as error:
            assert error.code == 413

    def test_submitter_quota_over_http(self, tmp_path):
        svc = BugService(
            str(tmp_path / "data"), submitter_quota=1, workers=1
        ).start()
        try:
            config = CampaignConfig(
                dialect="virtuoso", budget=200_000
            ).to_dict()
            status, first = _request(
                svc, "POST", "/jobs",
                {"kind": "campaign", "config": config, "submitter": "alice"},
            )
            assert status == 200
            status, second = _request(
                svc, "POST", "/jobs",
                {"kind": "campaign", "config": config, "submitter": "alice"},
            )
            assert status == 200 and second["state"] == "rejected"
            assert "quota" in second["error"]
        finally:
            svc.stop()


class TestRunSignatureParity:
    """The acceptance bar: the redesigned entry points change nothing
    about what a default-config campaign computes."""

    def test_serial_cli_path_matches_library(self):
        direct = run_campaign("duckdb", budget=600)
        via_scheduler = run_scheduled(
            CampaignConfig(dialect="duckdb", budget=600)
        )
        assert direct.signature() == via_scheduler.signature()

    def test_sharded_cli_path_matches_library(self):
        direct = run_campaign("duckdb", budget=600)
        via_scheduler = run_scheduled(
            CampaignConfig(dialect="duckdb", budget=600, jobs=4)
        )
        assert direct.signature() == via_scheduler.signature()


# ---------------------------------------------------------------------------
# crash-point matrix: kill at every named storage crash point, restart,
# audit, and demand a signature identical to an uninterrupted control
# ---------------------------------------------------------------------------
#: budget 500 is the smallest virtuoso workload that actually finds bugs
#: (3 of them) — smaller budgets would leave the bugrepo crash points
#: with nothing to fire on
_MATRIX_CONFIG = CampaignConfig(dialect="virtuoso", budget=500)


@functools.lru_cache(maxsize=1)
def _matrix_control_digest():
    """The signature an uninterrupted run of the matrix workload yields."""
    return signature_digest(run_scheduled(_MATRIX_CONFIG))


class TestCrashPointMatrix:
    """Every named storage crash point, exercised as a process death.

    One incarnation = journal + store + repo + worker pool over the same
    on-disk files, running a scripted workload (campaign, replay, triage).
    The armed crash point "kills" the incarnation mid-write — either the
    worker thread dies silently or the main thread aborts the script —
    and the next incarnation recovers from whatever the crash left on
    disk.  After the workload finally completes: the auditor must pass,
    and the campaign signature must match an uninterrupted control.
    """

    @staticmethod
    def _await_terminal(pool, job, deadline=120.0):
        """True when *job* went terminal; False when the worker died."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if job.state in TERMINAL_STATES:
                return True
            if not pool.alive:
                return False  # the simulated kill took the worker down
            time.sleep(0.02)
        raise AssertionError(f"job {job.job_id} stuck in {job.state!r}")

    def _incarnation(self, base, chaos):
        """One service-process lifetime; returns (crashed, summary)."""
        journal = JobJournal(os.path.join(base, "jobs.sqlite"), chaos=chaos)
        store = JobStore(
            journal=journal,
            checkpoint_dir=os.path.join(base, "checkpoints"),
            backoff_base=0.0,
        )
        store.recover()
        repo = BugRepository(
            os.path.join(base, "bugs.sqlite"), minimize=False, chaos=chaos
        )
        pool = SchedulerPool(store, repo, workers=1).start()
        crashed = False
        summary = None
        try:
            # the workload is idempotent find-or-submit so a restarted
            # incarnation continues the journaled jobs instead of
            # duplicating them
            campaign = next(
                (j for j in store.list() if j.kind == "campaign"), None
            )
            if campaign is None:
                campaign = store.submit("campaign", config=_MATRIX_CONFIG)
            if not self._await_terminal(pool, campaign):
                crashed = True
            else:
                assert campaign.state == "done", campaign.error
                summary = dict(campaign.summary)
                replay = next(
                    (j for j in store.list() if j.kind == "replay"), None
                )
                if replay is None:
                    replay = store.submit(
                        "replay", params={"dialect": "virtuoso"}
                    )
                if not self._await_terminal(pool, replay):
                    crashed = True
                    summary = None
                else:
                    assert replay.state == "done", replay.error
                    records = repo.list()
                    assert records, "the campaign found no bugs to triage"
                    if records[0].triage == "new":
                        repo.set_triage(records[0].record_id, "confirmed")
        except SimulatedCrash:
            # a crash point fired on this thread (submit / triage writes)
            crashed = True
            summary = None
        finally:
            pool.stop(drain=False, timeout=30)
            if crashed:
                # die like SIGKILL: no close(), no final commit — leave
                # the journal exactly as the torn write left it
                journal.abandon()
            else:
                journal.close()
        return crashed, summary

    @pytest.mark.parametrize("point", crash_points())
    def test_kill_restart_audit_signature(self, tmp_path, point):
        chaos = StorageFaultInjector()
        chaos.arm_crash(point)
        base = str(tmp_path)
        summary = None
        for _ in range(4):  # the armed point fires once, then disarms
            crashed, result = self._incarnation(base, chaos)
            if not crashed:
                summary = result
                break
        assert summary is not None, (
            f"workload never completed after dying at {point}"
        )
        assert chaos.counters.get("crash") == 1, (
            f"crash point {point} never fired"
        )
        # the survivors must satisfy every service invariant...
        report = ServiceAuditor(data_dir=base).run(repair=True)
        assert report.ok, report.to_dict()
        # ...and the campaign must have computed exactly what an
        # uninterrupted run computes
        assert summary["signature_digest"] == _matrix_control_digest()


# ---------------------------------------------------------------------------
# internal-error envelope: a poisoned handler must not leak or wedge
# ---------------------------------------------------------------------------
class TestInternalErrorEnvelope:
    def test_poisoned_handler_returns_json_500_and_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        svc = BugService(str(tmp_path / "data")).start()
        try:
            def poisoned():
                raise ZeroDivisionError("secret internal detail")

            # /health calls store.state_counts; poisoning it makes the
            # handler itself blow up mid-request
            monkeypatch.setattr(svc.store, "state_counts", poisoned)
            connection = http.client.HTTPConnection(
                svc.host, svc.port, timeout=30
            )
            try:
                connection.request("GET", "/health")
                response = connection.getresponse()
                raw = response.read()
                assert response.status == 500
                payload = json.loads(raw)  # still a JSON envelope
                assert payload == {
                    "error": "internal server error",
                    "exception": "ZeroDivisionError",
                }
                # no traceback, message, or path leaks on the wire
                text = raw.decode()
                assert "Traceback" not in text
                assert "secret internal detail" not in text
                assert str(tmp_path) not in text

                # the same keep-alive connection serves the next request
                connection.request("GET", "/jobs")
                response = connection.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["jobs"] == []
            finally:
                connection.close()
            # and fresh connections are fine too: the service survived
            status, health = _request(svc, "GET", "/health")
            assert status == 500  # still poisoned, still enveloped
            assert health["exception"] == "ZeroDivisionError"
        finally:
            svc.stop()


# ---------------------------------------------------------------------------
# checkpoint sidecar GC: terminal jobs leave no litter behind
# ---------------------------------------------------------------------------
class TestSidecarGC:
    @staticmethod
    def _litter(path):
        """Create the sidecar plus every companion the writer can leave."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        for suffix in ("", ".tmp", ".shard0", ".shard1"):
            with open(path + suffix, "w") as sidecar:
                sidecar.write("{}")

    def test_done_sweeps_store_owned_sidecars(self, tmp_path):
        ckpt_dir = str(tmp_path / "checkpoints")
        store = JobStore(checkpoint_dir=ckpt_dir)
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="duckdb", budget=100)
        )
        path = job.checkpoint_path
        assert os.path.dirname(os.path.abspath(path)) == os.path.abspath(
            ckpt_dir
        )
        self._litter(path)
        claimed, lease_seq = store.claim(owner="w0")
        assert claimed is job
        job.mark_done({"bug_count": 0}, lease_seq)
        assert os.listdir(ckpt_dir) == []

    def test_cancel_while_queued_sweeps_too(self, tmp_path):
        ckpt_dir = str(tmp_path / "checkpoints")
        store = JobStore(checkpoint_dir=ckpt_dir)
        job = store.submit(
            "campaign", config=CampaignConfig(dialect="duckdb", budget=100)
        )
        self._litter(job.checkpoint_path)
        assert store.cancel(job.job_id) is job
        assert job.state == "cancelled"
        assert os.listdir(ckpt_dir) == []

    def test_user_owned_checkpoint_survives(self, tmp_path):
        # a checkpoint_path outside the store's directory is the user's
        # file: terminal-state GC must not touch it
        mine = tmp_path / "mine.ckpt"
        mine.write_text("{}")
        store = JobStore(checkpoint_dir=str(tmp_path / "checkpoints"))
        job = store.submit(
            "campaign",
            config=CampaignConfig(
                dialect="duckdb", budget=100, checkpoint_path=str(mine)
            ),
        )
        _, lease_seq = store.claim(owner="w0")
        job.mark_done({"bug_count": 0}, lease_seq)
        assert mine.exists()
