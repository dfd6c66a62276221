"""The storage chaos harness and everything it guards.

Covers the fault-injection layer itself (:mod:`repro.robustness.chaos`),
the classified sqlite I/O boundary (:mod:`repro.service.storage`), the
journal's degrade-and-resync path, the bug repository's
quarantine-and-rebuild, the :class:`~repro.service.audit.ServiceAuditor`
invariant checks and repairs, the server's degraded read-only mode over
real HTTP, priority preemption, and per-tenant resource budgets.

The crash-point kill-and-restart matrix lives in ``tests/test_service.py``
(it extends that file's durability suite); this file owns everything
below the service loop.
"""

import errno
import os
import sqlite3
import threading
import time

import pytest

from repro.core import CampaignConfig
from repro.robustness.chaos import (
    SimulatedCrash,
    StorageFaultInjector,
    StorageFaultPlan,
    make_storage_injector,
)
from repro.robustness.governor import ResourceBudgets
from repro.service import BugService
from repro.service.audit import ServiceAuditor
from repro.service.bugrepo import BugRepository
from repro.service.jobs import (
    Job,
    JobStore,
    TenantBudget,
    signature_digest,
)
from repro.service.journal import JobJournal
from repro.service.scheduler import SchedulerPool, run_scheduled
from repro.service.storage import (
    CorruptionDetected,
    SqliteStorage,
    StorageUnavailable,
    crash_points,
    open_database,
    open_or_salvage,
)

from .test_service import _request, _wait


# ---------------------------------------------------------------------------
# fault plan parsing
# ---------------------------------------------------------------------------
class TestStorageFaultPlan:
    def test_presets_and_aliases(self):
        on = StorageFaultPlan.parse("default")
        assert on.locked_rate == 0.05
        assert on.enospc_rate == 0.0 and on.corrupt_rate == 0.0
        assert on.any_enabled
        assert StorageFaultPlan.parse("on") == on

        off = StorageFaultPlan.parse("off")
        assert not off.any_enabled
        assert StorageFaultPlan.parse("") == off

        plan = StorageFaultPlan.parse("busy=0.1,disk_full=0.01,corruption=0.002")
        assert plan.locked_rate == 0.1
        assert plan.enospc_rate == 0.01
        assert plan.corrupt_rate == 0.002

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            StorageFaultPlan.parse("frobnicate=0.1")
        with pytest.raises(ValueError):
            StorageFaultPlan.parse("locked=1.5")
        with pytest.raises(ValueError):
            StorageFaultPlan(locked_rate=0.6, enospc_rate=0.6)
        with pytest.raises(ValueError):
            StorageFaultPlan(corrupt_rate=-0.1)

    def test_make_storage_injector_coercions(self):
        assert make_storage_injector(None) is None
        assert make_storage_injector("off") is None
        assert make_storage_injector(StorageFaultPlan()) is None
        built = make_storage_injector("locked=0.2", seed=7)
        assert isinstance(built, StorageFaultInjector)
        assert built.seed == 7 and built.plan.locked_rate == 0.2
        assert make_storage_injector(built) is built
        with pytest.raises(TypeError):
            make_storage_injector(object())


# ---------------------------------------------------------------------------
# the injector itself
# ---------------------------------------------------------------------------
class TestStorageFaultInjector:
    def test_same_seed_same_schedule(self):
        plan = StorageFaultPlan(locked_rate=0.3, enospc_rate=0.1)

        def schedule(seed):
            injector = StorageFaultInjector(plan, seed=seed)
            outcomes = []
            for _ in range(200):
                try:
                    injector.on_op("journal.update")
                    outcomes.append("ok")
                except sqlite3.OperationalError:
                    outcomes.append("locked")
                except OSError:
                    outcomes.append("enospc")
            return outcomes

        assert schedule(11) == schedule(11)
        assert schedule(11) != schedule(12)

    def test_crash_point_disarms_after_firing(self):
        injector = StorageFaultInjector()
        injector.arm_crash("journal.insert.pre_commit")
        injector.on_crash_point("journal.update.pre_commit")  # wrong point
        with pytest.raises(SimulatedCrash) as crashed:
            injector.on_crash_point("journal.insert.pre_commit")
        assert crashed.value.point == "journal.insert.pre_commit"
        # one death per arming: the restarted incarnation sails through
        injector.on_crash_point("journal.insert.pre_commit")
        assert injector.counters["crash"] == 1

    def test_crash_point_nth_hit(self):
        injector = StorageFaultInjector()
        injector.arm_crash("bugrepo.ingest.post_commit:3")
        injector.on_crash_point("bugrepo.ingest.post_commit")
        injector.on_crash_point("bugrepo.ingest.post_commit")
        with pytest.raises(SimulatedCrash):
            injector.on_crash_point("bugrepo.ingest.post_commit")
        with pytest.raises(ValueError):
            injector.arm_crash("")
        with pytest.raises(ValueError):
            injector.arm_crash("x.y.z:0")

    def test_enospc_prefix_scoping(self):
        injector = StorageFaultInjector()
        injector.arm_enospc("journal")
        with pytest.raises(OSError) as failed:
            injector.on_op("journal.update")
        assert failed.value.errno == errno.ENOSPC
        injector.on_op("bugrepo.ingest")      # other database unaffected
        injector.on_op("journal.load", write=False)  # reads unaffected
        injector.disarm_enospc()
        injector.on_op("journal.update")

    def test_corruption_latch_hits_reads_too(self):
        injector = StorageFaultInjector()
        injector.arm_corruption("bugrepo")
        with pytest.raises(sqlite3.DatabaseError):
            injector.on_op("bugrepo.browse", write=False)
        assert injector.is_corrupted("bugrepo")
        injector.clear_corruption("bugrepo")
        injector.on_op("bugrepo.browse", write=False)

    def test_from_env(self):
        assert StorageFaultInjector.from_env({}) is None
        injector = StorageFaultInjector.from_env({
            "REPRO_CHAOS": "locked=0.2",
            "REPRO_CHAOS_SEED": "42",
            "REPRO_CHAOS_CRASH": "journal.update.pre_commit:2",
            "REPRO_CHAOS_EXIT": "0",
        })
        assert injector is not None
        assert injector.seed == 42
        assert injector.plan.locked_rate == 0.2
        assert injector.crash_point == "journal.update.pre_commit"
        assert injector.crash_hit == 2
        assert not injector.process_exit
        # crash-only arming works without a rate spec, and the exit mode
        # defaults to a real process death for subprocess harnesses
        crash_only = StorageFaultInjector.from_env(
            {"REPRO_CHAOS_CRASH": "bugrepo.ingest.pre_commit"}
        )
        assert crash_only is not None and crash_only.process_exit

    def test_snapshot_shape(self):
        injector = StorageFaultInjector(seed=5)
        injector.arm_corruption("journal")
        snap = injector.snapshot()
        assert snap["seed"] == 5
        assert snap["corrupted"] == ["journal"]
        assert snap["crash_point"] is None
        assert isinstance(snap["counters"], dict)


# ---------------------------------------------------------------------------
# the sqlite write boundary
# ---------------------------------------------------------------------------
def _make_storage(tmp_path, chaos=None, **kwargs):
    storage = SqliteStorage(
        "journal", str(tmp_path / "boundary.sqlite"), chaos=chaos,
        locked_backoff=0.0, **kwargs,
    )
    with storage.write("setup") as db:
        db.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")
    return storage


def _rows(storage):
    with storage.read("load") as db:
        return [row["x"] for row in db.execute("SELECT x FROM t ORDER BY x")]


class TestSqliteStorageBoundary:
    def test_crash_points_enumeration(self):
        points = crash_points()
        assert len(points) == 10
        assert "journal.insert.pre_commit" in points
        assert "bugrepo.triage.post_commit" in points
        assert all(p.endswith(("pre_commit", "post_commit")) for p in points)

    def test_pre_commit_crash_tears_the_transaction(self, tmp_path):
        chaos = StorageFaultInjector()
        storage = _make_storage(tmp_path, chaos)
        chaos.arm_crash("journal.update.pre_commit")
        with pytest.raises(SimulatedCrash):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (1)")
        # torn-transaction semantics: the write vanished atomically and
        # the file is still healthy
        assert _rows(storage) == []
        assert storage.integrity_failure() is None

    def test_post_commit_crash_keeps_the_write(self, tmp_path):
        chaos = StorageFaultInjector()
        storage = _make_storage(tmp_path, chaos)
        chaos.arm_crash("journal.update.post_commit")
        with pytest.raises(SimulatedCrash):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (2)")
        assert _rows(storage) == [2]

    def test_enospc_degrades_until_probe(self, tmp_path):
        chaos = StorageFaultInjector()
        storage = _make_storage(tmp_path, chaos)
        chaos.arm_enospc("journal")
        with pytest.raises(StorageUnavailable):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (3)")
        health = storage.health.snapshot()
        assert health["state"] == "degraded" and not health["needs_rebuild"]
        assert not storage.probe()       # the disk is still "full"
        assert _rows(storage) == []       # reads keep working while degraded
        chaos.disarm_enospc()
        assert storage.probe()
        assert storage.health.ok
        assert storage.health.snapshot()["recoveries"] == 1

    def test_corruption_latches_until_quarantine(self, tmp_path):
        chaos = StorageFaultInjector()
        storage = _make_storage(tmp_path, chaos)
        with storage.write("update") as db:
            db.execute("INSERT INTO t VALUES (4)")
        chaos.arm_corruption("journal")
        with pytest.raises(CorruptionDetected):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (5)")
        assert storage.health.snapshot()["needs_rebuild"]
        # a probe must never un-degrade a corrupt file
        assert not storage.probe()
        assert storage.integrity_failure() == "injected corruption latch"
        quarantined = storage.quarantine()
        assert quarantined == storage.path + ".corrupt-1"
        assert os.path.exists(quarantined)
        assert not os.path.exists(storage.path)
        assert not chaos.is_corrupted("journal")

    def test_transient_locked_is_absorbed(self, tmp_path):
        chaos = StorageFaultInjector(
            StorageFaultPlan(locked_rate=0.3), seed=9
        )
        storage = _make_storage(tmp_path, chaos)
        for value in range(30):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (?)", (value,))
        assert _rows(storage) == list(range(30))
        assert chaos.counters.get("locked", 0) > 0
        assert storage.health.ok

    def test_persistent_lock_contention_exhausts(self, tmp_path):
        chaos = StorageFaultInjector(StorageFaultPlan(locked_rate=1.0))
        storage = _make_storage(tmp_path)
        storage.chaos = chaos  # arm after setup so the schema lands
        with pytest.raises(StorageUnavailable):
            with storage.write("update") as db:
                db.execute("INSERT INTO t VALUES (6)")
        health = storage.health.snapshot()
        assert health["state"] == "degraded"
        assert "contention" in health["reason"]

    def test_programming_errors_surface_raw(self, tmp_path):
        storage = _make_storage(tmp_path)
        with pytest.raises(sqlite3.OperationalError):
            with storage.write("update") as db:
                db.execute("INSERT INTO no_such_table VALUES (1)")


class TestOpenDatabaseContention:
    def test_locked_open_retries_until_the_writer_finishes(self, tmp_path):
        path = str(tmp_path / "contended.sqlite")
        # a plain (rollback-journal) database, so open_database's WAL
        # pragma needs the exclusive lock the holder thread is sitting on
        holder = sqlite3.connect(path)
        holder.execute("CREATE TABLE t (x)")
        holder.commit()
        holder.execute("BEGIN EXCLUSIVE")
        outcome = {}

        def opener():
            try:
                db = open_database(
                    path, timeout=0.05,
                    locked_attempts=20, locked_backoff=0.02,
                )
                (outcome["count"],) = db.execute(
                    "SELECT COUNT(*) FROM t"
                ).fetchone()
                db.close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                outcome["error"] = exc

        thread = threading.Thread(target=opener)
        thread.start()
        time.sleep(0.3)
        holder.commit()  # release the exclusive lock mid-retry
        thread.join(timeout=30)
        holder.close()
        assert not thread.is_alive()
        assert outcome.get("error") is None, outcome
        assert outcome["count"] == 0

    def test_locked_open_exhausts_bounded_attempts(self, tmp_path):
        path = str(tmp_path / "stuck.sqlite")
        holder = sqlite3.connect(path)
        holder.execute("CREATE TABLE t (x)")
        holder.commit()
        holder.execute("BEGIN EXCLUSIVE")
        try:
            with pytest.raises(sqlite3.OperationalError) as failed:
                open_database(
                    path, timeout=0.01,
                    locked_attempts=2, locked_backoff=0.01,
                )
            assert "locked" in str(failed.value).lower()
        finally:
            holder.rollback()
            holder.close()


# ---------------------------------------------------------------------------
# journal degrade + resync
# ---------------------------------------------------------------------------
class TestJournalDegradedSpell:
    def test_lost_writes_resync_from_memory(self, tmp_path):
        chaos = StorageFaultInjector()
        journal = JobJournal(str(tmp_path / "jobs.sqlite"), chaos=chaos)
        store = JobStore(journal=journal)
        first = store.submit("replay", params={"dialect": "virtuoso"})
        assert len(journal.load_rows()) == 1

        chaos.arm_enospc("journal")
        second = store.submit("replay", params={"dialect": "virtuoso"})
        # the write was swallowed: memory is the source of truth, the
        # drop is counted, and the service did not crash
        assert second.state == "queued"
        health = journal.storage.health.snapshot()
        assert health["state"] == "degraded"
        assert health["lost_writes"] >= 1
        assert len(journal.load_rows()) == 1  # reads still answer

        chaos.disarm_enospc()
        assert journal.probe()
        journal.resync(
            [job.row_snapshot() for job in store.list()], at=time.time()
        )
        rows = journal.load_rows()
        assert [row["job_id"] for row in rows] == [
            first.job_id, second.job_id,
        ]
        details = [t["detail"] for t in journal.transitions(second.job_id)]
        assert "resynced after degraded storage spell" in details
        journal.close()

    def test_lost_insert_then_landed_update_audits_clean(self, tmp_path):
        # the order of the race: the job's insert is lost while the journal
        # is degraded, and its next write lands before the resync
        data = tmp_path / "data"
        chaos = StorageFaultInjector()
        journal = JobJournal(str(data / "jobs.sqlite"), chaos=chaos)
        store = JobStore(journal=journal)
        chaos.arm_enospc("journal")
        job = store.submit("replay", params={"dialect": "virtuoso"})
        chaos.disarm_enospc()
        store.cancel(job.job_id)  # an update with a transition
        journal.resync(
            [job.row_snapshot() for job in store.list()], at=time.time()
        )
        chain = journal.transitions(job.job_id)
        journal.close()
        assert chain[0]["detail"].startswith("resynced")
        assert chain[-1]["state"] == "cancelled"
        BugRepository(str(data / "bugs.sqlite"), minimize=False)
        report = ServiceAuditor(data_dir=str(data)).run()
        assert report.errors == []

    def test_constructor_detects_corruption(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        JobJournal(path).close()
        chaos = StorageFaultInjector()
        chaos.arm_corruption("journal")
        with pytest.raises(CorruptionDetected):
            JobJournal(path, chaos=chaos)


# ---------------------------------------------------------------------------
# bug repository quarantine-and-rebuild
# ---------------------------------------------------------------------------
def _finding(statement="SELECT ABS(-1)", function="abs"):
    return {
        "dialect": "virtuoso",
        "function": function,
        "sql": statement,
        "kind": "crash",
        "label": "NPD",
        "pattern": "p1",
    }


class TestBugrepoQuarantineRebuild:
    def test_rebuild_salvages_records(self, tmp_path):
        chaos = StorageFaultInjector()
        path = str(tmp_path / "bugs.sqlite")
        repo = BugRepository(path, minimize=False, chaos=chaos)
        repo.record_finding(_finding(), campaign_id="job-0001")
        repo.record_finding(_finding("SELECT LEN('x')", "len"))
        assert repo.count() == 2

        chaos.arm_corruption("bugrepo")
        with pytest.raises(CorruptionDetected):
            repo.count()
        assert repo.integrity_failure() == "injected corruption latch"

        repo, salvage = open_or_salvage(
            BugRepository, path, chaos=chaos, minimize=False
        )
        quarantined, salvaged = salvage.quarantined, salvage.salvaged
        assert quarantined == path + ".corrupt-1"
        assert salvaged == 2
        assert repo.count() == 2
        assert repo.storage.health.ok
        # the dedup identity survived the rebuild
        _, created = repo.record_finding(_finding())
        assert not created

    def test_constructor_corruption_raises(self, tmp_path):
        path = str(tmp_path / "bugs.sqlite")
        BugRepository(path, minimize=False)
        chaos = StorageFaultInjector()
        chaos.arm_corruption("bugrepo")
        with pytest.raises(CorruptionDetected):
            BugRepository(path, minimize=False, chaos=chaos)


# ---------------------------------------------------------------------------
# the invariant auditor
# ---------------------------------------------------------------------------
def _seed_journal(tmp_path, mutate=None):
    """A journal holding one legally-transitioned job; *mutate* edits the
    final row/transition shape before close."""
    path = str(tmp_path / "jobs.sqlite")
    journal = JobJournal(path)
    job = Job("job-0001", "replay", params={"dialect": "virtuoso"}, seq=1)
    journal.insert(job.to_row())
    if mutate is not None:
        mutate(journal, job)
    journal.close()
    return path


class TestServiceAuditor:
    def test_clean_store_passes(self, tmp_path):
        data = tmp_path / "data"
        journal = JobJournal(str(data / "jobs.sqlite"))
        store = JobStore(journal=journal)
        store.submit("replay", params={"dialect": "virtuoso"})
        journal.close()
        BugRepository(str(data / "bugs.sqlite"), minimize=False)
        report = ServiceAuditor(data_dir=str(data)).run()
        assert report.ok
        assert report.findings == []
        assert set(report.checks) >= {
            "journal.integrity", "bugrepo.integrity",
            "journal.transitions", "journal.leases",
            "bugrepo.dedup",
        }

    def test_illegal_transition_fails_loudly(self, tmp_path):
        def mutate(journal, job):
            row = dict(job.to_row(), state="done")
            journal.update(row, transition="completed", at=time.time())

        _seed_journal(tmp_path, mutate)
        report = ServiceAuditor(data_dir=str(tmp_path)).run(repair=True)
        assert not report.ok  # no automatic repair for a lying journal
        details = [f.detail for f in report.errors]
        assert any("illegal transition" in d for d in details)

    def test_stale_lease_repair_requeues(self, tmp_path):
        def mutate(journal, job):
            row = dict(
                job.to_row(), state="running", started_at=time.time(),
                lease_owner="worker-0", lease_seq=1,
                lease_expires=time.time() - 60.0,
            )
            journal.update(row, transition="claimed by worker-0", at=time.time())

        _seed_journal(tmp_path, mutate)
        auditor = ServiceAuditor(data_dir=str(tmp_path))
        report = auditor.run(repair=True)
        assert report.ok
        lease = [f for f in report.findings if f.check == "journal.leases"]
        assert len(lease) == 1 and lease[0].repaired

        reopened = JobJournal(str(tmp_path / "jobs.sqlite"))
        (row,) = reopened.load_rows()
        assert row["state"] == "queued"
        assert row["retries"] == 1
        details = [t["detail"] for t in reopened.transitions("job-0001")]
        assert "reclaimed by audit" in details
        reopened.close()
        # the repaired journal now audits clean
        assert ServiceAuditor(data_dir=str(tmp_path)).run().ok

    def test_stale_lease_with_exhausted_retries_fails_terminally(self, tmp_path):
        def mutate(journal, job):
            row = dict(
                job.to_row(), state="running", started_at=time.time(),
                retries=2, max_retries=2,
                lease_owner="worker-0", lease_seq=1,
                lease_expires=time.time() - 60.0,
            )
            journal.update(row, transition="claimed by worker-0", at=time.time())

        _seed_journal(tmp_path, mutate)
        report = ServiceAuditor(data_dir=str(tmp_path)).run(repair=True)
        assert report.ok
        reopened = JobJournal(str(tmp_path / "jobs.sqlite"))
        (row,) = reopened.load_rows()
        assert row["state"] == "failed"
        assert "retries exhausted" in row["error"]
        reopened.close()

    def test_orphan_sidecars_reported_and_swept(self, tmp_path):
        ckpt = tmp_path / "checkpoints"
        ckpt.mkdir()
        live = ckpt / "job-0001.ckpt"
        live.write_text("{}")
        (ckpt / "job-0001.ckpt.shard0").write_text("{}")
        orphan = ckpt / "job-9999.ckpt"
        orphan.write_text("{}")

        def mutate(journal, job):
            row = dict(job.to_row(), checkpoint_path=str(live))
            journal.update(row)

        _seed_journal(tmp_path, mutate)
        report = ServiceAuditor(data_dir=str(tmp_path)).run()
        orphans = [
            f for f in report.findings if f.check == "checkpoints.orphans"
        ]
        assert [f.subject for f in orphans] == [str(orphan)]
        assert orphans[0].severity == "warning"
        assert report.ok  # warnings never fail the audit
        assert orphan.exists()  # report-only without repair

        swept = ServiceAuditor(data_dir=str(tmp_path)).run(repair=True)
        assert swept.repaired_count == 1
        assert not orphan.exists()
        # the live job's sidecar and its shard companion survive
        assert live.exists() and (ckpt / "job-0001.ckpt.shard0").exists()

    def test_duplicate_dedup_keys_merge(self, tmp_path):
        # a salvage-rebuild is where duplicates sneak in; fabricate that
        # state with a bugs table missing its UNIQUE constraint
        path = str(tmp_path / "bugs.sqlite")
        db = sqlite3.connect(path)
        db.execute(
            "CREATE TABLE bugs ("
            " id INTEGER PRIMARY KEY AUTOINCREMENT,"
            " dialect TEXT NOT NULL, function TEXT NOT NULL,"
            " statement TEXT NOT NULL, kinds TEXT NOT NULL,"
            " labels TEXT NOT NULL, pattern TEXT NOT NULL DEFAULT '',"
            " peer TEXT NOT NULL DEFAULT '', message TEXT NOT NULL DEFAULT '',"
            " raw_sql TEXT NOT NULL DEFAULT '',"
            " triage TEXT NOT NULL DEFAULT 'new',"
            " last_status TEXT NOT NULL DEFAULT 'fires',"
            " occurrences INTEGER NOT NULL DEFAULT 1,"
            " campaigns TEXT NOT NULL DEFAULT '[]',"
            " created_at REAL NOT NULL, updated_at REAL NOT NULL)"
        )
        now = time.time()
        for kinds, campaigns, occurrences in (
            ('["crash"]', '["job-0001"]', 2),
            ('["divergence"]', '["job-0002"]', 3),
        ):
            db.execute(
                "INSERT INTO bugs (dialect, function, statement, kinds,"
                " labels, campaigns, occurrences, created_at, updated_at)"
                " VALUES ('virtuoso', 'abs', 'SELECT ABS(-1)', ?,"
                " '[\"NPD\"]', ?, ?, ?, ?)",
                (kinds, campaigns, occurrences, now, now),
            )
        db.commit()
        db.close()

        report = ServiceAuditor(data_dir=str(tmp_path)).run(repair=True)
        dedup = [f for f in report.findings if f.check == "bugrepo.dedup"]
        assert len(dedup) == 1 and dedup[0].repaired
        assert report.ok
        repo = BugRepository(path, minimize=False)
        records = repo.list()
        assert len(records) == 1
        merged = records[0]
        assert sorted(merged.kinds) == ["crash", "divergence"]
        assert sorted(merged.campaigns) == ["job-0001", "job-0002"]
        assert merged.occurrences == 5
        assert ServiceAuditor(data_dir=str(tmp_path)).run().ok

    def test_rebuild_journal_salvages_rows(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        store = JobStore(journal=journal)
        store.submit("replay", params={"dialect": "virtuoso"})
        store.submit("replay", params={"dialect": "duckdb"})
        journal.close()

        # a journal that fails its integrity check is quarantined on open
        chaos = StorageFaultInjector()
        chaos.arm_corruption("journal")
        salvaged_journal, salvage = open_or_salvage(
            JobJournal, path, chaos=chaos
        )
        salvaged_journal.close()
        quarantined, salvaged = salvage.quarantined, salvage.salvaged
        assert quarantined == path + ".corrupt-1"
        assert salvaged == 2
        rebuilt = JobJournal(path)
        rows = rebuilt.load_rows()
        assert [row["job_id"] for row in rows] == ["job-0001", "job-0002"]
        details = [t["detail"] for t in rebuilt.transitions("job-0001")]
        assert details[0].startswith("resynced")
        rebuilt.close()
        # the salvaged journal passes the transition-chain check
        assert ServiceAuditor(data_dir=str(tmp_path)).run().ok

    @pytest.mark.parametrize(
        "message", ["database or disk is full", "database is locked"],
    )
    def test_unopenable_database_is_reported_not_raised(
        self, tmp_path, monkeypatch, capsys, message
    ):
        import repro.service.storage as storage
        from repro.cli import main

        _seed_journal(tmp_path)

        def refuse(*args, **kwargs):
            raise sqlite3.OperationalError(message)

        monkeypatch.setattr(storage, "open_database", refuse)
        report = ServiceAuditor(data_dir=str(tmp_path)).run(repair=True)
        assert not report.ok
        (finding,) = report.errors
        assert finding.check == "journal.integrity"
        assert message in finding.detail and not finding.repaired
        assert os.path.exists(tmp_path / "jobs.sqlite")  # not quarantined
        assert main(["audit", "--data-dir", str(tmp_path)]) == 1
        assert "audit FAILED" in capsys.readouterr().out

    def test_audit_cli(self, tmp_path, capsys):
        from repro.cli import main

        data = tmp_path / "data"
        journal = JobJournal(str(data / "jobs.sqlite"))
        store = JobStore(journal=journal)
        store.submit("replay", params={"dialect": "virtuoso"})
        journal.close()
        assert main(["audit", "--data-dir", str(data)]) == 0
        out = capsys.readouterr().out
        assert "audit passed" in out
        assert main(["audit", "--data-dir", str(tmp_path / "absent")]) == 1


# ---------------------------------------------------------------------------
# degraded read-only mode over real HTTP
# ---------------------------------------------------------------------------
class TestDegradedService:
    def test_enospc_turns_mutations_503_and_recovers(self, tmp_path):
        chaos = StorageFaultInjector()
        svc = BugService(str(tmp_path / "data"), chaos=chaos).start()
        try:
            replay = {"kind": "replay", "dialect": "virtuoso"}
            status, first = _request(svc, "POST", "/jobs", replay)
            assert status == 200
            _wait(svc, first["id"])  # quiesce: no in-flight journal writes

            chaos.arm_enospc("journal")
            # the first submission after the disk "fills" still passes
            # the gate (health was ok); its journal write is swallowed
            # and counted, and the job keeps running from memory
            status, lost = _request(svc, "POST", "/jobs", replay)
            assert status == 200

            # now the journal is degraded: mutations are refused...
            status, refused = _request(svc, "POST", "/jobs", replay)
            assert status == 503
            assert "degraded" in refused["error"]
            status, cancel = _request(
                svc, "POST", f"/jobs/{lost['id']}/cancel", {}
            )
            assert status == 503

            # ...while reads keep answering
            status, listing = _request(svc, "GET", "/jobs")
            assert status == 200
            assert len(listing["jobs"]) == 2
            status, health = _request(svc, "GET", "/health")
            assert status == 200
            assert health["status"] == "degraded"
            journal_health = health["storage"]["journal"]
            assert journal_health["state"] == "degraded"
            assert journal_health["lost_writes"] >= 1

            # the disk frees up: the next mutation probes, resyncs the
            # journal from memory, and goes through
            chaos.disarm_enospc()
            status, after = _request(svc, "POST", "/jobs", replay)
            assert status == 200
            status, health = _request(svc, "GET", "/health")
            assert health["status"] == "ok"
            assert health["storage"]["journal"]["state"] == "ok"
            lost_id = lost["id"]
        finally:
            svc.stop()
        # the lost job was resynced into the journal from memory
        journal = JobJournal(str(tmp_path / "data" / "jobs.sqlite"))
        rows = {row["job_id"]: row for row in journal.load_rows()}
        assert lost_id in rows
        details = [
            t["detail"] for t in journal.transitions(lost_id)
        ]
        assert any(d.startswith("resynced") for d in details)
        journal.close()

    def test_corrupt_bugrepo_quarantined_at_boot(self, tmp_path):
        data = tmp_path / "data"
        repo = BugRepository(str(data / "bugs.sqlite"), minimize=False)
        repo.record_finding(_finding())
        chaos = StorageFaultInjector()
        chaos.arm_corruption("bugrepo")
        svc = BugService(str(data), chaos=chaos).start()
        try:
            status, health = _request(svc, "GET", "/health")
            assert status == 200
            assert health["rebuilds"]["bugrepo"]["salvaged"] == 1
            assert health["storage"]["bugrepo"]["state"] == "ok"
            assert health["status"] == "ok"
            assert health["audit"]["ok"]
            status, listing = _request(svc, "GET", "/bugs")
            assert status == 200 and len(listing["bugs"]) == 1
        finally:
            svc.stop()
        assert os.path.exists(str(data / "bugs.sqlite.corrupt-1"))

    def test_live_corruption_degrades_triage(self, tmp_path):
        data = tmp_path / "data"
        chaos = StorageFaultInjector()
        svc = BugService(str(data), chaos=chaos, minimize=False).start()
        try:
            chaos.arm_corruption("bugrepo")
            status, refused = _request(
                svc, "POST", "/bugs/1/triage", {"status": "confirmed"}
            )
            assert status == 503
            # reads of the other subsystem still answer
            status, _ = _request(svc, "GET", "/jobs")
            assert status == 200
        finally:
            chaos.clear_corruption("bugrepo")
            svc.stop()


# ---------------------------------------------------------------------------
# priority preemption
# ---------------------------------------------------------------------------
def _wait_for(predicate, deadline=60.0, message="condition"):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def _pool_fixture(tmp_path, **store_kwargs):
    journal = JobJournal(str(tmp_path / "jobs.sqlite"))
    store = JobStore(
        journal=journal,
        checkpoint_dir=str(tmp_path / "ckpt"),
        backoff_base=0.0,
        **store_kwargs,
    )
    repo = BugRepository(str(tmp_path / "bugs.sqlite"), minimize=False)
    pool = SchedulerPool(store, repo, workers=1).start()
    return journal, store, pool


class TestPreemption:
    LOW = CampaignConfig(dialect="virtuoso", budget=4000, checkpoint_every=200)
    HIGH = CampaignConfig(dialect="virtuoso", budget=500)

    def test_higher_priority_preempts_and_resume_is_identical(self, tmp_path):
        journal, store, pool = _pool_fixture(tmp_path)
        try:
            low = store.submit("campaign", config=self.LOW, priority=0)
            _wait_for(
                lambda: low.progress.get("position", 0) >= 400,
                message="the low-priority campaign to pass two checkpoints",
            )
            high = store.submit("campaign", config=self.HIGH, priority=5)
            _wait_for(
                lambda: high.state == "done",
                message="the high-priority campaign to finish first",
            )
            _wait_for(
                lambda: low.state == "done",
                message="the preempted campaign to resume and finish",
            )
        finally:
            pool.stop(drain=False)
        assert store.preemption_count >= 1
        assert high.finished_at < low.finished_at
        # no retry burned: preemption is a graceful requeue, not a failure
        assert low.retries == 0
        details = [t["detail"] for t in journal.transitions(low.job_id)]
        journal.close()
        assert "preempted by higher-priority job" in details
        # the checkpoint-resumed run is signature-identical to an
        # uninterrupted control
        control = run_scheduled(self.LOW)
        assert low.summary["signature_digest"] == signature_digest(control)
        assert high.summary["signature_digest"] == signature_digest(
            run_scheduled(self.HIGH)
        )

    def test_non_preemptible_jobs_run_to_completion(self, tmp_path):
        shielded = CampaignConfig(
            dialect="virtuoso", budget=3000, preemptible=False
        )
        journal, store, pool = _pool_fixture(tmp_path)
        try:
            low = store.submit("campaign", config=shielded, priority=0)
            _wait_for(
                lambda: low.state == "running"
                and low.progress.get("position", 0) >= 200,
                message="the shielded campaign to get going",
            )
            high = store.submit(
                "campaign", config=self.HIGH, priority=5
            )
            _wait_for(
                lambda: low.state == "done" and high.state == "done",
                message="both campaigns to finish",
            )
        finally:
            pool.stop(drain=False)
            journal.close()
        assert store.preemption_count == 0
        assert low.finished_at < high.finished_at
        assert low.retries == 0

    def test_equal_priority_never_preempts(self, tmp_path):
        journal, store, pool = _pool_fixture(tmp_path)
        try:
            first = store.submit("campaign", config=self.LOW, priority=3)
            _wait_for(
                lambda: first.state == "running"
                and first.progress.get("position", 0) >= 200,
                message="the first campaign to get going",
            )
            second = store.submit("campaign", config=self.HIGH, priority=3)
            _wait_for(
                lambda: first.state == "done" and second.state == "done",
                message="both campaigns to finish",
            )
        finally:
            pool.stop(drain=False)
            journal.close()
        assert store.preemption_count == 0
        assert first.finished_at < second.finished_at

    def test_store_level_disable(self, tmp_path):
        journal, store, pool = _pool_fixture(tmp_path, preemption=False)
        try:
            low = store.submit("campaign", config=self.LOW, priority=0)
            _wait_for(
                lambda: low.state == "running"
                and low.progress.get("position", 0) >= 200,
                message="the low campaign to get going",
            )
            high = store.submit("campaign", config=self.HIGH, priority=5)
            _wait_for(
                lambda: low.state == "done" and high.state == "done",
                message="both campaigns to finish",
            )
        finally:
            pool.stop(drain=False)
            journal.close()
        assert store.preemption_count == 0
        assert low.finished_at < high.finished_at


# ---------------------------------------------------------------------------
# per-tenant budgets
# ---------------------------------------------------------------------------
class TestTenantBudgets:
    def test_parse(self):
        budget = TenantBudget.parse("statements=10000,rows=5000")
        assert budget.statements == 10000
        assert budget.budgets is not None and budget.budgets.rows == 5000
        assert TenantBudget.parse("off") == TenantBudget()
        assert not TenantBudget.parse("").enabled
        with pytest.raises(ValueError):
            TenantBudget.parse("statements=0")
        with pytest.raises(ValueError):
            TenantBudget.parse("statements=1.5")
        with pytest.raises(ValueError):
            TenantBudget.parse("statements=10,statements=20")
        with pytest.raises(ValueError):
            TenantBudget(statements=-5)

    def test_statement_allowance_exhausts_terminally(self, tmp_path):
        journal, store, pool = _pool_fixture(
            tmp_path, tenant_budget=TenantBudget.parse("statements=1000")
        )
        config = CampaignConfig(dialect="virtuoso", budget=600)
        try:
            first = store.submit(
                "campaign", config=config, submitter="alice"
            )
            _wait_for(lambda: first.state == "done", message="alice's first run")
            assert store.tenant_usage() == {"alice": 600}

            second = store.submit(
                "campaign", config=config, submitter="alice"
            )
            _wait_for(
                lambda: second.state == "failed",
                message="alice's over-budget run to fail",
            )
            # terminal on the first attempt: no retries burned against a
            # budget that cannot un-exhaust itself
            assert second.retries == 0
            assert second.error.startswith("resource_exhausted")
            assert "400 of 1000" in second.error

            # budgets are per-submitter: bob is unaffected
            third = store.submit("campaign", config=config, submitter="bob")
            _wait_for(lambda: third.state == "done", message="bob's run")
        finally:
            pool.stop(drain=False)
        details = [t["detail"] for t in journal.transitions(second.job_id)]
        journal.close()
        assert "failed" in details

    def test_tenant_ceilings_override_submitted_budgets(self):
        store = JobStore(
            tenant_budget=TenantBudget(
                budgets=ResourceBudgets.parse("rows=5000")
            )
        )
        submitted = CampaignConfig(
            dialect="virtuoso", budget=100, budgets="rows=999999"
        )
        caged = store.apply_tenant_budgets(submitted)
        assert caged.budgets.rows == 5000
        # without a tenant ceiling the submitted spec stands
        assert JobStore().apply_tenant_budgets(submitted).budgets.rows == 999999

    def test_denial_message_and_charging(self):
        store = JobStore(tenant_budget=TenantBudget(statements=500))
        job = Job(
            "job-0001", "campaign",
            config=CampaignConfig(dialect="virtuoso", budget=600),
        )
        denial = store.tenant_denial(job)
        assert denial is not None and "resource_exhausted" in denial
        small = Job(
            "job-0002", "campaign",
            config=CampaignConfig(dialect="virtuoso", budget=400),
            submitter="alice",
        )
        assert store.tenant_denial(small) is None
        store.charge_tenant("alice", 400)
        assert store.tenant_denial(small) is not None
        # replay jobs carry no config and are never budget-gated
        replay = Job("job-0003", "replay")
        assert store.tenant_denial(replay) is None
