#!/usr/bin/env python
"""CI smoke test: the storage chaos harness, end to end.

1. **Crash-point sweep.**  For every named storage crash point, a child
   process runs the full service workload (campaign, replay, triage)
   with ``REPRO_CHAOS_CRASH=<point>`` and must die with ``os._exit(137)``
   exactly at that point — a SIGKILL-equivalent mid-write.  A recovery
   child (no chaos variables) then finishes the workload over the same
   data dir.  After every sweep: the :class:`ServiceAuditor` must pass
   and the campaign signature must equal an uninterrupted control.
2. **ENOSPC round trip.**  Arm ENOSPC on the journal under a live
   server: mutations turn 503, reads keep answering, ``/health`` shows
   the degraded subsystem and counts the lost write; disarm, and the
   next mutation re-probes storage and recovers to 200/ok.
3. **Corruption quarantine/rebuild.**  Restart the server on a bug
   repository whose integrity check fails: boot must quarantine the
   file to ``bugs.sqlite.corrupt-1``, rebuild, and salvage every record.
4. **Preemption parity.**  A high-priority job preempts a running
   low-priority campaign; the victim burns no retry, resumes from its
   checkpoint, and both jobs finish with signatures identical to
   uninterrupted controls.
5. **``repro audit`` CLI** exits 0 on the surviving data dir.

Usage: ``PYTHONPATH=src python scripts/ci_chaos_smoke.py``
(``--child DATA_DIR`` is the internal subprocess entry point.)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import CampaignConfig  # noqa: E402
from repro.robustness.chaos import StorageFaultInjector  # noqa: E402
from repro.service import (  # noqa: E402
    BugRepository,
    BugService,
    JobJournal,
    JobStore,
    SchedulerPool,
    ServiceAuditor,
    TERMINAL_STATES,
    crash_points,
    run_scheduled,
    signature_digest,
)

DIALECT = "virtuoso"
#: the smallest workload that exercises every crash point: budget 500
#: finds 3 bugs, so the bugrepo ingest/replay/triage writes all happen
BUDGET = 500
CHILD_TIMEOUT = 240.0
POLL_DEADLINE = 120.0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


# ---------------------------------------------------------------------------
# the child workload: one service-process incarnation over a data dir
# ---------------------------------------------------------------------------
def _await_terminal(job) -> None:
    end = time.monotonic() + POLL_DEADLINE
    while time.monotonic() < end:
        if job.state in TERMINAL_STATES:
            return
        time.sleep(0.02)
    raise AssertionError(f"job {job.job_id} stuck in {job.state!r}")


def run_child(data_dir: str) -> int:
    """Campaign + replay + triage, idempotently, over *data_dir*.

    Chaos comes from the ``REPRO_CHAOS*`` environment; an armed crash
    point kills this process with ``os._exit(137)`` mid-write, so the
    code below only describes the happy path.
    """
    chaos = StorageFaultInjector.from_env()
    journal = JobJournal(os.path.join(data_dir, "jobs.sqlite"), chaos=chaos)
    store = JobStore(
        journal=journal,
        checkpoint_dir=os.path.join(data_dir, "checkpoints"),
        backoff_base=0.0,
    )
    store.recover()
    repo = BugRepository(
        os.path.join(data_dir, "bugs.sqlite"), minimize=False, chaos=chaos
    )
    pool = SchedulerPool(store, repo, workers=1).start()
    campaign = next((j for j in store.list() if j.kind == "campaign"), None)
    if campaign is None:
        campaign = store.submit(
            "campaign", config=CampaignConfig(dialect=DIALECT, budget=BUDGET)
        )
    _await_terminal(campaign)
    if campaign.state != "done":
        print(f"campaign ended {campaign.state}: {campaign.error}")
        return 2
    replay = next((j for j in store.list() if j.kind == "replay"), None)
    if replay is None:
        replay = store.submit("replay", params={"dialect": DIALECT})
    _await_terminal(replay)
    if replay.state != "done":
        print(f"replay ended {replay.state}: {replay.error}")
        return 2
    records = repo.list()
    if not records:
        print("campaign found no bugs to triage")
        return 2
    if records[0].triage == "new":
        repo.set_triage(records[0].record_id, "confirmed")
    pool.stop(drain=False)
    journal.close()
    print(f"DIGEST {campaign.summary['signature_digest']}")
    return 0


def _spawn_child(data_dir: str, crash_at: str = "") -> "subprocess.CompletedProcess":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("REPRO_CHAOS", "REPRO_CHAOS_CRASH", "REPRO_CHAOS_EXIT"):
        env.pop(var, None)
    if crash_at:
        env["REPRO_CHAOS_CRASH"] = crash_at  # exit-137 mode is the default
    return subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", data_dir],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )


# ---------------------------------------------------------------------------
# HTTP plumbing for the in-process server phases
# ---------------------------------------------------------------------------
def request(svc, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        svc.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_http(svc, job_id):
    end = time.monotonic() + POLL_DEADLINE
    while time.monotonic() < end:
        _, job = request(svc, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    fail(f"job {job_id} did not finish over HTTP")


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------
def sweep_crash_points(control_digest: str, root: str) -> str:
    points = crash_points()
    print(f"[2/6] crash-point sweep: {len(points)} points, kill + recover each")
    last_dir = ""
    for point in points:
        data_dir = tempfile.mkdtemp(
            prefix=f"repro-chaos-{point.replace('.', '-')}-", dir=root
        )
        killed = _spawn_child(data_dir, crash_at=point)
        if killed.returncode != 137:
            fail(f"{point}: armed child exited {killed.returncode}, "
                 f"expected 137\n{killed.stdout}{killed.stderr}")
        recovered = _spawn_child(data_dir)
        if recovered.returncode != 0:
            fail(f"{point}: recovery child exited {recovered.returncode}\n"
                 f"{recovered.stdout}{recovered.stderr}")
        digest = ""
        for line in recovered.stdout.splitlines():
            if line.startswith("DIGEST "):
                digest = line.split(" ", 1)[1].strip()
        if digest != control_digest:
            fail(f"{point}: recovered digest {digest!r} != control "
                 f"{control_digest!r} — the torn write changed the campaign")
        report = ServiceAuditor(data_dir=data_dir).run(repair=True)
        if not report.ok:
            fail(f"{point}: auditor rejects the survivors: {report.to_dict()}")
        print(f"      {point}: killed at 137, recovered, audited, "
              f"digest matches")
        last_dir = data_dir
    return last_dir


def enospc_round_trip(data_dir: str) -> None:
    print("[3/6] ENOSPC: degraded read-only mode, then recovery")
    chaos = StorageFaultInjector()
    svc = BugService(
        data_dir, minimize=False, workers=1, chaos=chaos
    ).start()
    try:
        status, first = request(
            svc, "POST", "/jobs", {"kind": "replay", "dialect": DIALECT}
        )
        if status != 200:
            fail(f"baseline submit rejected: {status} {first}")
        wait_http(svc, first["id"])  # quiesce: no in-flight journal writes
        chaos.arm_enospc("journal")
        # the first mutation passes the gate (health was still ok) and its
        # journal write is swallowed + counted as lost
        status, lost = request(
            svc, "POST", "/jobs", {"kind": "replay", "dialect": DIALECT}
        )
        if status != 200:
            fail(f"first post-fault submit should be admitted: {status}")
        status, refused = request(
            svc, "POST", "/jobs", {"kind": "replay", "dialect": DIALECT}
        )
        if status != 503:
            fail(f"degraded journal must 503 mutations: {status} {refused}")
        status, listing = request(svc, "GET", "/jobs")
        if status != 200:
            fail(f"reads must keep serving while degraded: {status}")
        status, health = request(svc, "GET", "/health")
        journal_health = health["storage"]["journal"]
        if health["status"] != "degraded" or journal_health["lost_writes"] < 1:
            fail(f"health must show the degraded journal: {health}")
        chaos.disarm_enospc()
        status, again = request(
            svc, "POST", "/jobs", {"kind": "replay", "dialect": DIALECT}
        )
        if status != 200:
            fail(f"mutations must recover after the fault clears: {status}")
        wait_http(svc, again["id"])
        status, health = request(svc, "GET", "/health")
        if health["storage"]["journal"]["state"] != "ok":
            fail(f"journal health did not recover: {health}")
        print(f"      503 while degraded, reads served, "
              f"{journal_health['lost_writes']} lost write(s) counted, "
              f"recovered to ok")
    finally:
        svc.stop()


def corruption_rebuild(data_dir: str) -> None:
    print("[4/6] corruption: quarantine + rebuild at boot")
    svc = BugService(data_dir, minimize=False, workers=1).start()
    try:
        config = CampaignConfig(dialect=DIALECT, budget=BUDGET).to_dict()
        status, job = request(
            svc, "POST", "/jobs", {"kind": "campaign", "config": config}
        )
        final = wait_http(svc, job["id"])
        expected = final["summary"]["bug_count"]
        if expected < 1:
            fail("the corruption phase needs at least one stored record")
    finally:
        svc.stop()
    chaos = StorageFaultInjector()
    chaos.arm_corruption("bugrepo")
    svc = BugService(data_dir, minimize=False, workers=1, chaos=chaos).start()
    try:
        status, health = request(svc, "GET", "/health")
        rebuilt = (health.get("rebuilds") or {}).get("bugrepo")
        if not rebuilt or rebuilt["salvaged"] != expected:
            fail(f"boot rebuild salvaged {rebuilt}, expected {expected} records")
        status, listing = request(svc, "GET", "/bugs")
        if status != 200 or len(listing["bugs"]) != expected:
            fail(f"rebuilt repository lost records: {status} {listing}")
        quarantined = os.path.join(data_dir, "bugs.sqlite.corrupt-1")
        if not os.path.exists(quarantined):
            fail(f"no quarantined copy at {quarantined}")
    finally:
        svc.stop()
    report = ServiceAuditor(data_dir=data_dir).run(repair=True)
    if not report.ok:
        fail(f"auditor rejects the rebuilt repository: {report.to_dict()}")
    print(f"      quarantined to bugs.sqlite.corrupt-1, "
          f"salvaged {expected}/{expected} records, audit passed")


def preemption_parity(data_dir: str) -> None:
    print("[5/6] preemption: checkpoint-and-requeue, signature parity")
    low_config = CampaignConfig(
        dialect=DIALECT, budget=4000, checkpoint_every=200
    )
    high_config = CampaignConfig(dialect=DIALECT, budget=BUDGET)
    journal = JobJournal(os.path.join(data_dir, "jobs.sqlite"))
    store = JobStore(
        journal=journal,
        checkpoint_dir=os.path.join(data_dir, "checkpoints"),
        backoff_base=0.0,
    )
    repo = BugRepository(os.path.join(data_dir, "bugs.sqlite"), minimize=False)
    pool = SchedulerPool(store, repo, workers=1).start()
    try:
        low = store.submit("campaign", config=low_config, priority=0)
        end = time.monotonic() + POLL_DEADLINE
        while time.monotonic() < end:
            if low.progress.get("position", 0) >= 400:
                break
            time.sleep(0.01)
        else:
            fail("low-priority campaign never reached position 400")
        high = store.submit("campaign", config=high_config, priority=5)
        _await_terminal(high)
        _await_terminal(low)
        if high.state != "done" or low.state != "done":
            fail(f"states after preemption: high={high.state} low={low.state}")
        if store.preemption_count < 1:
            fail("the high-priority job never preempted the running one")
        if low.retries != 0:
            fail(f"preemption burned {low.retries} retries; it must burn none")
        details = [
            t.get("detail", "") for t in journal.transitions(low.job_id)
        ]
        if not any("preempted by higher-priority job" in d for d in details):
            fail(f"no preemption transition journaled: {details}")
        if low.summary["signature_digest"] != signature_digest(
            run_scheduled(low_config)
        ):
            fail("preempted job's resumed signature differs from control")
        if high.summary["signature_digest"] != signature_digest(
            run_scheduled(high_config)
        ):
            fail("preemptor's signature differs from control")
        print(f"      preempted after >=400 statements, resumed, "
              f"both signatures match controls")
    finally:
        pool.stop(drain=False)
        journal.close()


def smoke(root: str) -> None:
    """Every check, with each data dir created under *root*."""
    print("[1/6] control run: uninterrupted in-process campaign")
    control = run_scheduled(CampaignConfig(dialect=DIALECT, budget=BUDGET))
    control_digest = signature_digest(control)
    print(f"      {len(control.bugs)} bugs, digest {control_digest[:16]}…")

    swept_dir = sweep_crash_points(control_digest, root)
    enospc_round_trip(tempfile.mkdtemp(prefix="repro-chaos-enospc-", dir=root))
    corruption_rebuild(tempfile.mkdtemp(prefix="repro-chaos-corrupt-", dir=root))
    preemption_parity(tempfile.mkdtemp(prefix="repro-chaos-preempt-", dir=root))

    print("[6/6] `repro audit` CLI on the last swept data dir")
    audit = subprocess.run(
        [sys.executable, "-m", "repro.cli", "audit", "--data-dir", swept_dir],
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(__file__), "..", "src"
        ) + os.pathsep + os.environ.get("PYTHONPATH", "")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    if audit.returncode != 0:
        fail(f"`repro audit` exited {audit.returncode}:\n"
             f"{audit.stdout}{audit.stderr}")
    print(f"      {audit.stdout.strip().splitlines()[-1]}")

    print(f"OK: {len(crash_points())} crash points survived kill+recover, "
          f"ENOSPC degraded/recovered, corruption rebuilt, "
          f"preemption signature-identical")


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(run_child(sys.argv[2]))
    root = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        smoke(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
