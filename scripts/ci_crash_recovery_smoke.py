#!/usr/bin/env python
"""CI smoke test: the service survives a SIGKILL and resumes from its journal.

The whole sequence runs twice: for a serial job and for a ``jobs=2`` job,
whose shards beat the job's progress while they run.

1. start ``repro serve`` as a real subprocess, in its own process group,
   with a durable data dir and submit a checkpointed campaign job over
   the JSON API;
2. SIGKILL the server mid-campaign, after every checkpoint file of the
   job has been written but long before the budget is exhausted; the
   server's process group must then empty within a few seconds (no
   orphaned shard is left running, and writing sidecars), and the
   server's own temporary directory must hold no ``repro-shards-*``
   directory (nothing a killed campaign leaves behind);
3. restart the server on the same data dir: startup recovery must find
   the orphaned ``running`` job in the journal and re-enqueue it;
4. the recovered job must finish ``done`` with ``resumed: true`` in its
   summary (it continued from its checkpoint rather than silently
   starting over, which would sign the same), with a campaign signature
   identical to an uninterrupted in-process control run of the same
   config — resume replays the pre-crash prefix instead of re-fuzzing it;
5. the bug repository must hold exactly one record per control-run bug
   (occurrences == 1): recovery never double-ingests findings;
6. once the server has stopped, ``repro audit --data-dir`` must exit 0:
   the journal written through the kill, recovery and resume holds only
   legal transition chains, live leases and owned sidecars.

Each pass works in one temporary directory (the data dir and the
server's ``TMPDIR``), removed when the pass ends, pass or fail.

Usage: ``PYTHONPATH=src python scripts/ci_crash_recovery_smoke.py``
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from typing import List

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)

from repro.core import CampaignConfig  # noqa: E402
from repro.core.campaign import checkpoint_files  # noqa: E402
from repro.service.jobs import signature_digest  # noqa: E402
from repro.service.scheduler import run_scheduled  # noqa: E402

DIALECT = "virtuoso"
#: per pass (by ``jobs``): the sharded pass runs long enough that an
#: orphaned shard would still be running well past ORPHAN_DEADLINE
BUDGETS = {1: 20_000, 2: 100_000}
CHECKPOINT_EVERY = 500
KILL_AFTER_POSITION = 2 * CHECKPOINT_EVERY
POLL_DEADLINE = 240.0
#: how long orphaned shards may take to notice their parent is gone (one
#: beat: a few hundred statements)
ORPHAN_DEADLINE = 3.0
#: every server this run started, stopped when its pass ends
SERVERS: List[subprocess.Popen] = []


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def request(port, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def start_server(data_dir: str, port: int, tmp_dir: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = tmp_dir
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", data_dir,
            "--port", str(port),
            "--workers", "2",
            "--no-minimize",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    SERVERS.append(proc)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"server exited early with code {proc.returncode}")
        try:
            status, health = request(port, "GET", "/health")
            if status == 200:
                return proc
        except (urllib.error.URLError, OSError, ValueError):
            pass
        time.sleep(0.1)
    fail("server did not come up within 30s")


def wait_group_empty(pgid: int) -> None:
    """Fail unless every process of group *pgid* is gone in time."""
    deadline = time.monotonic() + ORPHAN_DEADLINE
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    fail(f"the killed server left processes in its group {pgid}")


def smoke(jobs: int, root: str) -> None:
    data_dir = os.path.join(root, "data")
    tmp_dir = os.path.join(root, "tmp")
    os.makedirs(tmp_dir)
    config = CampaignConfig(
        dialect=DIALECT, budget=BUDGETS[jobs], checkpoint_every=CHECKPOINT_EVERY,
        jobs=jobs,
    )

    print(f"== jobs={jobs}")
    print("[1/6] control run: uninterrupted in-process campaign")
    control = run_scheduled(config)
    control_digest = signature_digest(control)
    print(f"      {len(control.bugs)} bugs, digest {control_digest[:16]}…")

    print("[2/6] boot `repro serve`, submit the checkpointed campaign")
    port = free_port()
    proc = start_server(data_dir, port, tmp_dir)
    status, job = request(
        port, "POST", "/jobs", {"kind": "campaign", "config": config.to_dict()}
    )
    if status != 200:
        fail(f"submit rejected: {status} {job}")
    job_id = job["id"]
    checkpoints = checkpoint_files(config.replace(
        checkpoint_path=os.path.join(data_dir, "checkpoints", f"{job_id}.ckpt")
    )).values()

    print(f"[3/6] SIGKILL the server past position {KILL_AFTER_POSITION}")
    deadline = time.monotonic() + POLL_DEADLINE
    position = 0
    while time.monotonic() < deadline:
        status, shown = request(port, "GET", f"/jobs/{job_id}")
        if shown["state"] in ("done", "failed", "cancelled"):
            fail(f"job finished before the kill ({shown['state']}) — "
                 f"raise BUDGETS so the crash lands mid-campaign")
        position = (shown.get("progress") or {}).get("position", 0)
        if (
            shown["state"] == "running"
            and position >= KILL_AFTER_POSITION
            and all(os.path.exists(path) for path in checkpoints)
        ):
            break
        time.sleep(0.05)
    else:
        fail(f"job never reached position {KILL_AFTER_POSITION} with every "
             f"checkpoint saved: {position}")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    wait_group_empty(proc.pid)
    leaked = glob.glob(os.path.join(tmp_dir, "repro-shards-*"))
    if leaked:
        fail(f"the killed server left temporary directories behind: {leaked}")
    print(f"      killed at position ~{position}, checkpoints on disk, "
          f"no process left in the server's group, nothing left in its TMPDIR")

    print("[4/6] restart on the same data dir: recovery must resume the job")
    port = free_port()
    proc = start_server(data_dir, port, tmp_dir)
    try:
        status, health = request(port, "GET", "/health")
        requeued = (health.get("recovered") or {}).get("requeued", [])
        if job_id not in requeued:
            fail(f"recovery did not requeue {job_id}: {health.get('recovered')}")
        deadline = time.monotonic() + POLL_DEADLINE
        final = None
        while time.monotonic() < deadline:
            status, final = request(port, "GET", f"/jobs/{job_id}")
            if final["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.2)
        if final is None or final["state"] != "done":
            fail(f"recovered job did not complete: {final}")
        if final["retries"] < 1:
            fail(f"recovered job should count the orphaning as a retry: "
                 f"{final['retries']}")
        if final["summary"].get("resumed") is not True:
            fail(f"recovered job restarted from scratch instead of resuming "
                 f"from its checkpoint: {final['summary'].get('resumed')!r}")
        digest = final["summary"].get("signature_digest")
        if digest != control_digest:
            fail(f"recovered signature {digest} != control {control_digest} — "
                 f"resume did not replay the pre-crash prefix faithfully")
        print(f"      job {job_id} done after resume, digest matches control")

        print("[5/6] repository: exactly one record per bug, no double ingest")
        ingest = final["ingest"]
        if ingest["new_records"] != len(control.bugs) or ingest["duplicates"]:
            fail(f"recovery double-ingested findings: {ingest}")
        status, listing = request(port, "GET", "/bugs")
        if len(listing["bugs"]) != len(control.bugs):
            fail(f"repository holds {len(listing['bugs'])} records, "
                 f"expected {len(control.bugs)}")
        doubled = [r["id"] for r in listing["bugs"] if r["occurrences"] != 1]
        if doubled:
            fail(f"records ingested more than once: {doubled}")
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()

    print("[6/6] `repro audit`: the journal written through the kill, "
          "recovery and resume audits clean")
    audit = subprocess.run(
        [sys.executable, "-m", "repro.cli", "audit", "--data-dir", data_dir],
        env=dict(os.environ, PYTHONPATH=SRC + os.pathsep
                 + os.environ.get("PYTHONPATH", "")),
        capture_output=True, text=True, timeout=60,
    )
    if audit.returncode != 0:
        fail(f"`repro audit` exited {audit.returncode}:\n"
             f"{audit.stdout}{audit.stderr}")
    print(f"      {audit.stdout.strip().splitlines()[-1]}")

    print(f"OK: jobs={jobs}: SIGKILL at position ~{position}, resumed from "
          f"checkpoint, {len(control.bugs)} records, signatures identical, "
          f"audit clean")


def main() -> None:
    for jobs in (1, 2):
        root = tempfile.mkdtemp(prefix="repro-crash-smoke-")
        try:
            smoke(jobs, root)
        finally:
            for proc in SERVERS:
                if proc.poll() is None:
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass  # it exited since the poll
                    proc.wait()
            SERVERS.clear()
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
