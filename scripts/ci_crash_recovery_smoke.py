#!/usr/bin/env python
"""CI smoke test: the service survives a SIGKILL and resumes from its journal.

1. start ``repro serve`` as a real subprocess with a durable data dir and
   submit a checkpointed campaign job over the JSON API;
2. SIGKILL the server mid-campaign, after at least one checkpoint has
   been written but long before the budget is exhausted;
3. restart the server on the same data dir: startup recovery must find
   the orphaned ``running`` job in the journal and re-enqueue it;
4. the recovered job must finish ``done`` with ``resumed: true`` in its
   summary (it continued from its checkpoint rather than silently
   starting over, which would sign the same), with a campaign signature
   identical to an uninterrupted in-process control run of the same
   config — resume replays the pre-crash prefix instead of re-fuzzing it;
5. the bug repository must hold exactly one record per control-run bug
   (occurrences == 1): recovery never double-ingests findings.

Usage: ``PYTHONPATH=src python scripts/ci_crash_recovery_smoke.py``
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import CampaignConfig  # noqa: E402
from repro.service.jobs import signature_digest  # noqa: E402
from repro.service.scheduler import run_scheduled  # noqa: E402

DIALECT = "virtuoso"
BUDGET = 20_000
CHECKPOINT_EVERY = 500
KILL_AFTER_POSITION = 2 * CHECKPOINT_EVERY
POLL_DEADLINE = 240.0


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


def start_server(data_dir: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
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
    )
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


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-crash-smoke-")
    config = CampaignConfig(
        dialect=DIALECT, budget=BUDGET, checkpoint_every=CHECKPOINT_EVERY
    )

    print("[1/5] control run: uninterrupted in-process campaign")
    control = run_scheduled(config)
    control_digest = signature_digest(control)
    print(f"      {len(control.bugs)} bugs, digest {control_digest[:16]}…")

    print("[2/5] boot `repro serve`, submit the checkpointed campaign")
    port = free_port()
    proc = start_server(data_dir, port)
    status, job = request(
        port, "POST", "/jobs", {"kind": "campaign", "config": config.to_dict()}
    )
    if status != 200:
        fail(f"submit rejected: {status} {job}")
    job_id = job["id"]

    print(f"[3/5] SIGKILL the server past position {KILL_AFTER_POSITION}")
    deadline = time.monotonic() + POLL_DEADLINE
    position = 0
    while time.monotonic() < deadline:
        status, shown = request(port, "GET", f"/jobs/{job_id}")
        if shown["state"] in ("done", "failed", "cancelled"):
            fail(f"job finished before the kill ({shown['state']}) — "
                 f"raise BUDGET so the crash lands mid-campaign")
        position = (shown.get("progress") or {}).get("position", 0)
        if shown["state"] == "running" and position >= KILL_AFTER_POSITION:
            break
        time.sleep(0.05)
    else:
        fail(f"job never reached position {KILL_AFTER_POSITION}: {position}")
    os.kill(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    checkpoint = os.path.join(data_dir, "checkpoints", f"{job_id}.ckpt")
    if not os.path.exists(checkpoint):
        fail(f"no checkpoint sidecar at {checkpoint} after the kill")
    print(f"      killed at position ~{position}, checkpoint on disk")

    print("[4/5] restart on the same data dir: recovery must resume the job")
    port = free_port()
    proc = start_server(data_dir, port)
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

        print("[5/5] repository: exactly one record per bug, no double ingest")
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

    print(f"OK: SIGKILL at position ~{position}, resumed from checkpoint, "
          f"{len(control.bugs)} records, signatures identical")


if __name__ == "__main__":
    main()
