#!/usr/bin/env python
"""CI smoke test: campaign-as-a-service end to end over real HTTP.

1. boot a :class:`repro.service.BugService` on an ephemeral port and
   verify ``/health`` reports a live scheduler worker;
2. submit a 500-statement campaign job over the JSON API and poll the
   streamed-findings cursor while the campaign runs — every finding must
   arrive through the stream before the job reports done;
3. assert the persistent repository deduplicated the findings (one
   record per minimized statement), and that resubmitting the identical
   campaign creates zero new records and runs the minimizer zero times
   (every trigger reuses the repository's memoized canonical statement);
4. run one replay job: every stored trigger must still fire against the
   seeded ground truth, with zero status flips;
5. exercise triage over HTTP, then shut the service down cleanly (the
   worker thread must exit).

Usage: ``PYTHONPATH=src python scripts/ci_service_smoke.py``
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import CampaignConfig  # noqa: E402
from repro.service import BugService  # noqa: E402

DIALECT = "virtuoso"
BUDGET = 500
POLL_DEADLINE = 180.0


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    sys.exit(1)


def request(service, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def wait_for(service, job_id):
    deadline = time.monotonic() + POLL_DEADLINE
    job = None
    while time.monotonic() < deadline:
        _, job = request(service, "GET", f"/jobs/{job_id}")
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.1)
    fail(f"job {job_id} did not finish in {POLL_DEADLINE}s: {job}")


def smoke(data_dir: str) -> None:
    service = BugService(data_dir).start()
    print(f"[1/5] service booted at {service.url}")
    status, health = request(service, "GET", "/health")
    if status != 200 or not health["worker_alive"]:
        fail(f"unhealthy service: {status} {health}")

    print(f"[2/5] submit {BUDGET}-statement {DIALECT} campaign, poll the stream")
    config = CampaignConfig(dialect=DIALECT, budget=BUDGET).to_dict()
    status, job = request(
        service, "POST", "/jobs", {"kind": "campaign", "config": config}
    )
    if status != 200:
        fail(f"submit rejected: {status} {job}")
    job_id = job["id"]
    streamed = []
    cursor = 0
    deadline = time.monotonic() + POLL_DEADLINE
    while time.monotonic() < deadline:
        status, chunk = request(
            service, "GET", f"/jobs/{job_id}/findings?since={cursor}"
        )
        if status != 200:
            fail(f"findings poll failed: {status} {chunk}")
        streamed.extend(chunk["findings"])
        cursor = chunk["next"]
        if chunk["state"] in ("done", "failed"):
            break
        time.sleep(0.1)
    final = wait_for(service, job_id)
    if final["state"] != "done":
        fail(f"campaign job failed: {final.get('error')}")
    bug_count = final["summary"]["bug_count"]
    if bug_count == 0:
        fail(f"{DIALECT} at budget {BUDGET} should find bugs")
    if len(streamed) != bug_count:
        fail(f"stream carried {len(streamed)} findings, result has {bug_count}")
    for finding in streamed:
        print(f"      streamed: [{finding['label']}] {finding['function']}: "
              f"{finding['sql']}")

    print("[3/5] repository dedup: one record per minimized statement")
    if final["ingest"]["new_records"] != bug_count:
        fail(f"expected {bug_count} new records, got {final['ingest']}")
    status, listing = request(service, "GET", "/bugs")
    if len(listing["bugs"]) != bug_count:
        fail(f"repository holds {len(listing['bugs'])} records, "
             f"expected {bug_count}")
    status, rerun = request(
        service, "POST", "/jobs", {"kind": "campaign", "config": config}
    )
    rerun_final = wait_for(service, rerun["id"])
    if rerun_final["ingest"]["new_records"] != 0:
        fail(f"identical campaign must fully dedup: {rerun_final['ingest']}")
    if rerun_final["ingest"]["duplicates"] != bug_count:
        fail(f"expected {bug_count} duplicates: {rerun_final['ingest']}")
    if rerun_final["ingest"]["minimized"] != 0:
        fail(f"an identical rerun must reuse every minimized trigger: "
             f"{rerun_final['ingest']}")

    print("[4/5] replay job: every stored trigger still fires")
    status, replay = request(
        service, "POST", "/jobs", {"kind": "replay", "dialect": DIALECT}
    )
    replay_final = wait_for(service, replay["id"])
    if replay_final["state"] != "done":
        fail(f"replay job failed: {replay_final.get('error')}")
    summary = replay_final["summary"]
    if summary["replayed"] != bug_count or summary["still_firing"] != bug_count:
        fail(f"replay mismatch: {summary}")
    if summary["flipped"] != 0:
        fail(f"no record should flip on a fresh repository: {summary}")

    print("[5/5] triage + clean shutdown")
    record_id = listing["bugs"][0]["id"]
    status, updated = request(
        service, "POST", f"/bugs/{record_id}/triage", {"status": "confirmed"}
    )
    if status != 200 or updated["triage"] != "confirmed":
        fail(f"triage failed: {status} {updated}")
    service.stop()
    if service.pool.alive:
        fail("scheduler workers still alive after stop()")

    print(f"OK: streamed {len(streamed)} findings, {bug_count} deduplicated "
          f"records, replay clean, shutdown clean")


def main() -> None:
    data_dir = tempfile.mkdtemp(prefix="repro-service-smoke-")
    try:
        smoke(data_dir)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
