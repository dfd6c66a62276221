"""The four workloads and the processes that run them.

Every unit of work runs in a fresh child process, so no in-process or
on-disk cache survives from one unit to the next.  A campaign unit is one
``child.py`` process running one campaign; a service unit is one
``repro serve --workers 1`` process driven by a single-threaded
closed-loop client in this process.  No workload runs more than two
busy processes or holds more than one client connection, which fits the
two-core machine the sizes were chosen on.

Workload names are the contract later changes cite; ``BENCHMARK.json``
and ``README.md`` say why each one is in the benchmark.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
#: scratch space for children (service data dirs, shard transport files):
#: the benchmark reads and writes only inside its checkout
TMP = os.path.join(RESULTS, "tmp")

#: the simulated dialects the service workload rotates over
SERVICE_DIALECTS = (
    "clickhouse", "duckdb", "mariadb", "monetdb", "mysql", "postgresql",
    "virtuoso",
)

#: per workload: what runs and its sizes ("full" is the measured size,
#: "smoke" the seconds-long check size)
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "expr-serial": {
        "kind": "campaign",
        "config": {"statement_family": "expression", "oracles": "crash", "jobs": 1},
        "budget": {"full": 20_000, "smoke": 2_000},
    },
    "pred-metamorphic": {
        "kind": "campaign",
        "config": {"statement_family": "predicate",
                   "oracles": "crash,tlp,norec", "jobs": 1},
        "budget": {"full": 3_000, "smoke": 600},
    },
    "expr-jobs2": {
        "kind": "campaign",
        "config": {"statement_family": "expression", "oracles": "crash", "jobs": 2},
        "budget": {"full": 20_000, "smoke": 2_000},
    },
    "service-mixed": {
        "kind": "service",
        "jobs": {"full": 70, "smoke": 7},
        "budget": {"full": 700, "smoke": 500},
        "checkpoint_every": 250,
    },
}

#: service client: jobs in flight, poll period, read burst cadence
MAX_IN_FLIGHT = 2
POLL_SECONDS = 0.02
BURST_EVERY = 10

#: wall-clock cap on any one child process
CHILD_TIMEOUT = 150.0


class BenchmarkError(Exception):
    """The workload could not run as defined (not a wrong result)."""


def campaign_config(workload: str, size: str, seed: int) -> Dict[str, Any]:
    spec = WORKLOADS[workload]
    return dict(spec["config"], dialect="duckdb", budget=spec["budget"][size],
                seed=seed)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = TMP
    return env


class Child:
    """A child process whose stdout is read line by line under a deadline
    and whose exit is reaped with ``os.wait4`` for its peak RSS."""

    def __init__(self, argv: List[str], timeout: float = CHILD_TIMEOUT) -> None:
        os.makedirs(TMP, exist_ok=True)
        self.started = time.monotonic()
        self.deadline = self.started + timeout
        # its own process group, so a failed run can stop the child's
        # children (shard workers) too
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        self._buffer = b""
        self.rss_mb = 0.0

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.proc.returncode is None:
            self._kill()
            self._reap()
            # wait (bounded) for the rest of the group to go too
            for _ in range(500):
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def readline(self) -> Optional[str]:
        """The next stdout line, or None at end of output."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError(f"{self.proc.args[1]} timed out")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                line, self._buffer = self._buffer, b""
                return line.decode() if line else None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def message(self, key: str) -> Any:
        """Read lines until a JSON object carrying *key*; return its value."""
        while True:
            line = self.readline()
            if line is None:
                raise BenchmarkError(f"child exited before reporting {key!r}")
            if line.startswith("{"):
                data = json.loads(line)
                if key in data:
                    return data[key]

    def finish(self) -> None:
        """Drain stdout, reap, and require a clean exit."""
        while self.readline() is not None:
            pass
        code = self._reap()
        if code != 0:
            raise BenchmarkError(f"{self.proc.args[1:3]} exited with {code}")

    def _reap(self) -> int:
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                self._kill()
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode


# ---------------------------------------------------------------------------
# campaign workloads
# ---------------------------------------------------------------------------
def _campaign_argv(workload: str, size: str, seed: int) -> List[str]:
    return [sys.executable, os.path.join(HERE, "child.py"),
            "--workload", workload, "--size", size, "--seed", str(seed)]


def campaign_setup(workload: str, size: str, seed: int) -> Dict[str, float]:
    """Seconds from spawning a child until its campaign is built, and the
    child's speed factor over that time."""
    with Child(_campaign_argv(workload, size, seed) + ["--setup-only"]) as child:
        factor = child.message("speed_factor")
        elapsed = time.monotonic() - child.started
        child.finish()
    return {"setup_s": elapsed, "speed_factor": factor}


def campaign_unit(
    workload: str, size: str, seed: int, trace_prefix: Optional[str] = None
) -> Dict[str, Any]:
    argv = _campaign_argv(workload, size, seed)
    if trace_prefix is not None:
        argv += ["--trace", trace_prefix]
    with Child(argv) as child:
        child.message("ready")
        result = child.message("result")
        child.finish()
    result["rss_mb"] = child.rss_mb
    return result


# ---------------------------------------------------------------------------
# the service workload
# ---------------------------------------------------------------------------
def _serve_argv(data_dir: str, speed_path: str, period_s: float,
                trace_prefix: Optional[str]) -> List[str]:
    argv = [sys.executable, os.path.join(HERE, "serve.py"), speed_path,
            str(period_s)]
    if trace_prefix is not None:
        argv += ["--trace", trace_prefix]
    return argv + ["serve", "--host", "127.0.0.1", "--port", "0",
                   "--data-dir", data_dir, "--workers", "1"]


class Client:
    """One connection per request, as ``urllib`` clients make them; times
    every GET as an API read.

    (A keep-alive connection would time the server's two-write replies
    against the client's delayed ACK instead: ~40 ms per request.)
    """

    def __init__(self, url: str) -> None:
        host, port = url.rsplit("/", 1)[-1].split(":")
        self.address = (host, int(port))
        self.requests = 0
        self.non_2xx = 0
        self.reads_ms: List[float] = []

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        conn = http.client.HTTPConnection(*self.address, timeout=60)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.requests += 1
        if not 200 <= response.status < 300:
            self.non_2xx += 1
        if method == "GET":
            self.reads_ms.append(elapsed_ms)
        return response.status, payload


class Service:
    """A ``repro serve`` child (through ``serve.py``) in a fresh data
    directory."""

    def __init__(self, trace_prefix: Optional[str] = None,
                 period_s: float = speed.PERIOD_S) -> None:
        self.data_dir = os.path.join(TMP, f"service-{os.getpid()}")
        self.speed_path = self.data_dir + ".speed"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.child = Child(_serve_argv(self.data_dir, self.speed_path,
                                       period_s, trace_prefix))
        try:
            line = self.child.readline() or ""
            if "listening on " not in line:
                raise BenchmarkError(f"repro serve did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].strip()
            status, _ = Client(self.url).call("GET", "/health")
            if status != 200:
                raise BenchmarkError(f"/health answered {status}")
            #: spawn until the first 200 from /health
            self.setup_s = time.monotonic() - self.child.started
        except BaseException:
            self.child.__exit__()
            raise

    def stop(self) -> float:
        """Shut down gracefully (SIGINT); return the run's speed factor."""
        try:
            self.child.proc.send_signal(signal.SIGINT)
            self.child.finish()
            with open(self.speed_path, encoding="utf-8") as fh:
                return speed.factor([int(line) for line in fh if line.strip()])
        finally:
            self.child.__exit__()
            shutil.rmtree(self.data_dir, ignore_errors=True)
            if os.path.exists(self.speed_path):
                os.remove(self.speed_path)


def service_setup() -> Dict[str, float]:
    service = Service(period_s=speed.SETUP_PERIOD_S)
    return {"setup_s": service.setup_s, "speed_factor": service.stop()}


def service_unit(
    size: str, seed: int, trace_prefix: Optional[str] = None
) -> Dict[str, Any]:
    """Submit the workload's jobs in a closed loop and collect every job.

    The client keeps at most ``MAX_IN_FLIGHT`` jobs submitted, polls each
    every ``POLL_SECONDS`` and, after every ``BURST_EVERY``-th completion,
    reads ``/bugs``, ``/jobs``, the job's findings and ``/health``.  Job
    *i* runs dialect ``i + seed`` (mod 7) with campaign seed ``i``.
    """
    spec = WORKLOADS["service-mixed"]
    n_jobs, budget = spec["jobs"][size], spec["budget"][size]
    service = Service(trace_prefix)
    try:
        client = Client(service.url)
        inflight: Dict[str, float] = {}
        jobs: List[Dict[str, Any]] = []
        submitted = 0
        started = time.monotonic()
        while len(jobs) < n_jobs:
            while len(inflight) < MAX_IN_FLIGHT and submitted < n_jobs:
                config = {
                    "dialect": SERVICE_DIALECTS[(submitted + seed) % len(SERVICE_DIALECTS)],
                    "budget": budget,
                    "seed": submitted,
                    "checkpoint_every": spec["checkpoint_every"],
                }
                sent = time.monotonic()
                status, job = client.call(
                    "POST", "/jobs", {"kind": "campaign", "config": config}
                )
                if status != 200:
                    raise BenchmarkError(f"job submission answered {status}: {job}")
                inflight[job["id"]] = sent
                submitted += 1
            time.sleep(POLL_SECONDS)
            for job_id in list(inflight):
                _, job = client.call("GET", f"/jobs/{job_id}")
                if job.get("state") not in ("done", "failed", "cancelled"):
                    continue
                job["latency_s"] = time.monotonic() - inflight.pop(job_id)
                jobs.append(job)
                if len(jobs) % BURST_EVERY == 0:
                    for path in ("/bugs", "/jobs", f"/jobs/{job_id}/findings",
                                 "/health"):
                        client.call("GET", path)
        wall_s = time.monotonic() - started
        reads_ms = list(client.reads_ms)
        _, health = client.call("GET", "/health")
    finally:
        speed_factor = service.stop()
    return {
        "jobs": jobs,
        "wall_s": wall_s,
        "reads_ms": reads_ms,
        "requests": client.requests,
        "non_2xx": client.non_2xx,
        "bug_records": health.get("bug_records"),
        "rss_mb": service.child.rss_mb,
        "speed_factor": speed_factor,
    }


def job_phases(jobs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median queue wait, run, campaign and post-campaign time per job."""
    done = [job for job in jobs if job.get("state") == "done"]
    if not done:
        return {}
    run = [job["finished_at"] - job["started_at"] for job in done]
    campaign = [job["summary"]["wall_seconds"] for job in done]
    return {
        "service.queue_wait_s_p50": statistics.median(
            job["started_at"] - job["created_at"] for job in done
        ),
        "service.run_s_p50": statistics.median(run),
        "service.campaign_s_p50": statistics.median(campaign),
        "service.post_campaign_s_p50": statistics.median(
            r - c for r, c in zip(run, campaign)
        ),
    }
