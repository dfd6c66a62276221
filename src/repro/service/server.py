"""The threaded HTTP/JSON front end (``repro serve``).

Campaign-as-a-service: a stdlib-only (:mod:`http.server`) API that
accepts campaign/replay jobs, streams findings while campaigns run, and
exposes the persistent bug repository for browsing, triage, and replay.

Endpoints::

    GET  /health                   service liveness + job/repo counters
    POST /jobs                     submit {"kind": "campaign", "config": {...}}
                                   or     {"kind": "replay", "dialect": ...,
                                           "target": ..., "record_ids": [...]}
    GET  /jobs                     all jobs, oldest first
    GET  /jobs/<id>                one job (state, progress, summary)
    GET  /jobs/<id>/findings?since=N   streamed findings past cursor N
    GET  /jobs/<id>/transitions    the job's journaled state history
    POST /jobs/<id>/cancel         cancel a queued job, or request
                                   cooperative cancellation of a running one
    GET  /bugs?dialect=&triage=    repository records
    GET  /bugs/<id>                one record + its replay history
    POST /bugs/<id>/triage         {"status": "confirmed"}
    POST /shutdown                 graceful stop

Campaign configs arrive as the JSON shape of
:meth:`~repro.core.config.CampaignConfig.to_dict`; unknown keys are a
hard 400, mirroring the library's ``from_dict`` contract.  Everything
binds to ``127.0.0.1`` by default and ``port=0`` picks an ephemeral
port — tests boot a real server per test.

Robustness (the durable-service layer):

* jobs persist in a sqlite **journal** (``jobs.sqlite``, WAL) next to
  the bug repository; on boot the service recovers orphaned work —
  jobs a dead process left ``running`` resume from their checkpoint
  sidecars (``<data-dir>/checkpoints/<job-id>.ckpt``, auto-assigned at
  submission);
* ``workers=N`` scheduler threads claim jobs under leases;
* the admission queue is bounded — past the ``queue_depth`` watermark,
  submissions get **HTTP 429** with a ``Retry-After`` header; request
  bodies past ``max_body_bytes`` get **HTTP 413** before being read;
* shutdown drains gracefully: stop admitting (503), interrupt running
  campaigns at their next progress beat, journal them as ``queued`` for
  the next incarnation, which resumes each from its checkpoint (a
  campaign resumes exactly when its ``config.checkpoint_path`` state
  loads; the job summary's ``resumed`` says whether it did).

Storage failure handling (the chaos-harness layer):

* both databases sit behind the
  :class:`~repro.service.storage.SqliteStorage` boundary; a corrupt
  file found at **boot** is quarantined (``<name>.corrupt-<n>``) and
  rebuilt from whatever pages salvage, with the event reported under
  ``rebuilds`` in ``/health``;
* while a subsystem is **degraded** (ENOSPC, persistent lock
  contention, detected corruption) the service keeps answering reads —
  ``GET /jobs``, ``GET /health``, bug browsing — but mutations that
  need that subsystem get **503** with ``Retry-After``.  Each gate
  first *probes* (one cheap real write): if the spell has passed, the
  journal is resynced from the in-memory store and the request
  proceeds;
* uncaught handler exceptions return a generic JSON 500 envelope —
  exception class name only, never a message or traceback — and the
  connection stays usable;
* on startup (after crash recovery) the
  :class:`~repro.service.audit.ServiceAuditor` checks the journal's
  invariants with ``repair=True``; its summary rides in ``/health``.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..core.config import CampaignConfig
from ..robustness.chaos import StorageFaultInjector
from .audit import ServiceAuditor
from .bugrepo import BugRepository
from .jobs import JobStore, QueueFull, TenantBudget
from .journal import JobJournal
from .scheduler import SchedulerPool
from .storage import StorageError, open_or_salvage

_JOB_RE = re.compile(
    r"^/jobs/(?P<id>[\w-]+)(?P<rest>/findings|/cancel|/transitions)?$"
)
_BUG_RE = re.compile(r"^/bugs/(?P<id>\d+)(?P<rest>/triage|/replays)?$")

#: request bodies past this are refused unread (HTTP 413)
DEFAULT_MAX_BODY_BYTES = 1 << 20


class ServiceError(Exception):
    """An HTTP-visible request error."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


class BugService:
    """The long-running campaign scheduler + bug repository service."""

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        minimize: bool = True,
        default_budgets: Optional[str] = None,
        workers: int = 1,
        queue_depth: Optional[int] = 64,
        submitter_quota: Optional[int] = None,
        lease_seconds: float = 30.0,
        max_retries: int = 2,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        preemption: bool = True,
        tenant_budget: Optional[Union[str, TenantBudget]] = None,
        chaos: Optional[StorageFaultInjector] = None,
    ) -> None:
        self.data_dir = data_dir
        #: per-job ResourceGovernor quota applied to campaign submissions
        #: that don't carry their own 'budgets' (a submitted spec wins)
        self.default_budgets = default_budgets
        self.max_body_bytes = max_body_bytes
        #: the shared storage fault injector (None in production; tests
        #: pass one, ``repro serve`` honours REPRO_CHAOS et al.)
        self.chaos = chaos if chaos is not None else StorageFaultInjector.from_env()
        if isinstance(tenant_budget, str):
            tenant_budget = TenantBudget.parse(tenant_budget)
        if tenant_budget is not None and not tenant_budget.enabled:
            tenant_budget = None
        os.makedirs(data_dir, exist_ok=True)
        #: boot-time quarantine-and-rebuild events (surfaced in /health)
        self.rebuilds: Dict[str, Dict[str, Any]] = {}
        self.repo, bug_salvage = open_or_salvage(
            BugRepository, os.path.join(data_dir, "bugs.sqlite"),
            chaos=self.chaos, minimize=minimize,
        )
        self.journal, journal_salvage = open_or_salvage(
            JobJournal, os.path.join(data_dir, "jobs.sqlite"),
            chaos=self.chaos,
        )
        for name, salvage in (
            ("bugrepo", bug_salvage), ("journal", journal_salvage),
        ):
            if salvage is not None:
                self.rebuilds[name] = {
                    "quarantined": salvage.quarantined,
                    "salvaged": salvage.salvaged,
                }
        self.store = JobStore(
            journal=self.journal,
            checkpoint_dir=os.path.join(data_dir, "checkpoints"),
            max_depth=queue_depth,
            submitter_quota=submitter_quota,
            max_retries=max_retries,
            lease_seconds=lease_seconds,
            preemption=preemption,
            tenant_budget=tenant_budget,
        )
        #: what crash recovery re-enqueued/abandoned at boot
        self.recovered = self.store.recover()
        #: the startup invariant audit, with repairs (its summary rides
        #: in /health)
        self.audit_report = ServiceAuditor(
            store=self.store, repo=self.repo
        ).run(repair=True)
        self.pool = SchedulerPool(self.store, self.repo, workers=workers)
        self._draining = threading.Event()
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self._httpd.daemon_threads = True
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "BugService":
        """Start the scheduler workers and the HTTP listener (background)."""
        self.pool.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-http",
            daemon=True,
        )
        self._serve_thread.start()
        return self

    def stop(self, timeout: float = 30.0, drain: bool = True) -> None:
        """Graceful shutdown.

        Ordered so nothing is lost: (1) stop admitting (submissions get
        503 while existing reads still answer), (2) drain the worker
        pool — running campaigns are interrupted at their next progress
        beat and journaled back to ``queued``, to resume from their
        checkpoints, (3) stop the HTTP listener, (4) close the journal.

        Safe and idempotent from every state: built but never started,
        started, or already stopped.
        """
        self._draining.set()
        self.pool.stop(timeout=timeout, drain=drain)
        if self._serve_thread is not None:
            # shutdown() waits for the serve_forever loop to exit, so only
            # a started service may call it; once that loop has exited,
            # it returns at once
            self._httpd.shutdown()
            self._serve_thread.join(timeout=5.0)
        self._httpd.server_close()
        self.journal.close()

    def serve_forever(self) -> None:
        """Foreground mode (``repro serve``): block until interrupted."""
        self.pool.start()
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self._draining.set()
            self.pool.stop(drain=True)
            self._httpd.server_close()
            self.journal.close()

    # -- request handling (called from handler threads) -----------------
    def handle(
        self, method: str, path: str, query: Dict[str, Any], body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        if method == "GET" and path == "/health":
            return 200, self._health()
        if path == "/jobs":
            if method == "POST":
                return 200, self._submit(body)
            if method == "GET":
                return 200, {"jobs": [j.to_dict() for j in self.store.list()]}
        match = _JOB_RE.match(path)
        if match is not None:
            return self._job_route(method, match, query)
        if path == "/bugs" and method == "GET":
            records = self.repo.list(
                dialect=query.get("dialect"), triage=query.get("triage")
            )
            return 200, {"bugs": [r.to_dict() for r in records]}
        match = _BUG_RE.match(path)
        if match is not None:
            return self._bug_route(method, match, body)
        if method == "POST" and path == "/shutdown":
            # ack first; tearing down from inside the handler would deadlock
            threading.Thread(target=self.stop, daemon=True).start()
            return 200, {"status": "stopping"}
        raise ServiceError(404, f"no route for {method} {path}")

    def _health(self) -> Dict[str, Any]:
        storage = {
            "journal": self.journal.storage.health.snapshot(),
            "bugrepo": self.repo.storage.health.snapshot(),
        }
        degraded = any(sub["state"] != "ok" for sub in storage.values())
        if self._draining.is_set():
            status = "draining"
        elif degraded:
            status = "degraded"
        else:
            status = "ok"
        payload: Dict[str, Any] = {
            "status": status,
            "worker_alive": self.pool.alive,
            "workers": len(self.pool.workers),
            "workers_alive": self.pool.alive_count,
            "queue_depth": self.store.queue_depth,
            "shed": self.store.shed_count,
            "recovered": self.recovered,
            "jobs": self.store.state_counts(),
            "bug_records": self._bug_count(),
            "data_dir": self.data_dir,
            "storage": storage,
            "preemptions": self.store.preemption_count,
        }
        summary = self.audit_report.to_dict()
        summary.pop("findings", None)
        payload["audit"] = summary
        if self.rebuilds:
            payload["rebuilds"] = self.rebuilds
        if self.store.tenant_budget is not None:
            payload["tenant_usage"] = self.store.tenant_usage()
        if self.chaos is not None:
            payload["chaos"] = self.chaos.snapshot()
        return payload

    def _bug_count(self) -> int:
        """The repository count — health must answer even when the
        repository cannot (degraded storage reports -1, not a 500)."""
        try:
            return self.repo.count()
        except StorageError:
            return -1

    # -- degraded-mode gating -------------------------------------------
    def _require_writable(self, *subsystems: str) -> None:
        """Refuse a mutation while its storage subsystem is degraded.

        Probe-first: one cheap real write per degraded subsystem — if it
        succeeds the degraded spell is over (the journal additionally
        resyncs from the in-memory store, which stayed the source of
        truth through the spell) and the mutation proceeds.  Otherwise
        **503** with ``Retry-After``, keeping reads untouched.
        """
        for name in subsystems:
            subsystem = self.journal if name == "journal" else self.repo
            health = subsystem.storage.health
            if health.ok:
                continue
            if not health.snapshot()["needs_rebuild"] and subsystem.probe():
                if name == "journal":
                    self._resync_journal()
                continue
            raise ServiceError(
                503,
                f"{name} storage is degraded "
                f"({health.snapshot()['reason'] or 'unwritable'}); "
                f"mutations are refused until it recovers",
                headers={"Retry-After": "30"},
            )

    def _resync_journal(self) -> None:
        """Repair the journal from memory after a degraded spell ends."""
        try:
            self.journal.resync(
                [job.row_snapshot() for job in self.store.list()],
                at=time.time(),
            )
        except StorageError:
            pass  # still flaky: the next probe-recovery tries again

    def _submit(self, body: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining.is_set():
            raise ServiceError(
                503, "service is draining; resubmit after restart",
                headers={"Retry-After": "30"},
            )
        # admission journals the job: an unwritable journal means the
        # submission would be lost on restart, so degrade to read-only
        self._require_writable("journal")
        kind = body.get("kind", "campaign")
        submitter = str(body.get("submitter", "") or "")
        try:
            priority = int(body.get("priority", 0) or 0)
        except (TypeError, ValueError):
            raise ServiceError(400, "'priority' must be an integer")
        if kind == "campaign":
            raw = body.get("config")
            if not isinstance(raw, dict):
                raise ServiceError(
                    400, "campaign jobs need a 'config' object "
                    "(the CampaignConfig.to_dict shape)"
                )
            if self.default_budgets and not raw.get("budgets"):
                raw = dict(raw, budgets=self.default_budgets)
            try:
                config = CampaignConfig.from_dict(raw)
            except (ValueError, TypeError) as exc:
                raise ServiceError(400, str(exc))
            if not config.dialect:
                raise ServiceError(400, "config.dialect is required")
            # top-level submission fields win; config carries the defaults
            submitter = submitter or config.submitter
            priority = priority or config.priority
            if "resume" in body:
                raise ServiceError(
                    400, "'resume' is not a submission field: a campaign "
                    "resumes from its config.checkpoint_path whenever the "
                    "state saved there loads"
                )
            job = self._admit(
                "campaign", config=config,
                submitter=submitter, priority=priority,
            )
        elif kind == "replay":
            params = {
                "dialect": body.get("dialect"),
                "target": body.get("target"),
                "record_ids": body.get("record_ids"),
            }
            job = self._admit(
                "replay", params=params,
                submitter=submitter, priority=priority,
            )
        else:
            raise ServiceError(400, f"unknown job kind {kind!r}")
        return job.to_dict()

    def _admit(self, kind: str, **kwargs: Any):
        """Submit through admission control, translating overload to 429."""
        try:
            return self.store.submit(kind, **kwargs)
        except QueueFull as full:
            raise ServiceError(
                429, str(full),
                headers={"Retry-After": str(full.retry_after)},
            )

    def _job_route(
        self, method: str, match: "re.Match[str]", query: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        job = self.store.get(match.group("id"))
        if job is None:
            raise ServiceError(404, f"no job {match.group('id')!r}")
        rest = match.group("rest")
        if rest == "/findings" and method == "GET":
            try:
                since = int(query.get("since", 0))
            except (TypeError, ValueError):
                raise ServiceError(400, "'since' must be an integer cursor")
            cursor, findings = job.findings_since(since)
            return 200, {"next": cursor, "state": job.state, "findings": findings}
        if rest == "/cancel" and method == "POST":
            self._require_writable("journal")
            outcome = job.mark_cancelled()
            data = job.to_dict()
            data["cancel"] = outcome or "noop"
            return 200, data
        if rest == "/transitions" and method == "GET":
            return 200, {
                "id": job.job_id,
                "transitions": self.journal.transitions(job.job_id),
            }
        if rest is None and method == "GET":
            return 200, job.to_dict()
        raise ServiceError(404, f"no route for {method} /jobs/...{rest or ''}")

    def _bug_route(
        self, method: str, match: "re.Match[str]", body: Dict[str, Any]
    ) -> Tuple[int, Dict[str, Any]]:
        record_id = int(match.group("id"))
        record = self.repo.get(record_id)
        if record is None:
            raise ServiceError(404, f"no bug record {record_id}")
        rest = match.group("rest")
        if rest is None and method == "GET":
            data = record.to_dict()
            data["replays"] = self.repo.replay_history(record_id)
            return 200, data
        if rest == "/triage" and method == "POST":
            self._require_writable("bugrepo")
            status = body.get("status", "")
            try:
                updated = self.repo.set_triage(record_id, status)
            except ValueError as exc:
                raise ServiceError(400, str(exc))
            return 200, updated.to_dict()
        raise ServiceError(404, f"no route for {method} /bugs/...{rest or ''}")


def _make_handler(service: BugService):
    """Bind a handler class to *service* (http.server instantiates it
    per request, so state rides on a closure, not the instance)."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # silence per-request stderr logging; the service is the interface
        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass

        def _dispatch(self, method: str) -> None:
            parsed = urlparse(self.path)
            query = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            body: Dict[str, Any] = {}
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except (TypeError, ValueError):
                self._reply(400, {"error": "bad Content-Length header"})
                return
            if length > service.max_body_bytes:
                # Refuse without buffering: drain the wire in fixed-size
                # chunks (so the client's write doesn't die on a broken
                # pipe before it can read the status line) but never hold
                # more than one chunk of the oversized body in memory.
                remaining = length
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 65536))
                    if not chunk:
                        break
                    remaining -= len(chunk)
                self._reply(413, {
                    "error": f"request body of {length} bytes exceeds the "
                    f"{service.max_body_bytes}-byte limit"
                })
                self.close_connection = True
                return
            if length:
                try:
                    body = json.loads(self.rfile.read(length).decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    self._reply(400, {"error": "request body is not JSON"})
                    return
                if not isinstance(body, dict):
                    self._reply(400, {"error": "request body must be an object"})
                    return
            try:
                status, payload = service.handle(method, parsed.path, query, body)
            except ServiceError as exc:
                self._reply(exc.status, {"error": exc.message}, exc.headers)
                return
            except StorageError as exc:
                # a degraded subsystem surfaced mid-request: same
                # contract as the mutation gate (retryable, not a crash)
                self._reply(503, {
                    "error": f"{exc.subsystem} storage is degraded; "
                    "retry later"
                }, {"Retry-After": "30"})
                return
            except Exception as exc:  # noqa: BLE001 - keep the server alive
                # generic envelope: the class name is diagnostic enough
                # for a client; messages and tracebacks can carry paths,
                # SQL, and internal state that must not leak on the wire
                self._reply(500, {
                    "error": "internal server error",
                    "exception": type(exc).__name__,
                })
                return
            self._reply(status, payload)

        def _reply(
            self,
            status: int,
            payload: Dict[str, Any],
            headers: Optional[Dict[str, str]] = None,
        ) -> None:
            data = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:  # noqa: N802
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

    return Handler
