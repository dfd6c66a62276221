"""Process-isolated dialect workers (``--sandbox``).

The fault layer survives *injected* noise on a simulated clock; this module
survives *real* pathologies: a statement that wedges the Python interpreter,
blows the C stack, or OOMs the process would otherwise take the whole
campaign down with it.  SQUIRREL/SQLancer-style harnesses isolate each
target in its own process for exactly this reason — the SOFT paper's
Docker-container-per-DBMS workflow is the same idea one level up.

Architecture:

* :class:`SandboxedConnection` mirrors the
  :class:`~repro.engine.connection.Connection` contract (``execute`` returns
  a ``Result`` or raises ``SQLError``/``ServerCrashed``/``ConnectionClosed``)
  but runs the dialect's server in a **subprocess worker**.
* Parent and worker speak a **length-prefixed pickle protocol** over a
  socketpair: 4-byte big-endian length, then a pickled message dict.
  Oversized replies are refused worker-side (a blown-up result set cannot
  OOM the parent).
* Every request is bounded by a **real wall-clock deadline** (alongside —
  not replacing — the simulated-clock :class:`~repro.robustness.Watchdog`).
  A worker that misses it is SIGKILLed and respawned, and the statement
  surfaces as :class:`WorkerHung` (the runner's ``timeout`` outcome).
* A worker that *dies* — hard crash, ``os._exit``, or an unexpected
  exception in the harness code itself — is detected via EOF (or its
  last-gasp ``dying`` message), respawned with a fresh server, and the
  statement surfaces as :class:`WorkerCrashed` (the runner's
  ``harness_crash`` outcome) instead of an uncaught traceback.

:class:`ContainmentState` is the campaign-side crash-loop layer: statements
that killed a worker are quarantined (never re-executed, including across
checkpoint/resume), and per-function-family circuit breakers
(:class:`~repro.robustness.policy.CircuitBreaker`) open after N consecutive
worker kills on one family, skipping the rest of that family's stream.

The sandbox requires the ``fork`` start method (workers inherit the
campaign's dialect instance, with any logic flaws the oracle pipeline
installed on it; sockets don't cross a ``spawn`` boundary) and is
mutually exclusive with fault injection and coverage tracking — the fault
injector simulates infra noise in-process, while the sandbox contains the
real thing.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import sys
import traceback
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from ..engine.connection import ConnectionClosed, ServerCrashed
from ..engine.errors import (
    CRASH_CLASSES,
    CrashSignal,
    ResourceError,
    ResourceExhausted,
    SQLError,
)
from .governor import ResourceBudgets, make_governor
from .policy import CircuitBreaker
from .watchdog import DEFAULT_REAL_DEADLINE_SECONDS, RealDeadline

if TYPE_CHECKING:
    from ..dialects.base import Dialect

_HEADER = struct.Struct("!I")

#: default real wall-clock deadline per sandboxed request, in seconds
DEFAULT_WALL_DEADLINE_SECONDS = DEFAULT_REAL_DEADLINE_SECONDS

#: default cap on one protocol message (a result set bigger than this is
#: refused worker-side as a resource kill, protecting the parent's memory)
DEFAULT_MAX_MESSAGE_BYTES = 32 * 1024 * 1024

#: consecutive worker kills on one function family before its breaker opens
DEFAULT_FAMILY_BREAKER_THRESHOLD = 3


class SandboxError(Exception):
    """Sandbox infrastructure failure (protocol violation, no fork, ...)."""


class WorkerCrashed(Exception):
    """The subprocess worker died executing a statement (harness crash).

    The worker has already been respawned with a fresh server by the time
    this is raised; the runner records the statement as the
    ``harness_crash`` outcome and the campaign quarantines it.
    """


class WorkerHung(WorkerCrashed):
    """The worker blew the real wall-clock deadline and was SIGKILLed."""


class _WorkerGone(Exception):
    """Internal: the protocol socket hit EOF (the worker process died)."""


@dataclass(frozen=True)
class SandboxConfig:
    """Knobs for the subprocess sandbox (picklable primitives only)."""

    wall_deadline_seconds: float = DEFAULT_WALL_DEADLINE_SECONDS
    breaker_threshold: int = DEFAULT_FAMILY_BREAKER_THRESHOLD
    #: statements quarantined before the campaign starts (known killers)
    quarantine: Tuple[str, ...] = ()
    max_message_bytes: int = DEFAULT_MAX_MESSAGE_BYTES

    def __post_init__(self) -> None:
        if self.wall_deadline_seconds <= 0:
            raise ValueError("wall_deadline_seconds must be > 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.max_message_bytes < 4096:
            raise ValueError("max_message_bytes must be >= 4096")


def make_sandbox_config(sandbox: Any) -> Optional[SandboxConfig]:
    """Coerce the user-facing ``sandbox`` argument into a config.

    Accepts ``None``/``False`` (off), ``True`` (defaults), or a ready-made
    :class:`SandboxConfig`.
    """
    if sandbox is None or sandbox is False:
        return None
    if sandbox is True:
        return SandboxConfig()
    if isinstance(sandbox, SandboxConfig):
        return sandbox
    raise TypeError(f"cannot build a SandboxConfig from {sandbox!r}")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------
def _send_msg(sock: socket.socket, message: Dict[str, Any]) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks: List[bytes] = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise _WorkerGone("protocol socket closed (worker died)")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _recv_msg(
    sock: socket.socket,
    timeout: Optional[float] = None,
    max_bytes: int = DEFAULT_MAX_MESSAGE_BYTES,
) -> Dict[str, Any]:
    sock.settimeout(timeout)
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > max_bytes:
        raise SandboxError(
            f"protocol message of {length} bytes exceeds the "
            f"{max_bytes}-byte channel cap"
        )
    return pickle.loads(_recv_exact(sock, length))


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------
def _crash_to_wire(crash: CrashSignal) -> Dict[str, Any]:
    return {
        "code": crash.code,
        "message": crash.message,
        "function": crash.function,
        "stage": crash.stage,
        "backtrace": list(crash.backtrace),
    }


def _crash_from_wire(data: Dict[str, Any]) -> CrashSignal:
    cls = CRASH_CLASSES.get(data["code"], CrashSignal)
    crash = cls(data["message"], function=data["function"], stage=data["stage"])
    crash.backtrace = list(data["backtrace"])
    return crash


def _worker_main(
    sock: socket.socket,
    dialect: "Dialect",
    budgets_spec: Optional[str],
    max_message_bytes: int,
) -> None:
    """Serve execute/restart/reconnect requests until shutdown or death.

    Known outcomes (SQL errors, crashes, closed connections) are shipped
    back as typed replies.  *Anything else* is a harness bug: the worker
    sends a last-gasp ``dying`` message and hard-exits so the parent
    respawns it with a clean interpreter — in-process, the same exception
    would have killed the campaign.
    """
    # the forked worker shares the campaign's dialect instance, logic
    # flaws installed by the oracle pipeline included
    server = dialect.create_server()
    governor = make_governor(budgets_spec)
    if governor is not None:
        server.attach_governor(governor)
    connection = server.connect()
    sent_triggered: Set[str] = set()

    def envelope(reply: Dict[str, Any]) -> Dict[str, Any]:
        new = server.ctx.triggered_functions - sent_triggered
        if new:
            reply["triggered"] = sorted(new)
            sent_triggered.update(new)
        return reply

    def send(reply: Dict[str, Any]) -> None:
        payload = pickle.dumps(envelope(reply), protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > max_message_bytes:
            # a result too large for the channel becomes a resource kill;
            # re-envelope so the triggered-function bookkeeping still ships
            payload = pickle.dumps(
                envelope({
                    "status": "error",
                    "kind": "resource",
                    "message": (
                        f"result of {len(payload)} bytes exceeds the "
                        "sandbox channel cap"
                    ),
                }),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        sock.sendall(_HEADER.pack(len(payload)) + payload)

    while True:
        try:
            request = _recv_msg(sock, timeout=None, max_bytes=max_message_bytes)
        except (_WorkerGone, OSError, EOFError):
            return  # parent went away; nothing left to serve
        op = request.get("op")
        try:
            if op == "execute":
                server.ctx.clear_sequence_state()
                try:
                    result = connection.execute(request["sql"])
                except ResourceExhausted as exc:
                    send({
                        "status": "error", "kind": "exhausted",
                        "budget": exc.budget, "used": exc.used,
                        "limit": exc.limit,
                    })
                except ResourceError as exc:
                    send({"status": "error", "kind": "resource",
                          "message": exc.message})
                except SQLError as exc:
                    send({"status": "error", "kind": "sql",
                          "message": exc.message, "code": exc.code})
                except ServerCrashed as exc:
                    send({"status": "crash",
                          "crash": _crash_to_wire(exc.crash)})
                except ConnectionClosed as exc:
                    send({"status": "closed", "message": str(exc)})
                else:
                    send({"status": "ok", "result": result})
            elif op == "restart":
                server.restart(keep_coverage=True)
                connection = server.connect()
                send({"status": "ok"})
            elif op == "reconnect":
                if not server.alive:
                    server.restart(keep_coverage=True)
                connection = server.connect()
                send({"status": "ok"})
            elif op == "shutdown":
                send({"status": "ok"})
                return
            else:
                send({"status": "error", "kind": "sql",
                      "message": f"unknown sandbox op {op!r}", "code": "ERROR"})
        except (BrokenPipeError, OSError):
            return
        except BaseException as exc:  # noqa: BLE001 — containment boundary
            # harness bug (RecursionError, MemoryError, anything): report
            # and die so the parent respawns a clean interpreter
            detail = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            try:
                send({"status": "dying", "message": detail})
            except Exception:
                pass
            os._exit(3)


# ---------------------------------------------------------------------------
# the parent-side handle
# ---------------------------------------------------------------------------
class SandboxedConnection:
    """Runs a dialect in a subprocess worker; mirrors ``Connection``.

    ``execute`` raises exactly what an in-process connection would (rebuilt
    from the wire) plus two sandbox-only signals the runner maps onto the
    extended outcome taxonomy: :class:`WorkerHung` (real-deadline SIGKILL →
    ``timeout``) and :class:`WorkerCrashed` (worker death → ``harness_crash``).
    Respawning is handled *before* either is raised, so the campaign never
    observes a dead sandbox.
    """

    def __init__(
        self,
        dialect: "Dialect",
        config: Optional[SandboxConfig] = None,
        budgets: Optional[ResourceBudgets] = None,
    ) -> None:
        self.dialect = dialect
        self.config = config if config is not None else SandboxConfig()
        self._budgets_spec = (
            budgets.to_spec() if budgets is not None and budgets.enabled else None
        )
        #: lifetime counters for the supervisor health summary
        self.kills = 0          # SIGKILLs after a blown wall deadline
        self.worker_deaths = 0  # workers that died on their own
        self.respawns = 0       # replacement workers spawned
        #: set the parent merges triggered-function deltas into (the
        #: runner points this at its server context's set)
        self.triggered_sink: Optional[Set[str]] = None
        self._proc = None
        self._sock: Optional[socket.socket] = None
        self._spawn()

    # ------------------------------------------------------------------
    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def _spawn(self) -> None:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise SandboxError(
                "the sandbox requires the 'fork' multiprocessing start "
                "method (unavailable on this platform)"
            )
        ctx = multiprocessing.get_context("fork")
        parent_sock, child_sock = socket.socketpair()
        proc = ctx.Process(
            target=_worker_main,
            args=(
                child_sock, self.dialect, self._budgets_spec,
                self.config.max_message_bytes,
            ),
            daemon=True,
        )
        proc.start()
        child_sock.close()
        self._proc = proc
        self._sock = parent_sock

    def _teardown(self, kill: bool) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        proc = self._proc
        self._proc = None
        if proc is None:
            return
        if kill and proc.is_alive() and proc.pid:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        proc.join(timeout=5)

    def _respawn(self) -> None:
        self._teardown(kill=True)
        self._spawn()
        self.respawns += 1

    # ------------------------------------------------------------------
    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._proc is None or not self._proc.is_alive():
            # the worker died between statements (e.g. OOM-killed while
            # idle); replace it and report the death
            self.worker_deaths += 1
            self._respawn()
            raise WorkerCrashed(
                f"sandbox worker for {self.dialect.name!r} died between "
                "statements; respawned"
            )
        # one real-time deadline bounds the whole round trip — send,
        # worker-side execution, and reply transfer together
        deadline = RealDeadline(self.config.wall_deadline_seconds)
        try:
            assert self._sock is not None
            self._sock.settimeout(deadline.remaining())
            _send_msg(self._sock, message)
            reply = _recv_msg(
                self._sock, timeout=deadline.remaining() or 1e-6,
                max_bytes=self.config.max_message_bytes,
            )
        except socket.timeout:
            self.kills += 1
            self._respawn()
            raise WorkerHung(
                f"sandbox worker exceeded the {deadline.seconds:g}s wall "
                f"deadline on {message.get('op')!r}; SIGKILLed and respawned"
            ) from None
        except (_WorkerGone, BrokenPipeError, ConnectionResetError) as exc:
            self.worker_deaths += 1
            self._respawn()
            raise WorkerCrashed(
                f"sandbox worker died mid-request: {exc}; respawned"
            ) from None
        if self.triggered_sink is not None:
            self.triggered_sink.update(reply.get("triggered", ()))
        if reply.get("status") == "dying":
            self.worker_deaths += 1
            self._respawn()
            raise WorkerCrashed(
                f"harness crash in sandbox worker: {reply.get('message')}; "
                "respawned"
            )
        return reply

    # ------------------------------------------------------------------
    def execute(self, sql: str):
        """Execute *sql* in the worker; mirrors ``Connection.execute``."""
        reply = self._request({"op": "execute", "sql": sql})
        status = reply.get("status")
        if status == "ok":
            return reply["result"]
        if status == "error":
            kind = reply.get("kind")
            if kind == "exhausted":
                raise ResourceExhausted(
                    reply["budget"], reply["used"], reply["limit"]
                )
            if kind == "resource":
                raise ResourceError(reply["message"])
            raise SQLError(reply["message"])
        if status == "crash":
            crash = _crash_from_wire(reply["crash"])
            raise ServerCrashed(crash, sql)
        if status == "closed":
            raise ConnectionClosed(reply.get("message", "server is not running"))
        raise SandboxError(f"unexpected sandbox reply {status!r}")

    def restart_server(self) -> None:
        """Restart the worker's server (the Docker-restart analogue)."""
        try:
            self._request({"op": "restart"})
        except WorkerCrashed:
            # the respawn already delivered a fresh server; restart achieved
            pass

    def reconnect(self) -> None:
        try:
            self._request({"op": "reconnect"})
        except WorkerCrashed:
            pass

    def close(self) -> None:
        """Shut the worker down; safe to call repeatedly."""
        if self._proc is None:
            return
        try:
            if self._sock is not None and self._proc.is_alive():
                self._sock.settimeout(1.0)
                _send_msg(self._sock, {"op": "shutdown"})
                _recv_msg(self._sock, timeout=1.0,
                          max_bytes=self.config.max_message_bytes)
        except Exception:
            pass
        self._teardown(kill=True)

    def kill_worker(self) -> None:
        """SIGKILL the live worker *without* respawning (test/chaos hook).

        The next ``execute`` observes the death, respawns, and raises
        :class:`WorkerCrashed` — the same path a real harness crash takes.
        """
        if self._proc is not None and self._proc.is_alive() and self._proc.pid:
            os.kill(self._proc.pid, signal.SIGKILL)
            self._proc.join(timeout=5)


# ---------------------------------------------------------------------------
# crash-loop containment (campaign layer)
# ---------------------------------------------------------------------------
class ContainmentState:
    """Quarantine + per-function-family circuit breakers.

    Statements that killed a worker are quarantined by SQL text — a
    statement that took the harness down once is never re-executed, not
    even across checkpoint/resume.  Independently, each function *family*
    gets a :class:`CircuitBreaker`: ``breaker_threshold`` consecutive
    worker kills on one family open it, and the rest of that family's
    stream is skipped (the crash-loop guard).  A quarantined statement
    whose family breaker is also open is still skipped exactly once —
    one statement, one ``skipped`` outcome.
    """

    STATE_VERSION = 1

    def __init__(
        self,
        breaker_threshold: int = DEFAULT_FAMILY_BREAKER_THRESHOLD,
        quarantine: Sequence[str] = (),
    ) -> None:
        self.breaker_threshold = breaker_threshold
        self.quarantine: Dict[str, str] = {
            sql: "pre-seeded quarantine entry" for sql in quarantine
        }
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.skipped = 0

    @classmethod
    def from_config(cls, config: SandboxConfig) -> "ContainmentState":
        return cls(
            breaker_threshold=config.breaker_threshold,
            quarantine=config.quarantine,
        )

    # ------------------------------------------------------------------
    def should_skip(self, sql: str, family: str) -> Optional[str]:
        """Reason to skip this statement, or ``None`` to execute it."""
        reason = self.quarantine.get(sql)
        if reason is not None:
            return f"quarantined: {reason}"
        breaker = self.breakers.get(family)
        if breaker is not None and breaker.is_open:
            return f"family {family!r} circuit breaker open"
        return None

    def note_skip(self) -> None:
        self.skipped += 1

    def observe(self, kind: str, sql: str, family: str, message: str = "") -> None:
        """Feed one executed statement's outcome into the containment."""
        if kind == "harness_crash":
            self.quarantine.setdefault(sql, message or "worker killed")
            breaker = self.breakers.get(family)
            if breaker is None:
                breaker = CircuitBreaker(
                    family, failure_threshold=self.breaker_threshold
                )
                self.breakers[family] = breaker
            breaker.record_failure()
        elif family in self.breakers:
            # an open breaker never closes again (crash loops don't heal
            # mid-campaign); a still-closed one resets its streak
            self.breakers[family].record_success()

    @property
    def open_breakers(self) -> List[str]:
        return sorted(f for f, b in self.breakers.items() if b.is_open)

    # ------------------------------------------------------------------
    # checkpoint support (JSON-serializable)
    def export_state(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "breaker_threshold": self.breaker_threshold,
            "quarantine": dict(self.quarantine),
            "skipped": self.skipped,
            "breakers": {
                family: [b.consecutive_failures, b.total_failures, b.opened]
                for family, b in self.breakers.items()
            },
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        if state.get("version") != self.STATE_VERSION:
            raise SandboxError(
                f"containment state version {state.get('version')!r} is not "
                f"{self.STATE_VERSION}"
            )
        self.breaker_threshold = state["breaker_threshold"]
        self.quarantine = dict(state["quarantine"])
        self.skipped = state["skipped"]
        self.breakers = {}
        for family, (consecutive, total, opened) in state["breakers"].items():
            breaker = CircuitBreaker(
                family, failure_threshold=self.breaker_threshold
            )
            breaker.consecutive_failures = consecutive
            breaker.total_failures = total
            breaker.opened = opened
            self.breakers[family] = breaker

    def merge(self, states: Iterable[Dict[str, Any]]) -> None:
        """Fold shard containment states in (union/sum semantics)."""
        for state in states:
            if state.get("version") != self.STATE_VERSION:
                raise SandboxError(
                    f"containment state version {state.get('version')!r} is "
                    f"not {self.STATE_VERSION}"
                )
            for sql, reason in state["quarantine"].items():
                self.quarantine.setdefault(sql, reason)
            self.skipped += state["skipped"]
            for family, (consecutive, total, opened) in state["breakers"].items():
                mine = self.breakers.get(family)
                if mine is None:
                    mine = CircuitBreaker(
                        family, failure_threshold=self.breaker_threshold
                    )
                    self.breakers[family] = mine
                mine.consecutive_failures = max(
                    mine.consecutive_failures, consecutive
                )
                mine.total_failures += total
                mine.opened = mine.opened or opened
