"""Outside-in span recorder for the end-to-end benchmark.

Nothing under ``src/`` knows it is being traced.  :func:`install` replaces
public callables at the sites where the program imports or defines them
(``repro.engine.connection.parse_statements``, ``Runner.run``, ...) with
wrappers that record one span per call: name, start/end
``perf_counter_ns``, the enclosing span, the request id (stream position
for campaigns, job id for the service), the thread, and for
``runner.run`` the statement prefix and outcome.  Spans stay in memory
and are written as JSON lines by :meth:`Tracer.dump` once the measured
work is over.

A layer's *self time* is its spans' duration minus the time of the
wrapped spans they contain, so self times of nested layers add up to the
wall time of the root span they sit in; whatever the root keeps for
itself is the unattributed residual.

The one private boundary wrapped is ``repro.perf.parallel._run_shard``:
each forked shard worker resets the recorder, records its shard under a
``parallel.shard`` root and dumps its own buffer next to its parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: one finished span: (id, parent id, name, start ns, end ns, request id,
#: thread ident, attrs)
Span = Tuple[int, int, str, int, int, Any, int, Any]

#: root span names: a campaign (serial, or the parent of a sharded one) and
#: one shard worker of a sharded campaign
ROOTS = ("campaign", "parallel.shard")


class Tracer:
    """In-memory span buffer with one span stack per thread."""

    def __init__(self) -> None:
        self.reset()
        #: set by the launcher: shard workers dump to ``<prefix>.shard<w>.jsonl``
        self.dump_prefix: Optional[str] = None

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.rid = None
            return local.stack

    # -- recording --------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack().append((next(self._ids), name, perf_counter_ns()))

    def exit(self, attrs: Any = None) -> None:
        end = perf_counter_ns()
        stack = self._local.stack
        sid, name, start = stack.pop()
        parent = stack[-1][0] if stack else 0
        self.spans.append(
            (sid, parent, name, start, end, self._local.rid,
             threading.get_ident(), attrs)
        )

    def top(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def depth(self) -> int:
        return len(self._stack())

    def exit_to(self, depth: int) -> None:
        """Close every span opened above *depth* (phase spans included)."""
        while len(self._stack()) > depth:
            self.exit()

    def set_request(self, rid: Any) -> None:
        self._stack()
        self._local.rid = rid

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def wrap(self, fn, name: str):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    # -- output -----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans, then one ``{"counters": ...}`` line."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
            fh.write(json.dumps({"pid": self.pid, "counters": dict(self.counters)}))
            fh.write("\n")


def load(path: str) -> Tuple[List[Span], Dict[str, int]]:
    spans: List[Span] = []
    counters: Dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if isinstance(row, dict):
                counters = row["counters"]
            else:
                spans.append(tuple(row))
    return spans, counters


# ---------------------------------------------------------------------------
# the wrappers
# ---------------------------------------------------------------------------
def install(tracer: Tracer, service: bool = False) -> None:
    """Wrap every layer boundary the per-layer metrics are read from.

    With *service*, request ids are job ids (set when a worker claims a
    job) and the service layers are wrapped too; otherwise ``runner.run``
    tags its spans with the statement's stream position.
    """
    from repro.core import campaign, collect, patterns, runner
    from repro.core.oracles import crash, metamorphic
    from repro.core.tables import TABLE_SETUP
    from repro.engine import connection, executor
    from repro.perf import compiler, parallel, stmtcache
    from repro.robustness import checkpoint
    from repro.sqlast import parser

    wrap = tracer.wrap
    enter, exit_ = tracer.enter, tracer.exit

    # -- roots ------------------------------------------------------------
    def root(fn, first_phase=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = tracer.depth()
            enter("campaign")
            if first_phase:
                enter(first_phase)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit_to(depth)

        return traced

    campaign.Campaign.run = root(campaign.Campaign.run)
    parallel.ParallelCampaign.run = root(
        parallel.ParallelCampaign.run, first_phase="parallel.seed_phase"
    )

    # -- core.collect / core.patterns ---------------------------------------
    collect.SeedCollector.collect = wrap(
        collect.SeedCollector.collect, "collect.seeds"
    )
    generate_all = patterns.PatternEngine.generate_all

    @functools.wraps(generate_all)
    def traced_generate_all(self, *args, **kwargs):
        stream = generate_all(self, *args, **kwargs)
        while True:
            enter("patterns.gen")
            try:
                case = next(stream)
            except StopIteration:
                return
            finally:
                exit_()
            yield case

    patterns.PatternEngine.generate_all = traced_generate_all
    patterns.GeneratedCase.sql = property(
        wrap(patterns.GeneratedCase.sql.fget, "patterns.gen")
    )

    # -- core.runner --------------------------------------------------------
    run = runner.Runner.run

    @functools.wraps(run)
    def traced_run(self, sql, position=None):
        if not service:
            tracer.set_request(position)
        enter("runner.run")
        outcome = None
        try:
            outcome = run(self, sql, position)
            return outcome
        finally:
            exit_((position, sql[:100], outcome.kind if outcome else "raised"))

    runner.Runner.run = traced_run
    runner.fingerprint_result = wrap(runner.fingerprint_result, "fingerprint")
    metamorphic.fingerprint_result = wrap(
        metamorphic.fingerprint_result, "fingerprint"
    )

    # -- engine.connection / sqlast / optimizer / executor --------------------
    bootstrap = frozenset(TABLE_SETUP)
    execute = connection.Connection.execute

    @functools.wraps(execute)
    def traced_execute(self, sql):
        enter("runner.bootstrap" if sql in bootstrap else "connection")
        try:
            return execute(self, sql)
        finally:
            exit_()

    connection.Connection.execute = traced_execute
    connection.Server.restart = wrap(connection.Server.restart, "server.restart")
    connection.parse_statements = wrap(connection.parse_statements, "sqlast.parse")
    connection.optimize_statement = wrap(
        connection.optimize_statement, "optimizer.optimize"
    )
    stmtcache.tokenize = wrap(stmtcache.tokenize, "sqlast.lex")
    parser.tokenize = wrap(parser.tokenize, "sqlast.lex")
    executor.Executor.execute = wrap(executor.Executor.execute, "executor.execute")

    # -- perf.stmtcache / perf.compiler -------------------------------------
    compiler.compile_statement = wrap(compiler.compile_statement, "compiler.compile")
    Plan = stmtcache.Plan
    fetch = stmtcache.StatementCache.fetch
    count = tracer.count

    def timed_closure(program):
        def closure(ctx):
            enter("compiler.closure")
            try:
                return program(ctx)
            finally:
                exit_()

        return closure

    @functools.wraps(fetch)
    def traced_fetch(self, dialect, sql, ctx=None):
        hits, misses, fallbacks = self.hits, self.misses, self.compile_fallbacks
        enter("stmtcache.fetch")
        try:
            plan = fetch(self, dialect, sql, ctx)
        finally:
            exit_()
        count("stmtcache.hits", self.hits - hits)
        count("stmtcache.misses", self.misses - misses)
        count("compiler.fallbacks", self.compile_fallbacks - fallbacks)
        if plan is not None and plan.compiled is not None:
            # the proxy Plan times the closure program the connection calls
            plan = Plan(plan.stmt, plan.needs_optimize,
                        compiled=timed_closure(plan.compiled))
        return plan

    stmtcache.StatementCache.fetch = traced_fetch
    stmtcache.StatementCache.insert = wrap(
        stmtcache.StatementCache.insert, "stmtcache.insert"
    )
    stmtcache.StatementCache.warm = wrap(
        stmtcache.StatementCache.warm, "stmtcache.warm"
    )
    invalidate_all = stmtcache.StatementCache.invalidate_all

    @functools.wraps(invalidate_all)
    def traced_invalidate_all(self, reason=""):
        if len(self):  # the cache counts only invalidations that drop entries
            count("stmtcache.invalidations." + reason.replace(" ", "_"))
        return invalidate_all(self, reason)

    stmtcache.StatementCache.invalidate_all = traced_invalidate_all

    # -- core.oracles / dialects.bugs / robustness.checkpoint ----------------
    crash.CrashOracle.observe = wrap(crash.CrashOracle.observe, "oracles.crash")
    metamorphic.TLPOracle.observe = wrap(
        metamorphic.TLPOracle.observe, "oracles.tlp"
    )
    metamorphic.NoRECOracle.observe = wrap(
        metamorphic.NoRECOracle.observe, "oracles.norec"
    )
    metamorphic.find_predicate_flaw = wrap(
        metamorphic.find_predicate_flaw, "dialects.flaw_lookup"
    )
    save = checkpoint.CampaignCheckpoint.save

    @functools.wraps(save)
    def traced_save(self, path):
        enter("checkpoint.save")
        try:
            return save(self, path)
        finally:
            exit_()
            if os.path.exists(path):
                count("checkpoint.bytes", os.path.getsize(path))

    checkpoint.CampaignCheckpoint.save = traced_save

    # -- perf.parallel / perf.transport --------------------------------------
    export_warm_sql = stmtcache.StatementCache.export_warm_sql

    @functools.wraps(export_warm_sql)
    def traced_export_warm_sql(self, dialect):
        # called once, right after a sharded campaign's seed phase
        if tracer.top() == "parallel.seed_phase":
            exit_()
        try:
            return export_warm_sql(self, dialect)
        finally:
            enter("parallel.fanout")

    stmtcache.StatementCache.export_warm_sql = traced_export_warm_sql
    pack_statements = parallel.pack_statements

    @functools.wraps(pack_statements)
    def traced_pack_statements(statements):
        enter("transport.pack")
        try:
            data = pack_statements(statements)
        finally:
            exit_()
        count("transport.warm_corpus_bytes", len(data))
        return data

    parallel.pack_statements = traced_pack_statements
    parallel.unpack_statements = wrap(parallel.unpack_statements, "transport.unpack")
    write_packed = parallel.write_packed

    @functools.wraps(write_packed)
    def traced_write_packed(path, value):
        enter("transport.write")
        try:
            written = write_packed(path, value)
        finally:
            exit_()
        count("transport.report_bytes", written)
        return written

    parallel.write_packed = traced_write_packed
    read_packed = parallel.read_packed

    @functools.wraps(read_packed)
    def traced_read_packed(path):
        # the first shard report read ends the fan-out and starts the merge
        if tracer.top() == "parallel.fanout":
            exit_()
            enter("parallel.merge")
        enter("transport.read")
        try:
            return read_packed(path)
        finally:
            exit_()

    parallel.read_packed = traced_read_packed
    run_shard = parallel._run_shard

    @functools.wraps(run_shard)
    def traced_run_shard(*args, **kwargs):
        worker = args[1]
        tracer.reset()  # a forked worker starts with its parent's buffer
        enter("parallel.shard")
        try:
            return run_shard(*args, **kwargs)
        finally:
            exit_(worker)
            if tracer.dump_prefix is not None:
                tracer.dump(f"{tracer.dump_prefix}.shard{worker}.jsonl")

    parallel._run_shard = traced_run_shard

    if service:
        _install_service(tracer)


def _install_service(tracer: Tracer) -> None:
    from repro.service import bugrepo, jobs, server, storage

    wrap = tracer.wrap
    enter, exit_ = tracer.enter, tracer.exit
    server.BugService.handle = wrap(server.BugService.handle, "service.http")
    claim = jobs.JobStore.claim

    @functools.wraps(claim)
    def traced_claim(self, *args, **kwargs):
        enter("service.claim")
        try:
            claimed = claim(self, *args, **kwargs)
        finally:
            exit_()
        if claimed is not None:
            tracer.set_request(claimed[0].job_id)
        return claimed

    jobs.JobStore.claim = traced_claim
    bugrepo.BugRepository.record_result = wrap(
        bugrepo.BugRepository.record_result, "service.record_result"
    )
    bugrepo.minimize_poc = wrap(bugrepo.minimize_poc, "service.minimize")
    write = storage.SqliteStorage.write

    @contextmanager
    def traced_write(self, op, db=None):
        enter(f"service.storage.{self.name}")
        try:
            with write(self, op, db) as conn:
                yield conn
        finally:
            exit_()

    storage.SqliteStorage.write = traced_write


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------
class Profile:
    """Self time, calls and durations per span name over one or more
    processes' dumps (parent ids are process-local)."""

    def __init__(self, processes: Iterable[Tuple[List[Span], Dict[str, int]]]):
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[int]] = defaultdict(list)
        self.counters: Dict[str, int] = defaultdict(int)
        #: (duration ns, attrs) of every runner.run span
        self.statements: List[Tuple[int, Any]] = []
        #: per root span: (name, duration ns, self ns, attrs)
        self.roots: List[Tuple[str, int, int, Any]] = []
        #: per shard: span name -> self ns, plus its runner durations
        self.shards: Dict[int, Dict[str, Any]] = {}
        #: per process: (spans recorded, wall of its root spans in ns)
        self.processes: List[Tuple[int, int]] = []
        for spans, counters in processes:
            for key, value in counters.items():
                self.counters[key] += value
            self._add(spans)

    def _add(self, spans: Sequence[Span]) -> None:
        child_ns: Dict[int, int] = defaultdict(int)
        for sid, parent, name, start, end, *_ in spans:
            child_ns[parent] += end - start
        shard = next((s for s in spans if s[2] == "parallel.shard"), None)
        shard_self: Dict[str, int] = defaultdict(int)
        shard_statements: List[int] = []
        root_ns = 0
        for sid, parent, name, start, end, rid, tid, attrs in spans:
            duration = end - start
            own = duration - child_ns.get(sid, 0)
            self.self_ns[name] += own
            self.calls[name] += 1
            self.durations[name].append(duration)
            shard_self[name] += own
            if name == "runner.run":
                self.statements.append((duration, attrs))
                shard_statements.append(duration)
            if name in ROOTS:
                self.roots.append((name, duration, own, attrs))
                root_ns += duration
        self.processes.append((len(spans), root_ns))
        if shard is not None:
            self.shards[shard[7]] = {
                "wall_ns": shard[4] - shard[3],
                "self_ns": dict(shard_self),
                "statement_ns": shard_statements,
            }

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def wall_s(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e9

    def residual_share(self) -> float:
        """Root self time (work no wrapped layer claims) over root wall."""
        wall = sum(duration for _, duration, _, _ in self.roots)
        own = sum(own for _, _, own, _ in self.roots)
        return own / wall if wall else 0.0

    def overhead(self, span_cost_ns: float) -> float:
        """The recorder's own share of wall time: spans recorded times the
        cost of recording one, over the root wall without that cost, in
        the most affected process (the slow shard of a sharded run)."""
        shares = [
            spans * span_cost_ns / (wall - spans * span_cost_ns)
            for spans, wall in self.processes
            if wall > spans * span_cost_ns
        ]
        return max(shares, default=0.0)

    def layer_table(self) -> List[Tuple[str, float, float, int]]:
        """(layer, self seconds, share of all self time, calls), largest first."""
        total = sum(self.self_ns.values()) or 1
        rows = [
            (name, ns / 1e9, ns / total, self.calls[name])
            for name, ns in self.self_ns.items()
        ]
        rows.sort(key=lambda row: -row[1])
        return rows

    def slowest(self, n: int = 20) -> List[Dict[str, Any]]:
        ranked = sorted(self.statements, key=lambda s: -s[0])[:n]
        return [
            {"ms": duration / 1e6, "position": attrs[0], "outcome": attrs[2],
             "sql": attrs[1]}
            for duration, attrs in ranked
        ]

    def shard_table(self) -> List[Dict[str, Any]]:
        rows = []
        for worker in sorted(self.shards):
            shard = self.shards[worker]
            statements = sorted(shard["statement_ns"], reverse=True)
            runner_ns = sum(statements)
            rows.append({
                "worker": worker,
                "wall_s": shard["wall_ns"] / 1e9,
                "generation_s": shard["self_ns"].get("patterns.gen", 0) / 1e9,
                "runner_s": runner_ns / 1e9,
                "top20_share": sum(statements[:20]) / runner_ns if runner_ns else 0.0,
            })
        return rows


def span_cost_ns(calls: int = 50_000) -> float:
    """What recording a span adds to one call: an empty function called
    through :meth:`Tracer.wrap` against called bare (best of three)."""
    def empty() -> None:
        return None

    traced = Tracer().wrap(empty, "calibration")

    def best(fn) -> int:
        times = []
        for _ in range(3):
            start = perf_counter_ns()
            for _ in range(calls):
                fn()
            times.append(perf_counter_ns() - start)
        return min(times)

    return max(0.0, (best(traced) - best(empty)) / calls)


def percentile(values: Sequence[float], q: float) -> float:
    """The median for ``q == 0.5``, else the nearest-rank percentile
    (0 for no samples)."""
    if not values:
        return 0.0
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def tail_share(durations: Sequence[int], fraction: float = 0.01) -> float:
    """Share of the total taken by the slowest *fraction* of samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations, reverse=True)
    top = max(1, int(len(ordered) * fraction))
    return sum(ordered[:top]) / sum(ordered)


def layer_metrics(profile: Profile) -> Dict[str, float]:
    """The per-layer metrics every workload reports (0 where a layer is idle)."""
    p = profile
    c = p.counters
    statement_ms = [d / 1e6 for d, _ in p.statements]
    hits, misses = c.get("stmtcache.hits", 0), c.get("stmtcache.misses", 0)
    fetches = p.calls.get("stmtcache.fetch", 0)
    compiled = p.calls.get("compiler.closure", 0)
    shard_walls = [s["wall_ns"] / 1e9 for s in p.shards.values()]
    storage = {
        sub: (p.calls.get(f"service.storage.{sub}", 0),
              p.self_s(f"service.storage.{sub}"))
        for sub in ("journal", "bugrepo")
    }
    http_ms = [d / 1e6 for d in p.durations.get("service.http", ())]
    return {
        "patterns.gen_s": p.self_s("patterns.gen"),
        "collect.seeds_s": p.self_s("collect.seeds"),
        "runner.self_s": p.self_s("runner.run"),
        "runner.stmt_ms_p50": percentile(statement_ms, 0.50),
        "runner.stmt_ms_p99": percentile(statement_ms, 0.99),
        "runner.stmt_ms_max": max(statement_ms, default=0.0),
        "runner.tail1pct_share": tail_share([d for d, _ in p.statements]),
        "runner.bootstrap_s": p.self_s("runner.bootstrap"),
        "connection.self_s": p.self_s("connection"),
        "server.restarts": p.calls.get("server.restart", 0),
        "server.restart_s": p.self_s("server.restart"),
        "sqlast.parse_s": p.self_s("sqlast.parse"),
        "sqlast.parse_calls": p.calls.get("sqlast.parse", 0),
        "sqlast.lex_s": p.self_s("sqlast.lex"),
        "optimizer.optimize_s": p.self_s("optimizer.optimize"),
        "optimizer.calls": p.calls.get("optimizer.optimize", 0),
        "executor.execute_s": p.self_s("executor.execute"),
        "executor.calls": p.calls.get("executor.execute", 0),
        "compiler.closure_s": p.self_s("compiler.closure"),
        "compiler.compile_s": p.self_s("compiler.compile"),
        "compiler.compiled_executions": compiled,
        "compiler.fallbacks": c.get("compiler.fallbacks", 0),
        "compiler.compiled_share": compiled / fetches if fetches else 0.0,
        "stmtcache.fetch_s": p.self_s("stmtcache.fetch"),
        "stmtcache.insert_s": p.self_s("stmtcache.insert"),
        "stmtcache.warm_s": p.self_s("stmtcache.warm"),
        "stmtcache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "stmtcache.invalidations_restart": c.get("stmtcache.invalidations.restart", 0),
        "stmtcache.invalidations_non_select": c.get(
            "stmtcache.invalidations.non-select_statement", 0
        ),
        "fingerprint.s": p.self_s("fingerprint"),
        "fingerprint.calls": p.calls.get("fingerprint", 0),
        "oracles.crash_s": p.self_s("oracles.crash"),
        "oracles.tlp_s": p.self_s("oracles.tlp"),
        "oracles.norec_s": p.self_s("oracles.norec"),
        "dialects.flaw_lookup_s": p.self_s("dialects.flaw_lookup"),
        "dialects.flaw_lookup_calls": p.calls.get("dialects.flaw_lookup", 0),
        "checkpoint.saves": p.calls.get("checkpoint.save", 0),
        "checkpoint.save_s": p.self_s("checkpoint.save"),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "parallel.seed_phase_s": p.wall_s("parallel.seed_phase"),
        "parallel.fanout_s": p.wall_s("parallel.fanout"),
        "parallel.merge_s": p.wall_s("parallel.merge"),
        "parallel.shard_wall_max_s": max(shard_walls, default=0.0),
        "parallel.shard_wall_min_s": min(shard_walls, default=0.0),
        "parallel.imbalance": (
            max(shard_walls) / statistics.mean(shard_walls) if shard_walls else 0.0
        ),
        "transport.warm_corpus_bytes": c.get("transport.warm_corpus_bytes", 0),
        "transport.report_bytes": c.get("transport.report_bytes", 0),
        "transport.pack_s": sum(
            p.self_s(name) for name in
            ("transport.pack", "transport.unpack", "transport.write", "transport.read")
        ),
        "service.http_handle_ms_p50": percentile(http_ms, 0.50),
        "service.claim_s": p.self_s("service.claim"),
        "service.record_result_s": p.self_s("service.record_result"),
        "service.minimize_calls": p.calls.get("service.minimize", 0),
        "service.minimize_s": p.self_s("service.minimize"),
        "service.storage_writes_journal": storage["journal"][0],
        "service.storage_write_s_journal": storage["journal"][1],
        "service.storage_writes_bugrepo": storage["bugrepo"][0],
        "service.storage_write_s_bugrepo": storage["bugrepo"][1],
    }
