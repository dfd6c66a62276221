"""Parallel-scaling + statement-cache + plan-compilation throughput benchmark.

Establishes the repo's throughput baseline (ROADMAP: "as fast as the
hardware allows").  Measures the BUDGET_24H campaign serial vs sharded
across 2/4/8 workers, cached vs uncached, **compiled vs interpreted**
(the ``--compiled/--interpreted`` A/B axis), the statement cache's hit
rate over the *entire* pattern-generated stream, the warm-stream replay
throughput both ways, the byte cost of the pickle-free shard transport,
and the predicate-family axis (the seeded table workload under the
TLP/NoREC metamorphic oracles: table-workload qps plus the
compiled-vs-fallback execution share) — persisting everything to
``benchmarks/results/BENCH_throughput.json``.

Two caveats are encoded rather than hidden:

* wall-clock speedup from sharding needs real cores — the ≥1.5× @ 4
  workers assertion only fires when ``os.cpu_count() >= 4`` (a 1-CPU
  container *slows down* under multiprocessing, deterministically so).
  On a 1-CPU box the transport guard substitutes: warm bytes/statement
  must be ≥5× below pickling the same stream;
* campaign-level cache hit rate is depressed by crash→restart
  invalidation (every discovered bug wipes the cache, by design), so the
  >50% hit-rate criterion is measured on the pure parse/optimize replay of
  the pattern stream, where no crashes intervene.
"""

import functools
import itertools
import json
import os
import random
import time

import pytest

from repro.core.campaign import run_campaign
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.patterns import PatternEngine
from repro.core.runner import Runner
from repro.dialects import dialect_by_name
from repro.engine.connection import Server
from repro.engine.optimizer import optimize_statement
from repro.perf import StatementCache
from repro.perf.parallel import ParallelCampaign
from repro.sqlast.parser import Parser

from _shared import BUDGET_24H, RESULTS_DIR, emit, shape_line

DIALECT = "duckdb"
SEED = 0
JOBS = (2, 4, 8)
WARM_STREAM_STATEMENTS = 1_000
WARM_STREAM_PASSES = 3


def _serial(cached: bool = True, compiled: bool = True):
    return run_campaign(
        config=CampaignConfig(
            dialect=DIALECT,
            budget=BUDGET_24H,
            seed=SEED,
            statement_cache=cached,
            compile=compiled,
        ),
    )


def _parallel(jobs: int):
    """One sharded run; returns (result, transport stats dict or None)."""
    campaign = ParallelCampaign(
        config=CampaignConfig(
            dialect=DIALECT, jobs=jobs, budget=BUDGET_24H, seed=SEED
        )
    )
    result = campaign.run()
    handoff = campaign.last_transport
    transport = None
    if handoff is not None:
        transport = {
            "statements": handoff.statements,
            "warm_bytes_per_statement": handoff.warm_per_statement,
            "cold_bytes_per_statement": handoff.cold_per_statement,
            "pickle_bytes_per_statement": handoff.pickle_per_statement,
            "warm_reduction_vs_pickle": handoff.warm_reduction,
        }
    return result, transport


def _predicate_serial():
    """The table-workload axis: predicate family + metamorphic oracles.

    Every statement is a ``SELECT ... FROM fuzz_t WHERE ...`` scan whose
    TLP/NoREC variants re-execute on the oracle-owned arms, so the qps
    here is the metamorphic campaign's real cost, not the bare stream's.
    The compiled-vs-fallback counters are the interesting axis: every
    predicate carries a literal fold site, so the stream is
    interpreter-bound (near-zero closure share); statements that do reach
    the compiler hit FROM/WHERE shapes it declines, counted per execution
    in ``compile_fallbacks``.
    """
    return run_campaign(
        config=CampaignConfig(
            dialect=DIALECT,
            budget=BUDGET_24H,
            seed=SEED,
            oracles=("crash", "tlp", "norec"),
            statement_family="predicate",
        ),
    )


def _stream_sample():
    dialect = dialect_by_name(DIALECT)
    engine = PatternEngine(
        SeedCollector(dialect).collect(), rng=random.Random(SEED)
    )
    return [
        case.sql
        for case in itertools.islice(
            engine.generate_all(), WARM_STREAM_STATEMENTS
        )
    ]


@functools.lru_cache(maxsize=None)
def _warm_stream(compiled: bool):
    """Warm-stream replay qps: the ``--compiled/--interpreted`` A/B axis.

    One unmeasured pass fills the statement cache (and, on the compiled
    arm, compiles every reused template); the timed passes then measure
    the warm regime the ``compile=`` flag actually controls.  Crashing
    statements are filtered out first — every crash restarts the server
    and wipes the cache, so a stream containing them is never warm by
    construction.  Returns (qps, outcome keys) so the two arms can be
    parity-checked statement-for-statement.
    """
    runner = Runner(dialect_by_name(DIALECT), compile_plans=compiled)
    statements = [
        sql for sql in _stream_sample() if runner.run(sql).kind != "crash"
    ]
    outcomes = []
    for sql in statements:
        runner.run(sql)
    started = time.perf_counter()
    for _ in range(WARM_STREAM_PASSES):
        for sql in statements:
            outcome = runner.run(sql)
            outcomes.append((outcome.kind, outcome.message))
    elapsed = time.perf_counter() - started
    if compiled:
        assert runner.compiled_executions > 0
    else:
        assert runner.compiled_executions == 0
    qps = (WARM_STREAM_PASSES * len(statements)) / elapsed
    return qps, outcomes, len(statements)


@pytest.mark.parametrize("mode", ["compiled", "interpreted"])
def test_warm_stream_throughput(benchmark, mode):
    """The A/B axis as its own benchmark entry per arm."""
    qps, _, _ = benchmark.pedantic(
        _warm_stream, args=(mode == "compiled",), rounds=1, iterations=1
    )
    assert qps > 0


def _stream_hit_rate():
    """Parse/optimize cache hit rate over the full pattern stream.

    Replays every generated statement through fetch → parse → optimize →
    insert without executing it: the cache's view of the workload when no
    crash/restart invalidation intervenes.
    """
    dialect = dialect_by_name(DIALECT)
    engine = PatternEngine(SeedCollector(dialect).collect(), rng=random.Random(SEED))
    ctx = Server(dialect).ctx
    cache = StatementCache()
    started = time.perf_counter()
    count = 0
    for case in engine.generate_all():
        sql = case.sql
        count += 1
        if cache.fetch(DIALECT, sql) is not None:
            continue
        try:
            statements = Parser(sql, tokens=cache.probe_tokens(sql)).parse_statements()
        except Exception:
            continue
        if len(statements) != 1:
            continue
        cache.insert(
            DIALECT, sql, statements[0], optimize_statement(ctx, statements[0]), ctx
        )
    elapsed = time.perf_counter() - started
    stats = cache.stats()
    stats["statements"] = count
    stats["wall_seconds"] = elapsed
    return stats


def test_parallel_scaling(benchmark):
    def run_all():
        return (
            _serial(cached=True, compiled=True),
            _serial(cached=False, compiled=True),
            _serial(cached=True, compiled=False),
            _predicate_serial(),
            {jobs: _parallel(jobs) for jobs in JOBS},
            _stream_hit_rate(),
            _warm_stream(True),
            _warm_stream(False),
        )

    (serial, uncached, interpreted, predicate, parallel, stream,
     warm_compiled, warm_interpreted) = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    cores = os.cpu_count() or 1
    warm_compiled_qps, compiled_outcomes, warm_count = warm_compiled
    warm_interpreted_qps, interpreted_outcomes, _ = warm_interpreted

    payload = {
        "dialect": DIALECT,
        "budget": BUDGET_24H,
        "seed": SEED,
        "cpu_count": cores,
        "serial": {
            "wall_seconds": serial.wall_seconds,
            "qps": serial.statements_per_second,
            "cache_hit_rate": serial.cache_hit_rate,
            "compiled_executions": serial.compiled_executions,
            "compile_fallbacks": serial.compile_fallbacks,
        },
        "serial_uncached": {
            "wall_seconds": uncached.wall_seconds,
            "qps": uncached.statements_per_second,
        },
        "serial_interpreted": {
            "wall_seconds": interpreted.wall_seconds,
            "qps": interpreted.statements_per_second,
            "signature_matches_compiled": (
                interpreted.signature() == serial.signature()
            ),
        },
        "warm_stream": {
            "statements": warm_count,
            "passes": WARM_STREAM_PASSES,
            "compiled_qps": warm_compiled_qps,
            "interpreted_qps": warm_interpreted_qps,
            "compiled_vs_interpreted": (
                warm_compiled_qps / warm_interpreted_qps
            ),
            "compiled_vs_serial_campaign": (
                warm_compiled_qps / serial.statements_per_second
            ),
        },
        "predicate_family": {
            "wall_seconds": predicate.wall_seconds,
            "qps": predicate.statements_per_second,
            "findings": len(predicate.findings),
            "compiled_executions": predicate.compiled_executions,
            "compile_fallbacks": predicate.compile_fallbacks,
            # share of all executions that ran through a compiled closure:
            # every predicate statement carries a literal fold site, so the
            # table workload is interpreter-bound by design and the share
            # measures how little of it the closure compiler can carry
            # (counted declines land in compile_fallbacks)
            "compiled_share": (
                predicate.compiled_executions / predicate.queries_executed
                if predicate.queries_executed
                else 0.0
            ),
        },
        "parallel": {
            str(jobs): {
                "wall_seconds": result.wall_seconds,
                "qps": result.statements_per_second,
                "speedup_vs_serial": (
                    serial.wall_seconds / result.wall_seconds
                    if result.wall_seconds else 0.0
                ),
                "signature_matches_serial": result.signature() == serial.signature(),
                "compiled_executions": result.compiled_executions,
                "transport": transport,
            }
            for jobs, (result, transport) in parallel.items()
        },
        "pattern_stream_cache": stream,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_throughput.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    warm_vs_campaign = payload["warm_stream"]["compiled_vs_serial_campaign"]
    lines = [
        f"Parallel scaling + statement cache + compilation — {DIALECT}, "
        f"budget {BUDGET_24H}, {cores} cores"
    ]
    lines.append(shape_line(
        "serial throughput (compiled)",
        "baseline", f"{serial.statements_per_second:,.0f} qps", True,
    ))
    lines.append(shape_line(
        "serial throughput (interpreted)",
        "parity", f"{interpreted.statements_per_second:,.0f} qps, "
        f"parity={interpreted.signature() == serial.signature()}",
        interpreted.signature() == serial.signature(),
    ))
    lines.append(shape_line(
        "warm stream compiled vs serial campaign",
        "≥3x", f"{warm_vs_campaign:.1f}x "
        f"({warm_compiled_qps:,.0f} qps)", warm_vs_campaign >= 3.0,
    ))
    lines.append(shape_line(
        "warm stream compiled vs interpreted",
        "≥1x (impl-bound stream)",
        f"{payload['warm_stream']['compiled_vs_interpreted']:.2f}x",
        warm_compiled_qps >= warm_interpreted_qps,
    ))
    for jobs, (result, transport) in parallel.items():
        speedup = payload["parallel"][str(jobs)]["speedup_vs_serial"]
        lines.append(shape_line(
            f"jobs={jobs}: speedup / signature parity",
            "≥1.5x @ 4 workers (needs ≥4 cores)",
            f"{speedup:.2f}x, parity={result.signature() == serial.signature()}",
            result.signature() == serial.signature(),
        ))
        if transport is not None:
            lines.append(shape_line(
                f"jobs={jobs}: transport bytes/stmt vs pickle",
                "≥5x smaller",
                f"{transport['warm_bytes_per_statement']:.1f} B vs "
                f"{transport['pickle_bytes_per_statement']:.1f} B "
                f"({transport['warm_reduction_vs_pickle']:.1f}x)",
                transport["warm_reduction_vs_pickle"] >= 5.0,
            ))
    pred = payload["predicate_family"]
    lines.append(shape_line(
        "predicate family (table workload + TLP/NoREC)",
        "reported",
        f"{pred['qps']:,.0f} qps, {pred['findings']} findings, "
        f"compiled share {pred['compiled_share']:.1%}",
        pred["findings"] > 0,
    ))
    lines.append(shape_line(
        "pattern-stream cache hit rate",
        "> 50%", f"{stream['hit_rate']:.1%}", stream["hit_rate"] > 0.5,
    ))
    lines.append(shape_line(
        "campaign cache hit rate (restart-invalidated)",
        "reported", f"{serial.cache_hit_rate:.1%}", True,
    ))
    emit("parallel_scaling", "\n".join(lines))

    # hard acceptance: compiled and interpreted runs are indistinguishable
    assert interpreted.signature() == serial.signature(), "compile changed results"
    assert compiled_outcomes == interpreted_outcomes, "warm stream diverged"
    assert serial.compiled_executions > 0
    # hard acceptance: identical bug sets + signatures at every width
    for jobs, (result, _transport) in parallel.items():
        assert result.signature() == serial.signature(), f"jobs={jobs} diverged"
    # hard acceptance: warm-stream compiled replay ≥3× the serial campaign
    assert warm_vs_campaign >= 3.0
    # hard acceptance: the cache hits on more than half the pattern stream
    assert stream["hit_rate"] > 0.5
    # hard acceptance: the table workload actually ran, found the seeded
    # predicate flaws, and is interpreter-bound (fold sites on every
    # statement keep the closure share near zero — see DESIGN.md §5i)
    assert predicate.findings, "predicate campaign found no seeded flaws"
    assert predicate.queries_executed > 0
    assert pred["compiled_share"] < 0.5
    # speedup needs physical parallelism; a 1-CPU container cannot show it —
    # there the transport byte guard substitutes (bytes don't need cores)
    if cores >= 4:
        assert payload["parallel"]["4"]["speedup_vs_serial"] >= 1.5
    else:
        print(f"(speedup assertion skipped: only {cores} CPU core(s))")
        transports = [t for _, t in parallel.values() if t is not None]
        assert transports, "no shard run recorded transport stats"
        for transport in transports:
            assert transport["warm_reduction_vs_pickle"] >= 5.0
