"""Differential tests for the plan→closure compiler.

The compiler (``repro.perf.compiler``) is a *transparent* optimization:
every statement must produce byte-identical observable behaviour whether
it runs through a compiled closure or the tree-walking interpreter —
same result values (checked via result-set fingerprints), same outcome
classification, same error messages, and the same campaign signature
serial or sharded.
"""

import itertools

import pytest

from repro.core.campaign import Campaign, CampaignConfig, run_campaign
from repro.core.collect import SeedCollector
from repro.core.patterns import PatternEngine
from repro.core.runner import Runner
from repro.dialects import all_dialect_classes, bugs_for, dialect_by_name
from repro.perf.parallel import ParallelCampaign
from repro.perf.stmtcache import StatementCache

FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"
ALL_ORACLES = ("crash", "differential", "conformance")


def _outcome_key(outcome):
    return (outcome.kind, outcome.message, outcome.result_type)


def _pattern_sample(dialect, per_pattern=5, pattern_target=10):
    """Statements covering every boundary pattern the generator emits.

    Bucket ``seed`` plus the generated P-patterns (P1.2 .. P3.3) — ten
    shapes total — with *per_pattern* statements each.
    """
    seeds = SeedCollector(dialect).collect()
    buckets = {"seed": [f"SELECT {s.sql};" for s in seeds[:per_pattern]]}
    engine = PatternEngine(seeds)
    for case in itertools.islice(engine.generate_all(), 8000):
        bucket = buckets.setdefault(case.pattern, [])
        if len(bucket) < per_pattern:
            bucket.append(case.sql)
    assert len(buckets) >= pattern_target, sorted(buckets)
    return buckets


# ---------------------------------------------------------------------------
# compiled vs interpreted: per-statement differential
# ---------------------------------------------------------------------------
class TestCompiledDifferential:
    @pytest.mark.parametrize(
        "dialect_name",
        [cls().name for cls in all_dialect_classes()],
    )
    def test_compiled_and_interpreted_outcomes_identical(self, dialect_name):
        """Every boundary pattern, every dialect: identical classification
        *and* identical result values (fingerprints), run twice so the
        second pass exercises the warm compiled fast path.  Crashing PoCs
        are spliced in so both sides also restart mid-stream."""
        dialect = dialect_by_name(dialect_name)
        buckets = _pattern_sample(dialect)
        statements = [sql for bucket in buckets.values() for sql in bucket]
        statements[10:10] = [bug.poc for bug in bugs_for(dialect_name)[:3]]
        compiled = Runner(dialect_by_name(dialect_name))
        interpreted = Runner(dialect_by_name(dialect_name), compile_plans=False)
        compiled.capture_fingerprints = True
        interpreted.capture_fingerprints = True
        for sql in statements * 2:
            a = compiled.run(sql)
            b = interpreted.run(sql)
            assert _outcome_key(a) == _outcome_key(b), sql
            assert a.fingerprint == b.fingerprint, sql
        assert interpreted.compiled_executions == 0

    def test_warm_repeats_actually_run_compiled(self):
        runner = Runner(dialect_by_name("duckdb"))
        for _ in range(3):
            runner.run("SELECT ABS(-5);")
            runner.run("SELECT UPPER('abc');")
        assert runner.compiled_executions > 0
        assert runner.compile_fallbacks == 0

    def test_compile_flag_disables_without_counting_fallbacks(self):
        runner = Runner(dialect_by_name("duckdb"), compile_plans=False)
        for _ in range(3):
            runner.run("SELECT ABS(-5);")
        assert runner.compiled_executions == 0
        assert runner.compile_fallbacks == 0

    def test_sandboxed_execution_falls_back_with_counter(self):
        """Sandboxed workers always interpret; the health surface reports
        the suppressed compilations as interpreter fallbacks."""
        result = run_campaign("duckdb", budget=60, seed=3, sandbox=True)
        assert result.compiled_executions == 0
        assert result.compile_fallbacks > 0


# ---------------------------------------------------------------------------
# compiled vs interpreted: campaign signatures
# ---------------------------------------------------------------------------
class TestCompiledSignatureParity:
    def _serial_signature(self, **kw):
        cfg = CampaignConfig(budget=600, seed=7, **kw)
        return Campaign(dialect_by_name("duckdb"), config=cfg).run().signature()

    def _parallel(self, jobs, **kw):
        cfg = CampaignConfig(dialect="duckdb", budget=600, seed=7, jobs=jobs, **kw)
        return ParallelCampaign(config=cfg).run()

    def test_serial_compile_on_equals_off(self):
        on = Campaign(
            dialect_by_name("duckdb"), config=CampaignConfig(budget=600, seed=7)
        ).run()
        off = Campaign(
            dialect_by_name("duckdb"),
            config=CampaignConfig(budget=600, seed=7, compile=False),
        ).run()
        assert on.signature() == off.signature()
        assert on.compiled_executions > 0
        assert off.compiled_executions == 0

    def test_jobs4_signature_equals_serial_compiled_and_not(self):
        serial = self._serial_signature()
        assert self._parallel(4).signature() == serial
        off = self._parallel(4, compile=False)
        assert off.signature() == serial
        assert off.compiled_executions == 0

    def test_jobs4_signature_equals_serial_with_faults(self):
        serial = self._serial_signature(faults=FAULT_SPEC, fault_seed=11)
        parallel = self._parallel(4, faults=FAULT_SPEC, fault_seed=11)
        assert parallel.signature() == serial

    def test_jobs4_signature_equals_serial_all_oracles(self):
        serial = self._serial_signature(oracles=ALL_ORACLES)
        parallel = self._parallel(4, oracles=ALL_ORACLES)
        assert parallel.signature() == serial

    def test_parallel_merges_compile_counters(self):
        result = self._parallel(2)
        assert result.compiled_executions > 0
        assert result.compile_fallbacks == 0


# ---------------------------------------------------------------------------
# warm-corpus handoff
# ---------------------------------------------------------------------------
class TestWarmCorpus:
    def test_export_and_warm_reproduce_the_hit_path(self):
        dialect = dialect_by_name("duckdb")
        source = Runner(dialect)
        for sql in ("SELECT ABS(-5);", "SELECT UPPER('abc');"):
            source.run(sql)
        corpus = source.server.stmt_cache.export_warm_sql(dialect.name)
        assert "SELECT ABS(-5);" in corpus

        target = Runner(dialect_by_name("duckdb"))
        cache = target.server.stmt_cache
        for sql in corpus:
            cache.warm(dialect.name, sql, target.server.ctx)
        before = cache.hits
        out = target.run("SELECT ABS(-5);")
        assert out.kind == "ok"
        assert cache.hits == before + 1

