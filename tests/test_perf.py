"""Tests for ``repro.perf``: the statement parse/plan cache and the sharded
parallel campaign executor.

The contract under test is strict: caching and sharding are *transparent*
optimizations — a cached plan must produce byte-identical outcomes to a
cold parse, and a ``jobs=N`` campaign must report the same
``CampaignResult.signature()`` as the serial run, faults on or off.
"""

import itertools

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.config import CampaignConfig
from repro.core.collect import SeedCollector
from repro.core.patterns import GeneratedCase, PatternEngine
from repro.core.runner import Runner
from repro.dialects import all_dialect_classes, bugs_for, dialect_by_name
from repro.engine.connection import ConnectionClosed
from repro.perf import StatementCache
from repro.perf.parallel import ParallelCampaign, run_parallel_campaign
from repro.robustness.watchdog import StatementTimeout

FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"


# ---------------------------------------------------------------------------
# statement cache: mechanics
# ---------------------------------------------------------------------------
class TestStatementCache:
    def _connection(self):
        return dialect_by_name("duckdb").create_server().connect()

    def test_exact_tier_hit_on_repeated_statement(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        first = conn.execute("SELECT ABS(-5);").rendered()
        assert cache.hits == 0
        second = conn.execute("SELECT ABS(-5);").rendered()
        assert second == first
        assert cache.hits == 1

    def test_template_tier_hit_on_same_shape(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        assert conn.execute("SELECT ABS(-5);").scalar().render() == "5"
        # same token shape, different literal: parse is reused, the literal
        # slot is rebound, and the value must be the rebound one
        assert conn.execute("SELECT ABS(-7);").scalar().render() == "7"
        assert cache.hits == 1
        assert conn.execute("SELECT ABS(-123);").scalar().render() == "123"
        assert cache.hits == 2

    def test_string_literals_rebind(self):
        conn = self._connection()
        assert conn.execute("SELECT UPPER('abc');").scalar().render() == "ABC"
        assert conn.execute("SELECT UPPER('xyz');").scalar().render() == "XYZ"
        assert conn.server.stmt_cache.hits == 1

    def test_literal_kind_is_part_of_the_shape(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        conn.execute("SELECT LENGTH('abc');")
        # integer argument is a *different* shape than a string argument —
        # it must not hit the string template
        conn.execute("SELECT LENGTH(123);")
        assert cache.hits == 0

    def test_ddl_invalidates(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        conn.execute("SELECT ABS(-5);")
        assert len(cache) > 0
        conn.execute("CREATE TABLE t (a INT)")
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_set_statement_invalidates(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        conn.execute("SELECT ABS(-5);")
        assert len(cache) > 0
        conn.execute("SET fold_functions = '1'")
        assert len(cache) == 0

    def test_restart_invalidates(self):
        conn = self._connection()
        server = conn.server
        server.connect().execute("SELECT ABS(-5);")
        assert len(server.stmt_cache) > 0
        server.restart()
        assert len(server.stmt_cache) == 0
        # counters survive the restart — they describe the workload
        assert server.stmt_cache.misses > 0

    def test_multi_statement_sql_bypasses_cache(self):
        conn = self._connection()
        cache = conn.server.stmt_cache
        conn.execute("SELECT 1; SELECT 2;")
        conn.execute("SELECT 1; SELECT 2;")
        assert cache.hits == 0

    def test_bypass_knob(self):
        runner = Runner(dialect_by_name("duckdb"), statement_cache=False)
        assert runner.server.stmt_cache is None
        runner.run("SELECT ABS(-5);")
        runner.run("SELECT ABS(-5);")
        assert runner.cache_hits == 0
        assert runner.cache_misses == 0

    def test_lru_eviction(self):
        cache = StatementCache(capacity=2, template_capacity=2)
        from repro.engine.connection import Server

        server = Server(dialect_by_name("duckdb"))
        server.stmt_cache = cache
        conn = server.connect()
        conn.execute("SELECT ABS(-1);")
        conn.execute("SELECT UPPER('a');")
        conn.execute("SELECT LENGTH('bb');")  # evicts the ABS entries
        assert len(cache._exact) <= 2
        assert len(cache._templates) <= 2


# ---------------------------------------------------------------------------
# statement cache: differential correctness (the property the design hinges on)
# ---------------------------------------------------------------------------
def _outcome_key(outcome):
    return (outcome.kind, outcome.message, outcome.result_type)


class TestCacheDifferential:
    @pytest.mark.parametrize(
        "dialect_name",
        [cls().name for cls in all_dialect_classes()],
    )
    def test_cached_and_uncached_outcomes_identical(self, dialect_name):
        """Identical (kind, message, result_type) streams over a sample of
        pattern-generated statements — including the dialect's injected-bug
        PoCs, which crash the server and exercise the restart-invalidation
        path mid-stream."""
        dialect = dialect_by_name(dialect_name)
        seeds = SeedCollector(dialect).collect()
        engine = PatternEngine(seeds)
        statements = [f"SELECT {s.sql};" for s in seeds[:20]]
        statements += [
            case.sql for case in itertools.islice(engine.generate_all(), 150)
        ]
        # splice crashing PoCs into the middle so later statements run
        # against a restarted server on both sides
        pocs = [bug.poc for bug in bugs_for(dialect_name)[:4]]
        statements[60:60] = pocs
        cached = Runner(dialect_by_name(dialect_name))
        uncached = Runner(dialect_by_name(dialect_name), statement_cache=False)
        for sql in statements:
            a = cached.run(sql)
            b = uncached.run(sql)
            assert _outcome_key(a) == _outcome_key(b), sql
        assert uncached.cache_misses == 0

    def test_cache_actually_hits_on_pattern_streams(self):
        dialect = dialect_by_name("duckdb")
        seeds = SeedCollector(dialect).collect()
        engine = PatternEngine(seeds)
        runner = Runner(dialect)
        for case in itertools.islice(engine.generate_all(), 400):
            runner.run(case.sql)
        assert runner.cache_hits > 0

    def test_campaign_signature_cached_equals_uncached(self):
        cached = run_campaign("duckdb", budget=1_000, seed=3)
        uncached = run_campaign("duckdb", budget=1_000, seed=3, statement_cache=False)
        assert cached.signature() == uncached.signature()
        assert cached.cache_hits > 0
        assert uncached.cache_hits == 0


# ---------------------------------------------------------------------------
# parallel campaigns: determinism
# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    def test_jobs_4_signature_equals_serial(self):
        serial = Campaign(
            dialect_by_name("duckdb"),
            config=CampaignConfig(dialect="duckdb", budget=2_000, seed=3),
        ).run()
        parallel = ParallelCampaign(
            config=CampaignConfig(dialect="duckdb", jobs=4, budget=2_000, seed=3)
        ).run()
        assert parallel.signature() == serial.signature()

    def test_jobs_4_signature_equals_serial_with_faults(self):
        serial = run_campaign(
            "duckdb", budget=2_000, seed=3, faults=FAULT_SPEC, fault_seed=5
        )
        parallel = run_parallel_campaign(
            "duckdb", jobs=4, budget=2_000, seed=3,
            faults=FAULT_SPEC, fault_seed=5,
        )
        assert parallel.signature() == serial.signature()

    def test_jobs_1_runs_inline_and_matches(self):
        serial = run_campaign("duckdb", budget=1_000, seed=3)
        inline = run_parallel_campaign("duckdb", jobs=1, budget=1_000, seed=3)
        assert inline.signature() == serial.signature()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelCampaign(config=CampaignConfig(dialect="duckdb", jobs=0))

    def test_merged_throughput_counters_populated(self):
        result = run_parallel_campaign("duckdb", jobs=2, budget=1_000, seed=3)
        assert result.wall_seconds > 0
        assert result.statements_per_second > 0
        assert result.cache_hits + result.cache_misses >= result.queries_executed


# ---------------------------------------------------------------------------
# parallel campaigns: shard checkpoint/resume
# ---------------------------------------------------------------------------
class TestParallelResume:
    def test_interrupted_shards_resume_to_identical_signature(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=1_200, seed=3,
            checkpoint_path=path, checkpoint_every=100,
        )
        interrupted = ParallelCampaign(config=config)
        interrupted._stop_after = 150  # simulate a mid-campaign kill
        partial = interrupted.run()
        assert partial.queries_executed < 1_200

        resumed = ParallelCampaign(config=config).run(resume=True)
        fresh = ParallelCampaign(
            config=config.replace(checkpoint_path=None)
        ).run()
        assert resumed.signature() == fresh.signature()

    def test_resume_rejects_mismatched_configuration(self, tmp_path):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=600, seed=3,
            checkpoint_path=path, checkpoint_every=100,
        )
        ParallelCampaign(config=config).run()
        with pytest.raises(CheckpointError):
            ParallelCampaign(
                config=config.replace(seed=4)  # different seed
            ).run(resume=True)


# ---------------------------------------------------------------------------
# satellite: the quiet retry after a timeout routes ConnectionClosed through
# RetryPolicy
# ---------------------------------------------------------------------------
class TestTimeoutRetryBackoff:
    def _runner_with_script(self, script):
        """A runner whose _execute raises/returns per the scripted steps."""
        runner = Runner(dialect_by_name("duckdb"))
        real_execute = runner._execute
        calls = []

        def fake_execute(sql, quiet=False):
            calls.append(quiet)
            step = script[min(len(calls), len(script)) - 1]
            if step is None:
                return real_execute(sql, quiet=quiet)
            raise step

        runner._execute = fake_execute
        return runner, calls

    def test_connection_lost_during_quiet_retry_is_retried(self):
        # timeout → quiet retry loses the connection → reconnect+backoff →
        # retry succeeds.  Before the fix this gave up after one attempt.
        runner, calls = self._runner_with_script(
            [StatementTimeout(30.0, 31.0), ConnectionClosed("reset"), None]
        )
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "ok"
        assert runner.fault_counters.get("reconnects") == 1
        assert len(calls) == 3

    def test_persistent_connection_loss_exhausts_policy(self):
        runner, calls = self._runner_with_script(
            [StatementTimeout(30.0, 31.0), ConnectionClosed("reset")]
        )
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "error"
        assert "attempts" in outcome.message
        # one timeout attempt + max_attempts-bounded reconnect attempts
        assert runner.fault_counters["reconnects"] >= 2


# ---------------------------------------------------------------------------
# lazy case generation
# ---------------------------------------------------------------------------
class TestLazyCases:
    def test_deferred_case_builds_sql_once(self):
        built = []

        def build():
            built.append(1)
            return "SELECT 1;"

        case = GeneratedCase.deferred(build, "P1.2", "abs", "math")
        assert built == []  # nothing rendered yet
        assert case.sql == "SELECT 1;"
        assert case.sql == "SELECT 1;"
        assert built == [1]  # memoized

    def test_eager_constructor_still_works(self):
        case = GeneratedCase("SELECT 2;", "P1.3", "abs", "math")
        assert case.sql == "SELECT 2;"
        assert case.pattern == "P1.3"


# ---------------------------------------------------------------------------
# parallel campaigns: oracle pipelines merge shard-by-shard
# ---------------------------------------------------------------------------
class TestParallelOracles:
    ALL = "crash,differential,conformance"

    def test_all_oracles_signature_equals_serial(self):
        serial = run_campaign("duckdb", budget=2_000, seed=3, oracles=self.ALL)
        parallel = run_parallel_campaign(
            "duckdb", jobs=4, budget=2_000, seed=3, oracles=self.ALL
        )
        assert serial.findings  # the logic oracles saw the seeded flaws
        assert parallel.signature() == serial.signature()
        assert [f.signature_tuple() for f in parallel.findings] == \
            [f.signature_tuple() for f in serial.findings]

    def test_all_oracles_signature_equals_serial_with_faults(self):
        serial = run_campaign(
            "duckdb", budget=2_000, seed=3, oracles=self.ALL,
            faults=FAULT_SPEC, fault_seed=5,
        )
        parallel = run_parallel_campaign(
            "duckdb", jobs=4, budget=2_000, seed=3, oracles=self.ALL,
            faults=FAULT_SPEC, fault_seed=5,
        )
        assert parallel.signature() == serial.signature()

    def test_resume_refuses_different_oracle_set(self, tmp_path):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=1_200, seed=3, oracles=self.ALL,
            checkpoint_path=path, checkpoint_every=100,
        )
        interrupted = ParallelCampaign(config=config)
        interrupted._stop_after = 150
        interrupted.run()
        with pytest.raises(CheckpointError):
            ParallelCampaign(
                config=config.replace(oracles=("crash",))  # crash-only now
            ).run(resume=True)
