"""Tests for the execution sandbox: resource governor, subprocess workers,
crash-loop containment, and their campaign/parallel integration."""

import os
import signal

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.runner import Runner
from repro.dialects import dialect_by_name
from repro.engine.errors import ResourceError, ResourceExhausted, SQLError
from repro.robustness import (
    ContainmentState,
    ResourceBudgets,
    SandboxConfig,
    SandboxedConnection,
    make_sandbox_config,
)
from repro.robustness.sandbox import WorkerCrashed, WorkerHung


def first_seed(dialect_name="mariadb"):
    """The first seed-phase statement of a campaign (deterministic)."""
    seed = SeedCollector(dialect_by_name(dialect_name)).collect()[0]
    return f"SELECT {seed.sql};", seed.family


# ---------------------------------------------------------------------------
# resource governor
# ---------------------------------------------------------------------------
class TestResourceBudgets:
    def test_parse_round_trip(self):
        budgets = ResourceBudgets.parse("depth=64,rows=5000,bytes=1048576")
        assert budgets.depth == 64
        assert budgets.rows == 5000
        assert budgets.bytes == 1048576
        assert ResourceBudgets.parse(budgets.to_spec()) == budgets

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="unknown budget"):
            ResourceBudgets.parse("stack=64")
        with pytest.raises(ValueError, match="duplicate budget"):
            ResourceBudgets.parse("depth=64,depth=32")
        with pytest.raises(ValueError, match="must be an integer"):
            ResourceBudgets.parse("rows=nan")
        with pytest.raises(ValueError, match="positive integer"):
            ResourceBudgets.parse("rows=0")

    def test_disabled_by_default(self):
        assert not ResourceBudgets().enabled
        assert ResourceBudgets.parse("off") == ResourceBudgets()


class TestResourceGovernor:
    def test_depth_budget_contains_stack_overflow_bug(self):
        # MARIADB-AGGR-004 (MEDIAN) is an injected stack-overflow crash;
        # a depth budget converts the blow-up into resource_exhausted
        runner = Runner(dialect_by_name("mariadb"), budgets="depth=64")
        outcome = runner.run("SELECT MEDIAN(999999999999999);")
        assert outcome.kind == "resource_exhausted"
        assert runner.tally.faults.get("governor.depth") == 1
        # the server survives — no restart was needed
        assert runner.run("SELECT 1;").kind == "ok"

    def test_rows_budget_trips_on_cross_join(self):
        runner = Runner(dialect_by_name("postgresql"), budgets="rows=100")
        sql = (
            "SELECT 1 FROM (SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3 "
            "UNION ALL SELECT 4 UNION ALL SELECT 5) a, "
            "(SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3 "
            "UNION ALL SELECT 4 UNION ALL SELECT 5) b, "
            "(SELECT 1 UNION ALL SELECT 2 UNION ALL SELECT 3 "
            "UNION ALL SELECT 4 UNION ALL SELECT 5) c;"
        )
        outcome = runner.run(sql)
        assert outcome.kind == "resource_exhausted"
        assert runner.tally.faults.get("governor.rows") == 1

    def test_budgets_off_is_byte_identical(self):
        base = run_campaign("duckdb", budget=500)
        explicit = run_campaign("duckdb", budget=500, budgets=None,
                                sandbox=False)
        assert explicit.signature() == base.signature()
        assert not explicit.sandbox_active


# ---------------------------------------------------------------------------
# the subprocess worker
# ---------------------------------------------------------------------------
class TestSandboxedConnection:
    def test_execute_mirrors_connection_contract(self):
        sandbox = SandboxedConnection(dialect_by_name("mariadb"))
        try:
            result = sandbox.execute("SELECT UPPER('a');")
            assert result.rows
            with pytest.raises(SQLError):
                sandbox.execute("SELECT NO_SUCH_FN(1);")
            with pytest.raises(ResourceError):
                sandbox.execute("SELECT REPEAT('a', 9999999999);")
        finally:
            sandbox.close()

    def test_crash_and_restart_round_trip(self):
        from repro.engine.connection import ServerCrashed

        sandbox = SandboxedConnection(dialect_by_name("mariadb"))
        try:
            with pytest.raises(ServerCrashed) as excinfo:
                sandbox.execute("SELECT REVERSE('');")
            assert excinfo.value.crash.code == "NPD"
            assert excinfo.value.crash.backtrace  # survives the wire
            sandbox.restart_server()
            assert sandbox.execute("SELECT 1;").rows
        finally:
            sandbox.close()

    def test_triggered_functions_relayed_to_sink(self):
        sandbox = SandboxedConnection(dialect_by_name("mariadb"))
        sink = set()
        sandbox.triggered_sink = sink
        try:
            sandbox.execute("SELECT UPPER('a');")
            assert "upper" in sink
        finally:
            sandbox.close()

    def test_worker_kill_surfaces_as_crash_then_recovers(self):
        sandbox = SandboxedConnection(dialect_by_name("mariadb"))
        try:
            assert sandbox.execute("SELECT 1;").rows
            sandbox.kill_worker()
            with pytest.raises(WorkerCrashed):
                sandbox.execute("SELECT 1;")
            assert sandbox.tally.supervisor["worker_deaths"] == 1
            assert sandbox.tally.supervisor["respawns"] == 1
            # the respawned worker serves a fresh server
            assert sandbox.execute("SELECT 1;").rows
        finally:
            sandbox.close()

    def test_blown_wall_deadline_sigkills_the_worker(self):
        config = SandboxConfig(wall_deadline_seconds=0.05)
        sandbox = SandboxedConnection(dialect_by_name("mariadb"), config=config)
        try:
            # a stopped worker cannot answer, however short the statement;
            # a tiny deadline alone races a fast reply (poll waits >= 1 ms)
            os.kill(sandbox.pid, signal.SIGSTOP)
            with pytest.raises(WorkerHung):
                sandbox.execute("SELECT 1;")
            assert sandbox.tally.supervisor["kills"] == 1
            assert sandbox.tally.supervisor["respawns"] == 1
            assert sandbox.execute("SELECT 1;").rows
        finally:
            sandbox.close()

    def test_oversized_reply_becomes_resource_error(self):
        config = SandboxConfig(max_message_bytes=4096)
        sandbox = SandboxedConnection(dialect_by_name("mariadb"), config=config)
        try:
            with pytest.raises(ResourceError, match="channel cap"):
                sandbox.execute("SELECT REPEAT('a', 100000);")
            # the worker survived: only the reply was refused
            assert sandbox.tally.supervisor["worker_deaths"] == 0
            assert sandbox.execute("SELECT 1;").rows
        finally:
            sandbox.close()

    def test_budgets_apply_inside_the_worker(self):
        sandbox = SandboxedConnection(
            dialect_by_name("mariadb"), budgets=ResourceBudgets.parse("depth=64")
        )
        try:
            with pytest.raises(ResourceExhausted) as excinfo:
                sandbox.execute("SELECT MEDIAN(999999999999999);")
            assert excinfo.value.budget == "depth"
        finally:
            sandbox.close()

    def test_make_sandbox_config_coercion(self):
        assert make_sandbox_config(None) is None
        assert make_sandbox_config(False) is None
        assert make_sandbox_config(True) == SandboxConfig()
        config = SandboxConfig(breaker_threshold=5)
        assert make_sandbox_config(config) is config
        with pytest.raises(TypeError):
            make_sandbox_config("yes")


class TestRunnerSandboxOutcomes:
    def test_worker_death_is_harness_crash_outcome(self):
        runner = Runner(dialect_by_name("mariadb"), sandbox=True)
        try:
            assert runner.run("SELECT 1;").kind == "ok"
            runner.sandbox.kill_worker()
            outcome = runner.run("SELECT 2;")
            assert outcome.kind == "harness_crash"
            assert runner.tally.faults.get("sandbox.worker_deaths") == 1
            assert runner.tally.faults.get("sandbox.respawns") == 1
            # the supervisor counts the same death in the runner's tally
            assert runner.tally.supervisor["worker_deaths"] == 1
            # campaign keeps going on the respawned worker
            assert runner.run("SELECT 3;").kind == "ok"
        finally:
            runner.close()

    def test_sandbox_excludes_faults_and_coverage(self):
        dialect = dialect_by_name("mariadb")
        with pytest.raises(ValueError, match="mutually exclusive"):
            Runner(dialect, sandbox=True, faults="default")
        with pytest.raises(ValueError, match="coverage"):
            Runner(dialect_by_name("mariadb"), sandbox=True,
                   enable_coverage=True)


# ---------------------------------------------------------------------------
# crash-loop containment
# ---------------------------------------------------------------------------
class TestContainmentState:
    def test_breaker_opens_after_threshold_consecutive_kills(self):
        state = ContainmentState(breaker_threshold=3)
        for i in range(3):
            assert state.should_skip(f"SELECT {i};", "string") is None
            state.observe("harness_crash", f"SELECT {i};", "string", "boom")
        assert state.open_breakers == ["string"]
        assert "circuit breaker open" in state.should_skip(
            "SELECT fresh;", "string"
        )
        # other families are unaffected
        assert state.should_skip("SELECT 9;", "numeric") is None

    def test_success_resets_a_closed_breaker(self):
        state = ContainmentState(breaker_threshold=3)
        state.observe("harness_crash", "SELECT a;", "string", "boom")
        state.observe("harness_crash", "SELECT b;", "string", "boom")
        state.observe("ok", "SELECT c;", "string")
        state.observe("harness_crash", "SELECT d;", "string", "boom")
        assert state.open_breakers == []

    def test_quarantined_statement_with_open_breaker_skips_once(self):
        state = ContainmentState(breaker_threshold=1)
        state.observe("harness_crash", "SELECT kill;", "string", "boom")
        assert state.open_breakers == ["string"]
        # the statement is both quarantined and in an open-breaker family:
        # one skip decision, one reason (quarantine wins)
        reason = state.should_skip("SELECT kill;", "string")
        assert reason.startswith("quarantined:")

    def test_export_restore_round_trip(self):
        state = ContainmentState(breaker_threshold=2, quarantine=("SELECT q;",))
        state.observe("harness_crash", "SELECT a;", "string", "boom")
        state.observe("harness_crash", "SELECT b;", "string", "boom")
        restored = ContainmentState()
        restored.restore_state(state.export_state())
        assert restored.quarantine == state.quarantine
        assert restored.open_breakers == ["string"]
        # restored breakers stay open
        assert restored.should_skip("SELECT x;", "string") is not None

    def test_merge_unions_quarantine_and_or_opens_breakers(self):
        parent = ContainmentState(breaker_threshold=2)
        shard_a = ContainmentState(breaker_threshold=2)
        shard_a.observe("harness_crash", "SELECT a;", "string", "boom")
        shard_a.observe("harness_crash", "SELECT b;", "string", "boom")
        shard_b = ContainmentState(breaker_threshold=2)
        shard_b.observe("harness_crash", "SELECT c;", "json", "boom")
        parent.merge([shard_a.export_state(), shard_b.export_state()])
        assert set(parent.quarantine) == {"SELECT a;", "SELECT b;", "SELECT c;"}
        assert parent.open_breakers == ["string"]


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------
class TestSandboxCampaign:
    def test_sandboxed_campaign_matches_in_process_results(self):
        plain = run_campaign("postgresql", budget=300)
        boxed = run_campaign("postgresql", budget=300, sandbox=True)
        assert dict(boxed.outcomes) == dict(plain.outcomes)
        assert [b.sql for b in boxed.bugs] == [b.sql for b in plain.bugs]
        assert boxed.triggered_functions == plain.triggered_functions
        assert boxed.sandbox_active and not plain.sandbox_active

    def test_quarantined_statement_is_skipped_not_executed(self):
        sql0, _family = first_seed("mariadb")
        config = SandboxConfig(quarantine=(sql0,))
        result = run_campaign("mariadb", budget=300, sandbox=config)
        assert result.outcomes.get("skipped", 0) >= 1
        assert result.quarantined_statements >= 1
        # a skipped statement spends its stream slot: the budget caps
        # processed positions so serial and sharded runs stay in lockstep
        assert result.queries_executed == 300 - result.outcomes["skipped"]
        assert sum(result.outcomes.values()) == 300

    def test_quarantine_plus_open_breaker_skips_exactly_once(self):
        # a statement that is BOTH quarantined and in an open-breaker
        # family must produce exactly one skipped outcome — adding the
        # quarantine on top of the breaker changes nothing in the stream
        sql0, family = first_seed("mariadb")

        def campaign(quarantine):
            c = Campaign(
                dialect_by_name("mariadb"),
                config=CampaignConfig(
                    dialect="mariadb", budget=300,
                    sandbox=SandboxConfig(breaker_threshold=1,
                                          quarantine=quarantine),
                ),
            )
            c.containment.observe(
                "harness_crash", "SELECT never_generated;", family, "boom"
            )
            assert c.containment.open_breakers == [family]
            return c.run()

        breaker_only = campaign(())
        both = campaign((sql0,))
        assert breaker_only.outcomes["skipped"] >= 1
        assert dict(both.outcomes) == dict(breaker_only.outcomes)
        assert both.open_breakers == [family]

    def test_containment_survives_checkpoint_resume(self, tmp_path):
        sql0, _family = first_seed("duckdb")
        path = str(tmp_path / "sandbox.ckpt")
        kwargs = dict(budget=400, seed=3,
                      sandbox=SandboxConfig(quarantine=(sql0,)))
        full = run_campaign("duckdb", checkpoint_path=path, checkpoint_every=150,
                            **kwargs)
        resumed = run_campaign("duckdb", checkpoint_path=path, resume=True, **kwargs)
        assert resumed.signature() == full.signature()
        assert resumed.outcomes["skipped"] == full.outcomes["skipped"] >= 1

    def test_campaign_rejects_sandbox_with_faults(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_campaign("mariadb", budget=100, sandbox=True, faults="default")


class TestParallelSandboxCampaign:
    def test_jobs4_sandbox_matches_serial_signature(self):
        serial = run_campaign("postgresql", budget=300, sandbox=True)
        parallel = run_campaign("postgresql", jobs=4, budget=300,
                                sandbox=True)
        assert parallel.signature() == serial.signature()

    def test_jobs4_quarantine_skips_exactly_once(self):
        sql0, _family = first_seed("mariadb")
        config = SandboxConfig(quarantine=(sql0,))
        serial = run_campaign("mariadb", budget=300, sandbox=config)
        parallel = run_campaign("mariadb", jobs=4, budget=300,
                                sandbox=config)
        # the quarantined statement is skipped once across ALL shards —
        # exactly as often as the serial stream skips it
        assert parallel.outcomes["skipped"] == serial.outcomes["skipped"] >= 1
        assert parallel.signature() == serial.signature()

    def test_parallel_rejects_sandbox_with_faults(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_campaign("mariadb", jobs=2, budget=100,
                         sandbox=True, faults="default")
