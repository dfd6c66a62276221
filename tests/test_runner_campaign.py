"""Tests for the runner, oracle, and campaign orchestration."""

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.config import CampaignConfig
from repro.core.oracles import CrashOracle
from repro.core.runner import Runner
from repro.dialects import bugs_for, dialect_by_name
from repro.engine.connection import ConnectionClosed, ServerCrashed
from repro.engine.errors import (
    NullPointerDereference,
    ResourceError,
    ResourceExhausted,
    SQLError,
)
from repro.robustness.sandbox import WorkerCrashed, WorkerHung
from repro.robustness.watchdog import StatementTimeout


class TestRunner:
    def test_ok_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "ok"
        assert outcome.result_type == "integer"

    def test_error_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT NO_SUCH_FN(1);")
        assert outcome.kind == "error"

    def test_syntax_error_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELEKT;")
        assert outcome.kind == "error"

    @pytest.mark.parametrize(
        "sql", ["SELECT \u00b2;", "SELECT 1\u00b2;", "SELECT ABS(\u00b3);",
                "SELECT 'abc;"],
    )
    def test_lex_error_is_an_error_outcome(self, sql):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run(sql)
        assert outcome.kind == "error"
        assert "at offset" in outcome.message
        # non-ASCII decimal digits are still numbers
        assert runner.run("SELECT \u0661\u0662 + 1;").kind == "ok"

    def test_resource_kill_outcome(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT REPEAT('a', 9999999999);")
        assert outcome.kind == "resource_kill"

    def test_crash_outcome_and_restart(self):
        runner = Runner(dialect_by_name("mariadb"))
        outcome = runner.run("SELECT REVERSE('');")
        assert outcome.kind == "crash"
        assert outcome.crash.code == "NPD"
        assert runner.restarts == 1
        # the runner keeps serving after the restart
        assert runner.run("SELECT 1;").kind == "ok"

    def test_function_triggering_survives_restart(self):
        runner = Runner(dialect_by_name("mariadb"))
        runner.run("SELECT UPPER('a');")
        runner.run("SELECT REVERSE('');")  # crash + restart
        runner.run("SELECT LOWER('A');")
        assert {"upper", "lower"} <= runner.triggered_functions

    def test_coverage_accumulates(self):
        runner = Runner(dialect_by_name("mariadb"), enable_coverage=True)
        runner.run("SELECT UPPER('a');")
        first = runner.branch_coverage
        runner.run("SELECT JSON_LENGTH('[1, 2]');")
        assert runner.branch_coverage > first > 0

    def test_coverage_survives_crash_restart(self):
        runner = Runner(dialect_by_name("mariadb"), enable_coverage=True)
        runner.run("SELECT UPPER('a');")
        before = runner.branch_coverage
        assert runner.run("SELECT REVERSE('');").kind == "crash"
        # restart(keep_coverage=True) must not reset accumulated metrics
        assert runner.branch_coverage >= before > 0
        runner.run("SELECT JSON_LENGTH('[1, 2]');")
        assert runner.branch_coverage > before


def _timeout():
    return StatementTimeout(30.0, 31.0)


#: (exception factory, outcome kind, fault counters) when the exception is
#: raised by the first attempt; the timeout count is 1 only for the classes
#: that count one (a first kill, or a sandbox hang)
FIRST_ATTEMPT = [
    (lambda: ResourceExhausted("depth", 9, 2), "resource_exhausted", 0,
     {"governor.depth": 1}),
    (lambda: ResourceError("too big"), "resource_kill", 0, {}),
    (lambda: SQLError("no such function"), "error", 0, {}),
    (_timeout, "ok", 1, {"statement_kills": 1}),
    (lambda: WorkerHung("hung"), "timeout", 1,
     {"sandbox.hang_kills": 1, "sandbox.respawns": 1}),
    (lambda: WorkerCrashed("died"), "harness_crash", 0,
     {"sandbox.worker_deaths": 1, "sandbox.respawns": 1}),
    (lambda: ConnectionClosed("reset"), "ok", 0, {"reconnects": 1}),
    (lambda: ServerCrashed(NullPointerDereference("boom"), "SELECT 1;"),
     "crash", 0, {}),
    (RecursionError, "resource_kill", 0, {}),
]

#: the same classes raised by the quiet retry after a first-attempt
#: timeout: the first kill is counted once, and a second timeout (or a
#: sandbox hang) is the ``timeout`` outcome without a second count
QUIET_RETRY = [
    (lambda: ResourceExhausted("depth", 9, 2), "resource_exhausted", 1,
     {"statement_kills": 1, "governor.depth": 1}),
    (lambda: ResourceError("too big"), "resource_kill", 1,
     {"statement_kills": 1}),
    (lambda: SQLError("no such function"), "error", 1, {"statement_kills": 1}),
    (_timeout, "timeout", 1, {"statement_kills": 1}),
    (lambda: WorkerHung("hung"), "timeout", 1,
     {"statement_kills": 1, "sandbox.hang_kills": 1, "sandbox.respawns": 1}),
    (lambda: WorkerCrashed("died"), "harness_crash", 1,
     {"statement_kills": 1, "sandbox.worker_deaths": 1,
      "sandbox.respawns": 1}),
    (lambda: ConnectionClosed("reset"), "ok", 1,
     {"statement_kills": 1, "reconnects": 1}),
    (lambda: ServerCrashed(NullPointerDereference("boom"), "SELECT 1;"),
     "crash", 1, {"statement_kills": 1}),
    (RecursionError, "resource_kill", 1, {"statement_kills": 1}),
]


class TestOutcomeClassification:
    """Each exception class an attempt can raise maps to one outcome, with
    the same timeout and fault-counter accounting on the first attempt and
    on the quiet retry after a watchdog kill."""

    def _run(self, script):
        runner = Runner(dialect_by_name("duckdb"))
        real_execute = runner._execute
        quiet_flags = []

        def fake_execute(sql, quiet=False):
            quiet_flags.append(quiet)
            if len(quiet_flags) <= len(script):
                raise script[len(quiet_flags) - 1]()
            return real_execute(sql, quiet=quiet)

        runner._execute = fake_execute
        return runner, runner.run("SELECT 1;"), quiet_flags

    @pytest.mark.parametrize("make, kind, timeouts, counters", FIRST_ATTEMPT)
    def test_first_attempt(self, make, kind, timeouts, counters):
        runner, outcome, quiet_flags = self._run([make])
        assert outcome.kind == kind
        assert runner.timeouts == timeouts
        assert runner.tally.faults == counters
        # only the first attempt may run with faults enabled
        assert quiet_flags[0] is False
        assert all(quiet_flags[1:])

    @pytest.mark.parametrize("make, kind, timeouts, counters", QUIET_RETRY)
    def test_quiet_retry_after_timeout(self, make, kind, timeouts, counters):
        runner, outcome, quiet_flags = self._run([_timeout, make])
        assert outcome.kind == kind
        assert runner.timeouts == timeouts
        assert runner.tally.faults == counters
        assert quiet_flags[:2] == [False, True]
        assert all(quiet_flags[1:])

    def test_crash_restarts_and_recursion_restarts(self):
        for script in ([lambda: ServerCrashed(NullPointerDereference("boom"),
                                              "SELECT 1;")],
                       [RecursionError], [_timeout, RecursionError]):
            runner, _, _ = self._run(script)
            assert runner.restarts == 1


class TestServerLifecycle:
    def test_connection_closed_on_downed_server(self):
        server = dialect_by_name("mariadb").create_server()
        connection = server.connect()
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        assert not server.alive
        with pytest.raises(ConnectionClosed):
            connection.execute("SELECT 1;")

    def test_restart_revives_execution(self):
        server = dialect_by_name("mariadb").create_server()
        connection = server.connect()
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        server.restart()
        fresh = server.connect()
        assert fresh.execute("SELECT 1;").rows

    def test_restart_keep_coverage_preserves_metrics(self):
        from repro.engine.coverage import CoverageTracker

        server = dialect_by_name("mariadb").create_server()
        server.ctx.coverage = CoverageTracker()
        connection = server.connect()
        connection.execute("SELECT UPPER('a');")
        tracker = server.ctx.coverage
        arcs_before = len(tracker.arcs)
        assert arcs_before > 0
        with pytest.raises(ServerCrashed):
            connection.execute("SELECT REVERSE('');")
        server.restart(keep_coverage=True)
        assert server.ctx.coverage is tracker
        assert len(server.ctx.coverage.arcs) >= arcs_before


class TestOracle:
    def _crash(self, function="reverse", code_cls=NullPointerDereference):
        crash = code_cls("boom", function=function, stage="execute")
        return crash

    def test_dedup_by_function_and_class(self):
        oracle = CrashOracle("mariadb")
        first = oracle.observe_crash(self._crash(), "SELECT 1;", "P1.2", 1)
        dup = oracle.observe_crash(self._crash(), "SELECT 2;", "P1.2", 2)
        assert first is not None
        assert dup is None
        assert len(oracle.bugs) == 1

    def test_different_functions_not_deduped(self):
        oracle = CrashOracle("mariadb")
        oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        oracle.observe_crash(self._crash("upper"), "s", "P1.2", 2)
        assert len(oracle.bugs) == 2

    def test_attribution_to_injected_registry(self):
        oracle = CrashOracle("mariadb")
        found = oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        assert found.injected is not None
        assert found.injected.bug_id.startswith("MARIADB-STRI")

    def test_unknown_crash_still_recorded(self):
        oracle = CrashOracle("mariadb")
        found = oracle.observe_crash(self._crash("mystery_fn"), "s", "P1.2", 1)
        assert found.injected is None
        assert found.family == "unknown"

    def test_false_positive_dedup_by_reason(self):
        oracle = CrashOracle("mariadb")
        assert oracle.observe_resource_kill("SELECT A;", "allocation of 123 bytes")
        assert not oracle.observe_resource_kill("SELECT B;", "allocation of 456 bytes")
        assert oracle.observe_resource_kill("SELECT C;", "REPEAT result exceeds limit")
        assert len(oracle.false_positives) == 2

    def test_recall(self):
        oracle = CrashOracle("mariadb")
        expected = bugs_for("mariadb")
        assert oracle.recall_against(expected) == 0.0
        oracle.observe_crash(self._crash("reverse"), "s", "P1.2", 1)
        assert 0 < oracle.recall_against(expected) < 1


class TestCampaign:
    def test_small_campaign_finds_bugs(self):
        result = run_campaign("duckdb", budget=6000)
        assert result.queries_executed == 6000
        assert result.bug_count >= 5
        assert result.seeds_collected > 100
        assert len(result.triggered_functions) > 100

    def test_campaign_is_deterministic(self):
        a = run_campaign("monetdb", budget=3000, seed=7)
        b = run_campaign("monetdb", budget=3000, seed=7)
        assert [x.sql for x in a.bugs] == [y.sql for y in b.bugs]
        assert a.triggered_functions == b.triggered_functions

    def test_stop_when_all_found(self):
        dialect = dialect_by_name("postgresql")
        campaign = Campaign(dialect, config=CampaignConfig(
            dialect="postgresql", budget=200_000, stop_when_all_found=True))
        result = campaign.run()
        assert result.queries_executed < 200_000
        assert result.bug_count == 1

    def test_bug_discoveries_carry_pattern_and_sql(self):
        result = run_campaign("duckdb", budget=6000)
        for bug in result.bugs:
            assert bug.pattern.startswith(("P1", "P2", "P3", "seed"))
            assert bug.sql.startswith("SELECT")
            assert bug.crash_code

    def test_outcome_accounting_sums_to_budget(self):
        result = run_campaign("monetdb", budget=2500)
        assert sum(result.outcomes.values()) == result.queries_executed == 2500

    def test_injected_clock_reproduces_results(self):
        from repro.robustness import SimulatedClock

        dialect = dialect_by_name("monetdb")
        config = CampaignConfig(dialect="monetdb", budget=2000)
        a = Campaign(dialect, config=config, clock=SimulatedClock()).run()
        b = Campaign(dialect_by_name("monetdb"), config=config,
                     clock=SimulatedClock()).run()
        assert a.signature() == b.signature()
        assert a.elapsed_seconds == b.elapsed_seconds
