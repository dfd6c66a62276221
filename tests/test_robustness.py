"""Tests for the robustness layer: faults, retries, watchdog, checkpoints."""

import json
import os
from dataclasses import asdict

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.config import CampaignConfig
from repro.core.oracles import CrashOracle
from repro.core.runner import Runner
from repro.dialects import dialect_by_name
from repro.engine.connection import (
    ConnectionDropped,
    RestartFailed,
    Server,
)
from repro.engine.errors import NullPointerDereference
from repro.robustness import (
    CampaignCheckpoint,
    CheckpointError,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    ServerQuarantined,
    SimulatedClock,
    StatementTimeout,
    Watchdog,
    make_fault_injector,
)

FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"


def faulted_runner(plan_spec, dialect="mariadb", **kwargs):
    clock = SimulatedClock()
    injector = FaultInjector(FaultPlan.parse(plan_spec), seed=1, clock=clock)
    runner = Runner(dialect_by_name(dialect), faults=injector, clock=clock, **kwargs)
    return runner, injector, clock


class TestFaultPlan:
    def test_parse_default_preset(self):
        plan = FaultPlan.parse("default")
        assert plan.any_enabled
        assert plan.hang_rate > 0 and plan.restart_failure_rate > 0

    def test_parse_named_rates_with_aliases(self):
        plan = FaultPlan.parse("hang=0.1,flaky=0.05,restart_fail=0.2")
        assert plan.hang_rate == 0.1
        assert plan.flaky_crash_rate == 0.05
        assert plan.restart_failure_rate == 0.2
        assert plan.drop_rate == 0.0

    def test_parse_off(self):
        assert not FaultPlan.parse("off").any_enabled

    def test_parse_rejects_unknown_class(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("gremlins=0.5")

    def test_parse_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("hang=lots")
        with pytest.raises(ValueError):
            FaultPlan(hang_rate=1.5)

    def test_rates_must_fit_one_statement_draw(self):
        with pytest.raises(ValueError):
            FaultPlan(hang_rate=0.6, drop_rate=0.6)

    def test_parse_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate fault spec key 'hang'"):
            FaultPlan.parse("hang=0.01,hang=0.02")

    def test_parse_rejects_aliased_duplicates(self):
        # "flaky" and "flaky_crash" both resolve to flaky_crash_rate; the
        # duplicate check runs after alias resolution so this is caught too
        with pytest.raises(
            ValueError,
            match="duplicate fault spec key 'flaky_crash'.*flaky_crash_rate "
            "was already set",
        ):
            FaultPlan.parse("flaky=0.01,flaky_crash=0.02")

    def test_parse_rejects_nan_rate(self):
        with pytest.raises(
            ValueError, match="fault spec value for hang_rate must not be NaN"
        ):
            FaultPlan.parse("hang=nan")

    def test_parse_rejects_negative_rate(self):
        with pytest.raises(
            ValueError,
            match=r"fault spec value for drop_rate must be >= 0, got -0.1",
        ):
            FaultPlan.parse("drop=-0.1")

    def test_make_injector_coercions(self):
        assert make_fault_injector(None) is None
        assert make_fault_injector("off") is None
        assert isinstance(make_fault_injector("default"), FaultInjector)
        assert isinstance(make_fault_injector(FaultPlan(drop_rate=0.1)), FaultInjector)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.0)
        delays = [policy.delay(a) for a in range(1, 7)]
        assert delays[:4] == [1.0, 2.0, 4.0, 8.0]
        assert delays[4] == delays[5] == 8.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5, seed=42)
        again = RetryPolicy(base_delay=1.0, jitter=0.5, seed=42)
        for attempt in range(1, 6):
            assert policy.delay(attempt) == again.delay(attempt)
            raw = min(1.0 * 2 ** (attempt - 1), policy.max_delay)
            assert raw <= policy.delay(attempt) <= raw * 1.5

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.allows(3)
        assert not policy.allows(4)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker("duckdb", failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        breaker.check()  # still closed
        breaker.record_failure()
        assert breaker.is_open
        with pytest.raises(ServerQuarantined):
            breaker.check()

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.is_open


class TestWatchdog:
    def test_guard_charges_statement_cost(self):
        clock = SimulatedClock()
        watchdog = Watchdog(clock, deadline_seconds=10, statement_cost_seconds=0.5)
        assert watchdog.guard(lambda: "ok") == "ok"
        assert clock.now() == 0.5

    def test_overrun_raises_timeout(self):
        clock = SimulatedClock()
        watchdog = Watchdog(clock, deadline_seconds=1.0, statement_cost_seconds=0.1)

        def slow():
            clock.advance(5.0)
            return "done"

        with pytest.raises(StatementTimeout) as raised:
            watchdog.guard(slow)
        assert raised.value.deadline == 1.0
        assert raised.value.elapsed > 5.0

    def test_genuine_timeout_outcome(self):
        clock = SimulatedClock()
        runner = Runner(
            dialect_by_name("mariadb"),
            clock=clock,
            watchdog=Watchdog(clock, deadline_seconds=0.001, statement_cost_seconds=0.01),
        )
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "timeout"
        assert "deadline" in outcome.message


class TestFaultInjection:
    def test_hang_is_killed_and_recovered(self):
        runner, injector, clock = faulted_runner("hang=1.0")
        outcome = runner.run("SELECT 1;")
        # the kill plus one quiet retry recovers the statement
        assert outcome.kind == "ok"
        assert runner.tally.faults["hang"] >= 1
        assert runner.tally.faults["statement_kills"] == 1
        assert clock.now() > 500  # the hang burned simulated time

    def test_drop_reconnects_and_recovers(self):
        runner, injector, _ = faulted_runner("drop=1.0")
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "ok"
        assert runner.tally.faults["drop"] == 1
        assert runner.tally.faults["reconnects"] == 1
        assert runner.restarts == 0  # the server never died

    def test_flaky_crash_reconfirmed_as_flaky_not_bug(self):
        runner, injector, _ = faulted_runner("flaky=1.0")
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "flaky"
        assert runner.tally.faults["flaky_crashes"] == 1
        assert runner.restarts == 1
        # the runner keeps serving afterwards
        assert runner.run("SELECT 2;").kind == "flaky"  # every statement is flaky here

    def test_genuine_crash_survives_reconfirmation(self):
        runner, injector, _ = faulted_runner("slow=0.5")
        outcome = runner.run("SELECT REVERSE('');")
        assert outcome.kind == "crash"
        assert outcome.crash.code == "NPD"
        assert runner.restarts == 2  # initial restart + post-reconfirmation restart

    def test_flaky_masked_bug_still_reconfirms_as_crash(self):
        # every statement draws a spurious crash, but the reconfirmation
        # executes for real and must find the genuine NPD underneath
        runner, injector, _ = faulted_runner("flaky=1.0")
        outcome = runner.run("SELECT REVERSE('');")
        assert outcome.kind == "crash"
        assert outcome.crash.code == "NPD"
        assert outcome.crash.function == "reverse"

    def test_restart_failures_retry_with_backoff(self):
        runner, injector, clock = faulted_runner("restart_fail=0.5")
        outcome = runner.run("SELECT REVERSE('');")  # crash forces restarts
        assert outcome.kind == "crash"
        assert runner.run("SELECT 1;").kind == "ok"

    def test_unrecoverable_restarts_quarantine_the_server(self):
        runner, injector, _ = faulted_runner("restart_fail=1.0")
        with pytest.raises(ServerQuarantined):
            runner.run("SELECT REVERSE('');")
        assert runner.breaker.is_open
        # once open, the breaker refuses further work immediately
        with pytest.raises(ServerQuarantined):
            runner._restart()

    def test_fault_stream_is_keyed_by_statement_position(self):
        # the schedule for a statement depends only on (fault seed,
        # position) — not on what executed before it.  Run two statements
        # in order, then replay the second alone on a fresh injector: the
        # draw it sees must be identical.
        runner, injector, _ = faulted_runner("slow=0.0")  # all rates zero
        runner.run("SELECT 1;")
        injector.set_position(1)
        expected = injector.rng.random()
        fresh_runner, fresh_injector, _ = faulted_runner("slow=0.0")
        fresh_injector.set_position(1)
        assert fresh_injector.rng.random() == expected

    def test_one_rng_draw_per_statement(self):
        runner, injector, _ = faulted_runner("slow=0.0")  # all rates zero
        runner.run("SELECT 1;")
        after = injector.rng.getstate()
        # exactly one draw: re-keying to the same position and drawing
        # once reproduces the post-statement RNG state
        injector.set_position(0)
        first_draw = injector.rng.random()
        assert injector.rng.getstate() == after
        # adjacent positions get decorrelated streams
        injector.set_position(1)
        assert injector.rng.random() != first_draw


class TestConnectionFaults:
    def test_connection_dropped_is_a_connection_closed(self):
        assert issubclass(ConnectionDropped, Exception)
        from repro.engine.connection import ConnectionClosed

        assert issubclass(ConnectionDropped, ConnectionClosed)

    def test_server_restart_is_exception_safe(self):
        server = dialect_by_name("mariadb").create_server()

        class FailingHook:
            def on_execute(self, connection, sql):
                pass

            def on_restart(self, srv):
                raise RestartFailed("wedged")

        server.alive = False
        ctx_before = server.ctx
        server.fault_hook = FailingHook()
        with pytest.raises(RestartFailed):
            server.restart()
        assert server.alive is False
        assert server.ctx is ctx_before  # nothing was torn down
        assert server.restart_failures == 1
        server.fault_hook = None
        server.restart()
        assert server.alive is True

    def test_runner_auto_reconnects_on_downed_server(self):
        # kill the server behind the runner's back: the next run() must
        # auto-reconnect (restart) instead of leaking ConnectionClosed
        runner = Runner(dialect_by_name("mariadb"))
        runner.server.alive = False
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "ok"
        assert runner.restarts == 1


class TestCampaignResilience:
    def test_faulted_campaign_reports_fault_free_bug_set(self):
        base = run_campaign("duckdb", budget=2000, seed=3)
        faulted = run_campaign(
            "duckdb", budget=2000, seed=3, faults=FAULT_SPEC, fault_seed=5
        )
        assert faulted.bug_keys() == base.bug_keys()
        # all three headline fault classes actually fired
        assert faulted.fault_counters["hang"] > 0
        assert faulted.fault_counters["drop"] > 0
        assert faulted.fault_counters["restart_fail"] > 0
        # zero injected flaky crashes surfaced as DiscoveredBugs
        assert faulted.flaky_signals
        flaky_sqls = set(faulted.flaky_signals)
        assert not {b.sql for b in faulted.bugs if b.function == "unknown"}
        assert faulted.outcomes["flaky"] == len(faulted.flaky_signals)

    def test_fault_counters_stay_out_of_outcomes(self):
        faulted = run_campaign(
            "monetdb", budget=1000, seed=1, faults="drop=0.05", fault_seed=2
        )
        assert faulted.fault_counters.get("drop", 0) > 0
        assert not [k for k in faulted.outcomes if k.startswith("fault.")]
        assert sum(faulted.outcomes.values()) == faulted.queries_executed

    def test_quarantined_campaign_degrades_instead_of_aborting(self):
        result = run_campaign("mariadb", budget=3000, seed=0, faults="restart_fail=1.0")
        assert result.quarantined
        assert "quarantined" in result.quarantine_reason
        assert 0 < result.queries_executed < 3000
        assert sum(result.outcomes.values()) == result.queries_executed

    def test_same_seed_campaigns_are_identical(self):
        kwargs = dict(budget=1200, seed=11, faults=FAULT_SPEC, fault_seed=7)
        a = run_campaign("monetdb", **kwargs)
        b = run_campaign("monetdb", **kwargs)
        assert a.signature() == b.signature()
        assert a.elapsed_seconds == b.elapsed_seconds  # simulated clock


class TestCheckpointResume:
    def test_checkpoint_file_roundtrip(self, tmp_path):
        path = str(tmp_path / "cp.json")
        cp = CampaignCheckpoint(
            spec={"dialect": "duckdb", "seed": 1, "oracles": ["crash"]},
            progress={"position": 50, "outcomes": {"ok": 40, "error": 10}},
            return_types={"abs": "integer"},
            elapsed_seconds=2.5,
        )
        cp.save(path)
        loaded = CampaignCheckpoint.load(path)
        assert loaded == cp

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(str(path))

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "cp.json"
        path.write_text(json.dumps({"version": 999}))
        with pytest.raises(CheckpointError):
            CampaignCheckpoint.load(str(path))

    def test_resume_refuses_mismatched_campaign(self, tmp_path):
        path = str(tmp_path / "cp.json")
        run_campaign("duckdb", budget=600, seed=3, checkpoint_path=path,
                     checkpoint_every=200)
        with pytest.raises(CheckpointError):
            run_campaign("duckdb", budget=600, seed=4, checkpoint_path=path,
                         resume=True)
        with pytest.raises(CheckpointError):
            run_campaign("monetdb", budget=600, seed=3, checkpoint_path=path,
                         resume=True)
        # every field that shapes the stream or the result is checked,
        # and the error names it
        for field, options in [
            ("statement_family", dict(statement_family="predicate")),
            ("faults", dict(faults=FAULT_SPEC)),
            ("budgets", dict(budgets="depth=64")),
        ]:
            with pytest.raises(CheckpointError, match=f"'{field}'"):
                run_campaign("duckdb", budget=600, seed=3, checkpoint_path=path,
                             resume=True, **options)
        # a faulted checkpoint resumes only under the same fault schedule
        faulted_path = str(tmp_path / "faulted.json")
        faulted = dict(budget=600, seed=3, faults=FAULT_SPEC, fault_seed=5)
        run_campaign("duckdb", checkpoint_path=faulted_path,
                     checkpoint_every=200, **faulted)
        with pytest.raises(CheckpointError, match="'fault_seed'"):
            run_campaign("duckdb", checkpoint_path=faulted_path, resume=True,
                         **dict(faulted, fault_seed=6))
        with pytest.raises(CheckpointError, match="'faults'"):
            run_campaign("duckdb", checkpoint_path=faulted_path, resume=True,
                         **dict(faulted, faults=None))

    def test_resume_is_identical_to_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "cp.json")
        kwargs = dict(budget=2000, seed=3, faults=FAULT_SPEC, fault_seed=5)
        full = run_campaign("duckdb", checkpoint_path=path, checkpoint_every=700, **kwargs)
        cp = CampaignCheckpoint.load(path)
        assert 0 < cp.progress["tally"]["executed"] < 2000
        resumed = run_campaign("duckdb", checkpoint_path=path, resume=True, **kwargs)
        assert resumed.signature() == full.signature()
        assert resumed.elapsed_seconds == pytest.approx(full.elapsed_seconds)

    def test_resume_from_mid_seed_phase_checkpoint(self, tmp_path):
        # the seed corpus is several hundred statements; budget 280 with a
        # checkpoint every 100 leaves the last snapshot inside the seed phase
        path = str(tmp_path / "cp.json")
        kwargs = dict(budget=280, seed=3, faults=FAULT_SPEC, fault_seed=5)
        full = run_campaign("duckdb", checkpoint_path=path, checkpoint_every=100, **kwargs)
        cp = CampaignCheckpoint.load(path)
        assert cp.progress["tally"]["executed"] < full.seeds_collected
        resumed = run_campaign("duckdb", checkpoint_path=path, resume=True, **kwargs)
        assert resumed.signature() == full.signature()

    def test_resume_with_a_ready_made_injector(self, tmp_path):
        # a live FaultInjector enters the checkpoint spec as plan + seed
        path = str(tmp_path / "cp.json")

        def campaign(**options):
            injector = FaultInjector(FaultPlan.parse(FAULT_SPEC), seed=5)
            config = CampaignConfig(
                dialect="duckdb", budget=900, seed=3, faults=injector, **options
            )
            return Campaign(dialect_by_name("duckdb"), config=config)

        full = campaign(checkpoint_path=path, checkpoint_every=300).run()
        resumed = campaign(checkpoint_path=path).run(resume=True)
        assert resumed.signature() == full.signature()

    def test_resume_with_coverage_restores_metrics(self, tmp_path):
        path = str(tmp_path / "cp.json")
        kwargs = dict(budget=800, seed=2, enable_coverage=True)
        full = run_campaign("monetdb", checkpoint_path=path, checkpoint_every=300, **kwargs)
        resumed = run_campaign("monetdb", checkpoint_path=path, resume=True,
                               **kwargs)
        assert resumed.branch_coverage == full.branch_coverage
        assert resumed.triggered_functions == full.triggered_functions

    @pytest.mark.parametrize("options", [
        dict(budget=900, seed=3, faults=FAULT_SPEC, fault_seed=5),
        dict(budget=900, seed=3, oracles=("crash", "tlp", "norec"),
             statement_family="predicate"),
    ], ids=["faulted-expression", "predicate-oracles"])
    def test_saved_bytes_match_asdict(self, tmp_path, monkeypatch, options):
        # save() writes a shallow field mapping; the file must be exactly
        # what the deep-copying asdict() serialization gave
        path = str(tmp_path / "cp.json")
        save = CampaignCheckpoint.save
        saved = []

        def checked_save(cp, target):
            save(cp, target)
            with open(target, encoding="utf-8") as handle:
                written = handle.read()
            assert written == json.dumps(asdict(cp), sort_keys=True)
            saved.append(cp)

        monkeypatch.setattr(CampaignCheckpoint, "save", checked_save)
        run_campaign("duckdb", checkpoint_path=path, checkpoint_every=300,
                     **options)
        assert len(saved) == 3
        if "oracles" in options:
            states = saved[-1].progress["oracle"]["oracles"]
            assert set(states) == {"crash", "tlp", "norec"}
            assert states["tlp"]["compared"] > 0
        else:
            assert saved[-1].progress["tally"]["faults"]

    def test_checkpoint_write_is_atomic(self, tmp_path):
        path = str(tmp_path / "cp.json")
        run_campaign("duckdb", budget=600, seed=3, checkpoint_path=path,
                     checkpoint_every=200)
        assert not os.path.exists(path + ".tmp")
        CampaignCheckpoint.load(path)  # parses cleanly

    @pytest.mark.parametrize("stop_at", [200, 400], ids=["seed-phase", "cases"])
    def test_a_due_save_lands_before_on_progress(self, tmp_path, stop_at):
        # duckdb replays 299 seeds first: position 200 is a seed, 400 a
        # generated case; a hook that stops the run at the beat of a due
        # save must find that save already made
        class Stopped(Exception):
            pass

        def stop(snapshot):
            if snapshot["position"] == stop_at:
                raise Stopped

        path = str(tmp_path / "cp.json")
        campaign = Campaign(
            dialect_by_name("duckdb"),
            config=CampaignConfig(dialect="duckdb", budget=900,
                                  checkpoint_path=path, checkpoint_every=200),
        )
        campaign.on_progress = stop
        with pytest.raises(Stopped):
            campaign.run()
        progress = CampaignCheckpoint.load(path).progress
        assert (progress["position"], progress["tally"]["executed"]) == (
            stop_at, stop_at
        )


class TestOracleState:
    def test_export_restore_roundtrip(self):
        oracle = CrashOracle("mariadb")
        crash = NullPointerDereference("boom", function="reverse", stage="execute")
        oracle.observe_crash(crash, "SELECT REVERSE('');", "P1.2", 7)
        oracle.observe_resource_kill("SELECT REPEAT('a', 9);", "allocation of 9 bytes")
        oracle.observe_flaky_crash("SELECT 1;", "spurious")
        state = json.loads(json.dumps(oracle.export_state()))  # JSON-safe
        restored = CrashOracle("mariadb")
        restored.restore_state(state)
        assert len(restored.bugs) == 1
        assert restored.bugs[0].key == ("reverse", "NPD")
        assert restored.bugs[0].injected is not None  # re-resolved from registry
        assert restored.false_positives == oracle.false_positives
        assert restored.flaky_signals == ["SELECT 1;"]
        # dedup state survives: the same crash is not double-counted
        assert restored.observe_crash(crash, "SELECT 2;", "P1.2", 9) is None


class TestCLIFlags:
    def test_fuzz_with_faults(self, capsys):
        from repro.cli import main

        code = main(["run", "duckdb", "--budget", "400",
                     "--faults", "default", "--fault-seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Campaign health" in out

    def test_fuzz_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cp.json")
        assert main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--checkpoint", path, "--checkpoint-every", "200"]) == 0
        assert os.path.exists(path)
        assert main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--resume", path]) == 0

    def test_mismatched_resume_names_the_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cp.json")
        assert main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--checkpoint", path, "--checkpoint-every", "200"]) == 0
        capsys.readouterr()
        code = main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--statement-family", "predicate", "--resume", path])
        out = capsys.readouterr().out
        assert code == 1
        assert "error:" in out and "--statement-family" in out
        assert "'statement_family'" not in out

    def test_sharded_resume_of_a_missing_checkpoint_fails(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "missing.json")
        code = main(["run", "duckdb", "--budget", "600", "--jobs", "2",
                     "--resume", missing])
        assert code == 1
        assert "error:" in capsys.readouterr().out

    def test_serial_resume_keeps_checkpointing(self, tmp_path, capsys):
        from repro.cli import main

        class Killed(Exception):
            pass

        def kill(snapshot):
            if snapshot["position"] >= 400:
                raise Killed

        path = str(tmp_path / "cp.json")
        campaign = Campaign(
            dialect_by_name("duckdb"),
            config=CampaignConfig(dialect="duckdb", budget=900, seed=3,
                                  checkpoint_path=path, checkpoint_every=200),
        )
        campaign.on_progress = kill
        with pytest.raises(Killed):
            campaign.run()
        killed_at = CampaignCheckpoint.load(path).progress["position"]
        assert killed_at == 400
        assert main(["run", "duckdb", "--budget", "900", "--seed", "3",
                     "--checkpoint-every", "200", "--resume", path]) == 0
        assert CampaignCheckpoint.load(path).progress["position"] > killed_at

    def test_checkpoint_and_resume_must_name_one_file(self, tmp_path, capsys):
        from repro.cli import main

        saved, other = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--checkpoint", saved, "--checkpoint-every", "200"]) == 0
        capsys.readouterr()
        code = main(["run", "duckdb", "--budget", "600", "--seed", "3",
                     "--checkpoint", other, "--resume", saved])
        assert code == 1
        assert "error:" in capsys.readouterr().out
        assert not os.path.exists(other)

    def test_fuzz_bad_fault_spec_is_reported(self, capsys):
        from repro.cli import main

        code = main(["run", "duckdb", "--budget", "100",
                     "--faults", "gremlins=1"])
        assert code == 1
        assert "error:" in capsys.readouterr().out
