"""Tests for ``repro.perf``: the sharded parallel campaign executor.

Sharding is a *transparent* optimization: a ``jobs=N`` campaign reports
the same ``CampaignResult.signature()`` as the serial run, faults on or
off.  That invariant is held for every dialect and statement family by
``tests/test_signature_matrix.py``; this file covers the pieces under it
— the case-to-shard rule, shard sidecars and their refusals, resume of
interrupted shards, and the one execution path every campaign uses.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.core.campaign import (
    Campaign,
    campaign_spec,
    load_checkpoints,
    run_campaign,
)
from repro.core.collect import SeedCollector
from repro.core.config import CampaignConfig
from repro.core.patterns import GeneratedCase, PatternEngine
from repro.core.runner import Runner
from repro.dialects import dialect_by_name
from repro.engine.connection import ConnectionClosed
from repro.perf.parallel import shard_of
from repro.robustness.watchdog import StatementTimeout
from repro.service.scheduler import JobInterrupted


def interrupt(config, past):
    """Run the sharded *config* until its progress is *past* positions
    beyond the seed phase, then stop it the way the service does: an
    ``on_progress`` hook that raises :class:`JobInterrupted`."""
    dialect = dialect_by_name(config.dialect)
    seeds = len(SeedCollector(dialect).collect())
    campaign = Campaign(dialect, config=config)
    campaign.progress_every = 20

    def on_progress(snapshot):
        if snapshot["position"] >= seeds + past:
            raise JobInterrupted("drain")

    campaign.on_progress = on_progress
    with pytest.raises(JobInterrupted):
        campaign.run()
    # every shard saved its state mid-stream
    saved = load_checkpoints(config)
    assert sorted(saved) == list(range(config.jobs))
    assert seeds + sum(cp.progress["position"] for cp in saved.values()) < config.budget


# ---------------------------------------------------------------------------
# parallel campaigns: determinism
# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    def test_jobs_1_runs_inline_and_matches(self):
        serial = run_campaign("duckdb", budget=1_000, seed=3, jobs=1)
        sharded = run_campaign("duckdb", budget=1_000, seed=3, jobs=2)
        assert sharded.signature() == serial.signature()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            CampaignConfig(dialect="duckdb", jobs=0)

    def test_merged_throughput_counters_populated(self):
        result = run_campaign("duckdb", jobs=2, budget=1_000, seed=3)
        assert result.wall_seconds > 0
        assert result.statements_per_second > 0

    def test_a_shard_that_dies_unreported_fails_the_run(self, monkeypatch):
        import multiprocessing

        from repro.perf import parallel

        run_shard = parallel._run_shard

        def dying(config, worker, *args):
            if worker == 1:
                os._exit(3)
            run_shard(config, worker, *args)

        monkeypatch.setattr(parallel, "_run_shard", dying)
        with pytest.raises(RuntimeError, match="shard 1 exited with code 3"):
            run_campaign("duckdb", jobs=2, budget=1_000)
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the case-to-shard rule
# ---------------------------------------------------------------------------
class TestShardSplit:
    @pytest.mark.parametrize("jobs", range(1, 9))
    def test_every_index_has_exactly_one_worker(self, jobs):
        workers = [shard_of(index, jobs) for index in range(5000)]
        assert set(workers) == set(range(jobs))

    def test_huge_repeat_cases_are_spread_evenly(self):
        """The generator emits a function's short and 10^5-digit
        ``REPEAT`` cases side by side; ``index % jobs`` put 327 of 331 of
        the heavy ones on one of two shards."""
        seeds = SeedCollector(dialect_by_name("duckdb")).collect()
        # the generated part of a 20,000-statement campaign
        cases = itertools.islice(
            PatternEngine(seeds).generate_all(), 20_000 - len(seeds)
        )
        heavy = [
            index for index, case in enumerate(cases)
            if re.search(r"REPEAT\('[^']*', 99999\)", case.sql)
        ]
        assert len(heavy) > 300
        for jobs in (2, 4, 8):
            per_shard = [0] * jobs
            for index in heavy:
                per_shard[shard_of(index, jobs)] += 1
            assert max(per_shard) <= 1.3 * len(heavy) / jobs, (jobs, per_shard)


# ---------------------------------------------------------------------------
# one execution path
# ---------------------------------------------------------------------------
class TestOneExecutionPath:
    def test_campaigns_never_import_the_cache_or_compiler(self):
        """Serial, sharded and metamorphic campaigns all run without the
        retained statement-cache and plan-compiler modules."""
        script = textwrap.dedent(
            """
            import sys
            from repro.core.campaign import run_campaign

            run_campaign("duckdb", budget=300, seed=3)
            run_campaign("duckdb", jobs=2, budget=300, seed=3)
            run_campaign("duckdb", budget=300, seed=3,
                         statement_family="predicate", oracles="tlp,norec")
            loaded = [name for name in ("repro.perf.stmtcache",
                                        "repro.perf.compiler")
                      if name in sys.modules]
            print(",".join(loaded) or "none")
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "none"


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
        interrupt(config, past=300)
        resumed = run_campaign(config=config, resume=True)
        fresh = run_campaign(config=config.replace(checkpoint_path=None))
        assert resumed.signature() == fresh.signature()

    def test_resume_rejects_mismatched_configuration(self, tmp_path):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=600, seed=3,
            checkpoint_path=path, checkpoint_every=100,
        )
        run_campaign(config=config)
        with pytest.raises(CheckpointError):
            run_campaign(
                config=config.replace(seed=4), resume=True  # different seed
            )


#: shard-sidecar identities, each with its worker index and the exact JSON
#: its spec serializes to.
SIDECAR_SPECS = {
    "default": (
        CampaignConfig(dialect="duckdb", jobs=2),
        0,
        '{"dialect": "duckdb", "budget": 20000, "enable_coverage": false, '
        '"seed": 0, "max_partners": 48, "stop_when_all_found": false, '
        '"faults": null, "fault_seed": 0, "statement_deadline": 300.0, '
        '"oracles": ["crash"], "statement_family": "expression", '
        '"budgets": null, "sandbox": null, '
        '"shard_format": 5, "jobs": 2, "worker": 0}',
    ),
    "sandboxed": (
        CampaignConfig(
            dialect="duckdb", budget=900, seed=5, jobs=3, max_partners=12,
            budgets="depth=64,rows=5000", sandbox=True,
        ),
        2,
        '{"dialect": "duckdb", "budget": 900, "enable_coverage": false, '
        '"seed": 5, "max_partners": 12, "stop_when_all_found": false, '
        '"faults": null, "fault_seed": 0, "statement_deadline": 300.0, '
        '"oracles": ["crash"], "statement_family": "expression", '
        '"budgets": "depth=64,rows=5000", "sandbox": '
        '{"wall_deadline_seconds": 30.0, "breaker_threshold": 3, '
        '"quarantine": [], "max_message_bytes": 33554432}, '
        '"shard_format": 5, "jobs": 3, "worker": 2}',
    ),
    "predicate": (
        CampaignConfig(
            dialect="mysql", budget=700, seed=4, jobs=2, enable_coverage=True,
            budgets="depth=64,rows=5000",
            statement_family="predicate", oracles=("crash", "tlp", "norec"),
        ),
        1,
        '{"dialect": "mysql", "budget": 700, "enable_coverage": true, '
        '"seed": 4, "max_partners": 48, "stop_when_all_found": false, '
        '"faults": null, "fault_seed": 0, "statement_deadline": 300.0, '
        '"oracles": ["crash", "tlp", "norec"], '
        '"statement_family": "predicate", '
        '"budgets": "depth=64,rows=5000", "sandbox": null, '
        '"shard_format": 5, "jobs": 2, "worker": 1}',
    ),
    "faulted": (
        CampaignConfig(
            dialect="duckdb", budget=900, jobs=2,
            faults="hang=0.02,drop=0.02,flaky_crash=0.01", fault_seed=5,
        ),
        1,
        '{"dialect": "duckdb", "budget": 900, "enable_coverage": false, '
        '"seed": 0, "max_partners": 48, "stop_when_all_found": false, '
        '"faults": "hang=0.02,drop=0.02,flaky_crash=0.01", "fault_seed": 5, '
        '"statement_deadline": 300.0, "oracles": ["crash"], '
        '"statement_family": "expression", "budgets": null, "sandbox": null, '
        '"shard_format": 5, "jobs": 2, "worker": 1}',
    ),
}


class TestShardSidecars:
    @pytest.mark.parametrize("name", sorted(SIDECAR_SPECS))
    def test_spec_is_pinned(self, name):
        config, worker, expected = SIDECAR_SPECS[name]
        assert json.dumps(campaign_spec(config, worker)) == expected

    @pytest.mark.parametrize(
        "name, interrupted_budget",
        [("predicate", 700), ("sandboxed", 500), ("faulted", 900)],
    )
    def test_non_default_config_resumes_to_identical_signature(
        self, tmp_path, name, interrupted_budget
    ):
        config = SIDECAR_SPECS[name][0].replace(
            jobs=2, budget=interrupted_budget,
            checkpoint_path=str(tmp_path / "campaign.ckpt"), checkpoint_every=50,
        )
        interrupt(config, past=40)
        resumed = run_campaign(config=config, resume=True)
        fresh = run_campaign(config=config.replace(checkpoint_path=None))
        assert resumed.signature() == fresh.signature()
        # every counter survives the sidecars, not only the signed ones
        assert resumed.tally.export() == fresh.tally.export()

    def test_format_2_sidecar_is_refused(self, tmp_path):
        """A v2 sidecar counted its progress in the ``index % jobs`` slice;
        resuming it under :func:`shard_of` would skip the wrong cases."""
        from repro.robustness.checkpoint import CheckpointError

        path = tmp_path / "campaign.ckpt"
        config = SIDECAR_SPECS["predicate"][0].replace(
            budget=700, checkpoint_path=str(path), checkpoint_every=50,
        )
        interrupt(config, past=40)
        for worker in range(2):
            sidecar = tmp_path / f"campaign.ckpt.shard{worker}"
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
            payload["spec"]["shard_format"] = 2
            sidecar.write_text(json.dumps(payload), encoding="utf-8")

        with pytest.raises(CheckpointError, match="different campaign"):
            run_campaign(config=config, resume=True)

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_unreadable_sidecar_is_a_checkpoint_error(self, tmp_path, damage):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=400, seed=3,
            checkpoint_path=path, checkpoint_every=50,
        )
        run_campaign(config=config)
        sidecar = tmp_path / "campaign.ckpt.shard0"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(
            text[: len(text) // 2] if damage == "truncated" else "",
            encoding="utf-8",
        )
        with pytest.raises(CheckpointError, match="campaign.ckpt.shard0"):
            run_campaign(config=config, resume=True)


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
        assert runner.tally.faults.get("reconnects") == 1
        assert len(calls) == 3

    def test_persistent_connection_loss_exhausts_policy(self):
        runner, calls = self._runner_with_script(
            [StatementTimeout(30.0, 31.0), ConnectionClosed("reset")]
        )
        outcome = runner.run("SELECT 1;")
        assert outcome.kind == "error"
        assert "attempts" in outcome.message
        # one timeout attempt + max_attempts-bounded reconnect attempts
        assert runner.tally.faults["reconnects"] >= 2


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
# parallel campaigns: a sidecar resumes only under its own oracle set
# ---------------------------------------------------------------------------
class TestParallelOracles:
    ALL = "crash,differential,conformance"

    def test_resume_refuses_different_oracle_set(self, tmp_path):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=1_200, seed=3, oracles=self.ALL,
            checkpoint_path=path, checkpoint_every=100,
        )
        interrupt(config, past=300)
        with pytest.raises(CheckpointError):
            run_campaign(
                config=config.replace(oracles=("crash",)),  # crash-only now
                resume=True,
            )
