"""Tests for ``repro.perf``: the sharded parallel campaign executor.

The contract under test is strict: sharding is a *transparent*
optimization — a ``jobs=N`` campaign must report the same
``CampaignResult.signature()`` as the serial run, faults on or off, and
every campaign runs its statements through one execution path.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.config import CampaignConfig
from repro.core.patterns import GeneratedCase
from repro.core.runner import Runner
from repro.dialects import dialect_by_name
from repro.engine.connection import ConnectionClosed
from repro.perf.parallel import ParallelCampaign, _shard_spec, run_parallel_campaign
from repro.robustness.watchdog import StatementTimeout

FAULT_SPEC = "hang=0.01,slow=0.02,drop=0.01,flaky=0.01,restart_fail=0.1"


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

    @pytest.mark.parametrize(
        "options",
        [
            {"faults": FAULT_SPEC, "fault_seed": 11},
            {"oracles": ("crash", "differential", "conformance")},
        ],
        ids=["faults", "all_oracles"],
    )
    def test_jobs_4_signature_equals_serial_at_seed_7(self, options):
        config = CampaignConfig(dialect="duckdb", budget=600, seed=7, **options)
        serial = Campaign(dialect_by_name("duckdb"), config=config).run()
        parallel = ParallelCampaign(config=config.replace(jobs=4)).run()
        assert parallel.signature() == serial.signature()


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
            from repro.perf import run_parallel_campaign

            run_campaign("duckdb", budget=300, seed=3)
            run_parallel_campaign("duckdb", jobs=2, budget=300, seed=3)
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


#: shard-sidecar identities, each with its worker index and the exact JSON
#: its spec serializes to.  Sidecars written while the plan compiler
#: existed also carried ``"compile": false`` for the non-default configs;
#: resume ignores that key (see ``test_compile_key_of_older_sidecars``).
SIDECAR_SPECS = {
    "default": (
        CampaignConfig(dialect="duckdb", jobs=2),
        0,
        '{"version": 2, "shard_format": 2, "dialect": "duckdb", "seed": 0, '
        '"budget": 20000, "max_partners": 48, "enable_coverage": false, '
        '"jobs": 2, "worker": 0, "oracles": ["crash"]}',
    ),
    "sandboxed": (
        CampaignConfig(
            dialect="duckdb", budget=900, seed=5, jobs=3, max_partners=12,
            budgets="depth=64,rows=5000", sandbox=True,
        ),
        2,
        '{"version": 2, "shard_format": 2, "dialect": "duckdb", "seed": 5, '
        '"budget": 900, "max_partners": 12, "enable_coverage": false, '
        '"jobs": 3, "worker": 2, "oracles": ["crash"], '
        '"budgets": "depth=64,rows=5000", "sandbox": '
        '{"wall_deadline_seconds": 30.0, "breaker_threshold": 3, '
        '"quarantine": [], "max_message_bytes": 33554432}}',
    ),
    "predicate": (
        CampaignConfig(
            dialect="mysql", budget=700, seed=4, jobs=2, enable_coverage=True,
            budgets="depth=64,rows=5000",
            statement_family="predicate", oracles=("crash", "tlp", "norec"),
        ),
        1,
        '{"version": 2, "shard_format": 2, "dialect": "mysql", "seed": 4, '
        '"budget": 700, "max_partners": 48, "enable_coverage": true, '
        '"jobs": 2, "worker": 1, "oracles": ["crash", "tlp", "norec"], '
        '"budgets": "depth=64,rows=5000", '
        '"statement_family": "predicate"}',
    ),
}


class TestShardSidecars:
    @pytest.mark.parametrize("name", sorted(SIDECAR_SPECS))
    def test_spec_is_pinned(self, name):
        config, worker, expected = SIDECAR_SPECS[name]
        assert json.dumps(_shard_spec(config, worker)) == expected

    @pytest.mark.parametrize(
        "name, interrupted_budget",
        [("predicate", 700), ("sandboxed", 500)],
    )
    def test_non_default_config_resumes_to_identical_signature(
        self, tmp_path, name, interrupted_budget
    ):
        config = SIDECAR_SPECS[name][0].replace(
            jobs=2, budget=interrupted_budget,
            checkpoint_path=str(tmp_path / "campaign.ckpt"), checkpoint_every=50,
        )
        interrupted = ParallelCampaign(config=config)
        interrupted._stop_after = 40  # simulate a mid-campaign kill
        partial = interrupted.run()
        assert partial.queries_executed < interrupted_budget

        resumed = ParallelCampaign(config=config).run(resume=True)
        fresh = ParallelCampaign(config=config.replace(checkpoint_path=None)).run()
        assert resumed.signature() == fresh.signature()

    def test_compile_key_of_older_sidecars_is_ignored(self, tmp_path):
        """A ``jobs=2`` sidecar in the format written while the plan
        compiler existed (``"compile": false`` before
        ``statement_family`` in its spec) resumes to the fresh run."""
        path = tmp_path / "campaign.ckpt"
        config = SIDECAR_SPECS["predicate"][0].replace(
            budget=700, checkpoint_path=str(path), checkpoint_every=50,
        )
        interrupted = ParallelCampaign(config=config)
        interrupted._stop_after = 40  # simulate a mid-campaign kill
        assert interrupted.run().queries_executed < 700
        for worker in range(2):
            sidecar = tmp_path / f"campaign.ckpt.shard{worker}"
            payload = json.loads(sidecar.read_text(encoding="utf-8"))
            spec = payload["spec"]
            family = spec.pop("statement_family")
            spec.update({"compile": False, "statement_family": family})
            sidecar.write_text(json.dumps(payload), encoding="utf-8")

        resumed = ParallelCampaign(config=config).run(resume=True)
        fresh = ParallelCampaign(config=config.replace(checkpoint_path=None)).run()
        assert resumed.signature() == fresh.signature()

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_unreadable_sidecar_is_a_checkpoint_error(self, tmp_path, damage):
        from repro.robustness.checkpoint import CheckpointError

        path = str(tmp_path / "campaign.ckpt")
        config = CampaignConfig(
            dialect="duckdb", jobs=2, budget=400, seed=3,
            checkpoint_path=path, checkpoint_every=50,
        )
        ParallelCampaign(config=config).run()
        sidecar = tmp_path / "campaign.ckpt.shard0"
        text = sidecar.read_text(encoding="utf-8")
        sidecar.write_text(
            text[: len(text) // 2] if damage == "truncated" else "",
            encoding="utf-8",
        )
        with pytest.raises(CheckpointError, match="campaign.ckpt.shard0"):
            ParallelCampaign(config=config).run(resume=True)


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
