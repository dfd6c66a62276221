"""The CampaignConfig object API.

Covers: frozen-ness, __post_init__ normalization (oracle names, budget
specs, sandbox coercion), validation errors that speak config *field*
names (flag spellings are the CLI's job), to_dict/from_dict round-trips,
the one-spelling rule (``config=`` or keyword options, never both), and
bug-set/signature parity between the two calling forms.
"""

import dataclasses

import pytest

from repro.core import Campaign, CampaignConfig, run_campaign
from repro.core.config import fault_spec
from repro.dialects import dialect_by_name
from repro.robustness import FaultPlan
from repro.robustness.governor import ResourceBudgets
from repro.robustness.sandbox import SandboxConfig


class TestConstruction:
    def test_frozen(self):
        config = CampaignConfig(dialect="duckdb")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.budget = 99

    def test_oracle_names_normalize_to_tuple(self):
        config = CampaignConfig(dialect="duckdb", oracles="crash,differential")
        assert config.oracles == ("crash", "differential")

    def test_budget_spec_parses(self):
        config = CampaignConfig(dialect="duckdb", budgets="depth=32,rows=100")
        assert isinstance(config.budgets, ResourceBudgets)
        assert config.budgets.depth == 32 and config.budgets.rows == 100

    def test_sandbox_true_coerces_to_config(self):
        config = CampaignConfig(dialect="duckdb", sandbox=True)
        assert isinstance(config.sandbox, SandboxConfig)
        assert CampaignConfig(dialect="duckdb", sandbox=False).sandbox is None

    def test_replace_revalidates(self):
        config = CampaignConfig(dialect="duckdb", budget=100)
        assert config.replace(budget=200).budget == 200
        with pytest.raises(ValueError):
            config.replace(jobs=0)

    def test_parallel_property(self):
        assert not CampaignConfig(dialect="duckdb").parallel
        assert CampaignConfig(dialect="duckdb", jobs=4).parallel


class TestValidation:
    """Errors speak library field names; flag spellings live in the CLI."""

    def test_sandbox_faults_exclusion_names_fields(self):
        with pytest.raises(ValueError, match="mutually exclusive") as exc:
            CampaignConfig(dialect="duckdb", sandbox=True, faults="default")
        message = str(exc.value)
        assert "'sandbox'" in message and "'faults'" in message
        assert "--" not in message  # no CLI flag spellings in the library

    def test_sandbox_coverage_exclusion_names_fields(self):
        with pytest.raises(ValueError, match="coverage") as exc:
            CampaignConfig(dialect="duckdb", sandbox=True, enable_coverage=True)
        message = str(exc.value)
        assert "'enable_coverage'" in message
        assert "--" not in message

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            CampaignConfig(dialect="duckdb", jobs=0)

    def test_cli_flagifies_field_names(self):
        from repro.cli import _flagify

        translated = _flagify(
            "the 'sandbox' and 'faults' options are mutually exclusive: why"
        )
        assert translated.startswith("--sandbox and --faults are mutually")


class TestRoundTrip:
    def test_to_dict_from_dict(self):
        config = CampaignConfig(
            dialect="virtuoso", budget=500, seed=7,
            oracles="crash,conformance", budgets="depth=32",
            sandbox=True, jobs=1,
        )
        clone = CampaignConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises((TypeError, ValueError), match="frobnicate"):
            CampaignConfig.from_dict({"dialect": "duckdb", "frobnicate": 1})

    def test_from_dict_drops_exactly_the_retired_fields(self):
        stored = {**CampaignConfig(dialect="duckdb").to_dict(),
                  "statement_cache": False, "compile": False}
        assert CampaignConfig.from_dict(stored) == CampaignConfig(dialect="duckdb")
        with pytest.raises(ValueError, match="frobnicate"):
            CampaignConfig.from_dict({**stored, "frobnicate": 1})

    def test_fault_plan_round_trips_as_spec(self):
        plan = FaultPlan(hang_rate=0.01, drop_rate=0.02)
        config = CampaignConfig(dialect="duckdb", faults=plan)
        clone = CampaignConfig.from_dict(config.to_dict())
        assert fault_spec(clone.faults) == fault_spec(plan)

    def test_submitter_and_priority_round_trip(self):
        config = CampaignConfig(dialect="duckdb", submitter="ci", priority=3)
        wire = config.to_dict()
        assert wire["submitter"] == "ci" and wire["priority"] == 3
        clone = CampaignConfig.from_dict(wire)
        assert clone.submitter == "ci" and clone.priority == 3

    def test_submitter_and_priority_are_validated(self):
        with pytest.raises(TypeError, match="submitter"):
            CampaignConfig(dialect="duckdb", submitter=7)
        with pytest.raises(TypeError, match="priority"):
            CampaignConfig(dialect="duckdb", priority="high")


class TestOneSpelling:
    def test_both_conventions_at_once_is_an_error(self):
        config = CampaignConfig(dialect="duckdb", budget=50)
        with pytest.raises(TypeError, match="config"):
            run_campaign("duckdb", budget=50, config=config)
        with pytest.raises(TypeError, match="config"):
            run_campaign("duckdb", jobs=2, config=config)

    def test_constructors_take_only_a_config(self):
        with pytest.raises(TypeError):
            Campaign(dialect_by_name("duckdb"), budget=50)
        with pytest.raises(TypeError, match="CampaignConfig"):
            Campaign(dialect_by_name("duckdb"), 50)

    def test_dialect_fills_an_empty_config_dialect(self):
        campaign = Campaign(
            dialect_by_name("duckdb"), config=CampaignConfig(budget=50)
        )
        assert campaign.config.dialect == "duckdb"


class TestParity:
    def test_legacy_and_config_campaigns_agree(self):
        legacy = run_campaign("duckdb", budget=600, seed=3)
        config = run_campaign(
            config=CampaignConfig(dialect="duckdb", budget=600, seed=3)
        )
        assert legacy.signature() == config.signature()
