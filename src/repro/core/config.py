"""The campaign configuration object (``CampaignConfig``).

Every way of running a campaign — :class:`~repro.core.campaign.Campaign`,
:class:`~repro.perf.parallel.ParallelCampaign`, the ``run_campaign(s)``
convenience wrappers (which fold their keyword options into one), the
CLI, and the :mod:`repro.service` job scheduler — takes its options as one
**frozen** dataclass that is:

* **normalized** — oracle specs, budget specs, and sandbox switches are
  parsed once, at construction, into their canonical forms
  (``Tuple[str, ...]``, :class:`~repro.robustness.governor.ResourceBudgets`,
  :class:`~repro.robustness.sandbox.SandboxConfig`);
* **validated** — incompatible combinations fail at construction with
  errors that speak **config field names** (``'sandbox'``, ``'faults'``),
  never CLI flag spellings; the CLI maps field names to flags at its
  boundary (see ``repro.cli``);
* **serializable** — :meth:`CampaignConfig.to_dict` /
  :meth:`CampaignConfig.from_dict` round-trip through JSON, which is what
  the campaign service's HTTP API submits.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..robustness.faults import FaultInjector, FaultPlan
from ..robustness.governor import ResourceBudgets
from ..robustness.sandbox import SandboxConfig, make_sandbox_config
from ..robustness.watchdog import DEFAULT_DEADLINE_SECONDS
from .oracles.base import parse_oracle_names

#: query budgets standing in for the paper's time budgets
BUDGET_24_HOURS = 20_000
BUDGET_TWO_WEEKS = 300_000

#: default checkpoint cadence (statements between snapshots)
DEFAULT_CHECKPOINT_EVERY = 1_000

#: fields :meth:`CampaignConfig.from_dict` drops instead of rejecting: the
#: removed statement-cache and plan-compiler switches.  Journals,
#: checkpoints and sidecars written before their removal carry them.
RETIRED_FIELDS = ("statement_cache", "compile")


def fault_spec(faults: Any) -> Optional[str]:
    """Re-encode a fault plan as the CLI spec string (process-portable)."""
    if faults is None or isinstance(faults, str):
        return faults
    if isinstance(faults, FaultPlan):
        return ",".join(
            f"{name}={getattr(faults, name)}"
            for name in (
                "hang_rate", "slow_rate", "drop_rate",
                "flaky_crash_rate", "restart_failure_rate",
            )
        )
    raise TypeError(f"cannot encode {faults!r} as a fault spec string")


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines one campaign's observable behaviour.

    Frozen: derive variants with :meth:`replace` (re-validates).  The
    ``clock``/``retry_policy`` runtime objects are deliberately *not*
    configuration — they stay constructor arguments on
    :class:`~repro.core.campaign.Campaign`.
    """

    dialect: str = ""
    budget: int = BUDGET_24_HOURS
    enable_coverage: bool = False
    seed: int = 0
    max_partners: int = 48
    stop_when_all_found: bool = False
    #: ``None``, a CLI spec string, a :class:`FaultPlan`, or (serial
    #: campaigns only) a ready-made :class:`FaultInjector`
    faults: Any = None
    fault_seed: int = 0
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY
    statement_deadline: float = DEFAULT_DEADLINE_SECONDS
    #: normalized to a validated name tuple at construction
    oracles: Any = None
    #: which statement stream the generator emits: ``"expression"`` (the
    #: paper's bare ``SELECT f(args);`` calls, the default) or
    #: ``"predicate"`` (``SELECT … FROM fuzz_t WHERE …`` over the seeded
    #: table — the workload the metamorphic oracles partition)
    statement_family: str = "expression"
    #: normalized to ``Optional[ResourceBudgets]`` at construction
    budgets: Any = None
    #: normalized to ``Optional[SandboxConfig]`` at construction
    sandbox: Any = None
    #: worker processes; ``1`` runs the serial :class:`Campaign`
    jobs: int = 1
    #: who submitted this campaign (service quota accounting; free-form)
    submitter: str = ""
    #: scheduling priority (higher claims first); no effect on results
    priority: int = 0
    #: may the service checkpoint-and-requeue this campaign to make room
    #: for a higher-priority job?  (resume is signature-identical, so the
    #: default is on; no effect on results either way)
    preemptible: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "oracles", parse_oracle_names(self.oracles))
        budgets = self.budgets
        if isinstance(budgets, str):
            budgets = ResourceBudgets.parse(budgets)
        elif budgets is not None and not isinstance(budgets, ResourceBudgets):
            raise TypeError(
                f"the 'budgets' option takes a spec string or ResourceBudgets, "
                f"got {budgets!r}"
            )
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "sandbox", make_sandbox_config(self.sandbox))
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        """Cross-field validation.  Errors speak config **field names**;
        the CLI translates them to flag spellings at its boundary."""
        if self.jobs < 1:
            raise ValueError(f"the 'jobs' option must be >= 1 (got {self.jobs})")
        if self.budget < 0:
            raise ValueError(f"the 'budget' option must be >= 0 (got {self.budget})")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"the 'checkpoint_every' option must be >= 0 "
                f"(got {self.checkpoint_every})"
            )
        if not isinstance(self.submitter, str):
            raise TypeError(
                f"the 'submitter' option must be a string "
                f"(got {self.submitter!r})"
            )
        if isinstance(self.priority, bool) or not isinstance(self.priority, int):
            raise TypeError(
                f"the 'priority' option must be an integer "
                f"(got {self.priority!r})"
            )
        if not isinstance(self.preemptible, bool):
            raise TypeError(
                f"the 'preemptible' option must be a boolean "
                f"(got {self.preemptible!r})"
            )
        if self.sandbox is not None and self.faults is not None:
            raise ValueError(
                "the 'sandbox' and 'faults' options are mutually exclusive: "
                "the fault injector simulates infrastructure noise "
                "in-process, the sandbox contains the real thing"
            )
        if self.sandbox is not None and self.enable_coverage:
            raise ValueError(
                "the 'sandbox' option does not support 'enable_coverage' "
                "(arc sets do not cross the process boundary)"
            )
        if self.statement_family not in ("expression", "predicate"):
            raise ValueError(
                f"the 'statement_family' option must be 'expression' or "
                f"'predicate' (got {self.statement_family!r})"
            )
        if self.sandbox is not None and self.statement_family != "expression":
            raise ValueError(
                "the 'sandbox' option only supports the 'expression' "
                "statement family: sandbox workers do not replay the "
                "seeded-table bootstrap"
            )
        if self.jobs > 1:
            if isinstance(self.faults, FaultInjector):
                raise TypeError(
                    "a sharded campaign ('jobs' > 1) needs a fault *spec* "
                    "(string/FaultPlan) for 'faults', not a FaultInjector: "
                    "each worker builds its own injector"
                )
            if self.stop_when_all_found:
                raise ValueError(
                    "the 'stop_when_all_found' option is unsupported with "
                    "'jobs' > 1: its early exit depends on cross-shard "
                    "execution order"
                )

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "CampaignConfig":
        """A changed copy (``dataclasses.replace``), re-validated."""
        return dataclasses.replace(self, **changes)

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    # ------------------------------------------------------------------
    # JSON round-trip (the service API's submission format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict; inverse of :meth:`from_dict`.

        ``faults`` is re-encoded as a spec string (a live injector cannot
        be serialized and raises).
        """
        sandbox: Any = None
        if self.sandbox is not None:
            sandbox = {
                "wall_deadline_seconds": self.sandbox.wall_deadline_seconds,
                "breaker_threshold": self.sandbox.breaker_threshold,
                "quarantine": list(self.sandbox.quarantine),
                "max_message_bytes": self.sandbox.max_message_bytes,
            }
        return {
            "dialect": self.dialect,
            "budget": self.budget,
            "enable_coverage": self.enable_coverage,
            "seed": self.seed,
            "max_partners": self.max_partners,
            "stop_when_all_found": self.stop_when_all_found,
            "faults": fault_spec(self.faults),
            "fault_seed": self.fault_seed,
            "checkpoint_path": self.checkpoint_path,
            "checkpoint_every": self.checkpoint_every,
            "statement_deadline": self.statement_deadline,
            "oracles": list(self.oracles),
            "statement_family": self.statement_family,
            "budgets": self.budgets.to_spec() if self.budgets is not None else None,
            "sandbox": sandbox,
            "jobs": self.jobs,
            "submitter": self.submitter,
            "priority": self.priority,
            "preemptible": self.preemptible,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignConfig":
        """Build a config from an untrusted JSON dict.

        Unknown keys are a hard error — a client speaking a newer schema
        must fail loudly, not have its options silently dropped.  The one
        exception is :data:`RETIRED_FIELDS`, which are dropped.
        """
        if not isinstance(data, dict):
            raise TypeError(f"campaign config must be an object, got {data!r}")
        kwargs = {k: v for k, v in data.items() if k not in RETIRED_FIELDS}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ValueError(f"unknown campaign config fields: {unknown}")
        sandbox = kwargs.get("sandbox")
        if isinstance(sandbox, dict):
            kwargs["sandbox"] = SandboxConfig(
                wall_deadline_seconds=sandbox.get(
                    "wall_deadline_seconds",
                    SandboxConfig.wall_deadline_seconds,
                ),
                breaker_threshold=sandbox.get(
                    "breaker_threshold", SandboxConfig.breaker_threshold
                ),
                quarantine=tuple(sandbox.get("quarantine", ())),
                max_message_bytes=sandbox.get(
                    "max_message_bytes", SandboxConfig.max_message_bytes
                ),
            )
        oracles = kwargs.get("oracles")
        if isinstance(oracles, list):
            kwargs["oracles"] = tuple(oracles)
        return cls(**kwargs)
