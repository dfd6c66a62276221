"""Robustness layer: fault injection, retry/backoff, watchdog, checkpoints,
resource governance, and the subprocess execution sandbox.

Real SOFT campaigns run unattended for days against live containers; this
package gives the reproduction the same survival machinery — a
deterministic :class:`FaultInjector` that perturbs the simulated
infrastructure, a :class:`RetryPolicy` + :class:`CircuitBreaker` pair that
absorbs transient failures and quarantines unrecoverable servers, a
:class:`Watchdog` that converts hangs into ``timeout`` outcomes,
:class:`CampaignCheckpoint` for kill/resume with byte-identical results, a
:class:`ResourceGovernor` enforcing opt-in per-statement budgets, and a
:class:`SandboxedConnection` that contains real harness pathologies in
SIGKILL-able subprocess workers with :class:`ContainmentState` crash-loop
protection on top.
"""

from .chaos import (
    SimulatedCrash,
    StorageFaultInjector,
    StorageFaultPlan,
    make_storage_injector,
)
from .checkpoint import (
    CHECKPOINT_VERSION,
    CampaignCheckpoint,
    CheckpointError,
)
from .faults import (
    DEFAULT_RATES,
    FaultInjector,
    FaultPlan,
    make_fault_injector,
    parse_rate_spec,
)
from .governor import ResourceBudgets, ResourceGovernor, make_governor
from .policy import CircuitBreaker, RetryPolicy, ServerQuarantined
from .sandbox import (
    ContainmentState,
    SandboxConfig,
    SandboxedConnection,
    SandboxError,
    WorkerCrashed,
    WorkerHung,
    make_sandbox_config,
)
from .watchdog import (
    DEFAULT_DEADLINE_SECONDS,
    DEFAULT_REAL_DEADLINE_SECONDS,
    Clock,
    RealDeadline,
    SimulatedClock,
    StatementHang,
    StatementTimeout,
    WallClock,
    Watchdog,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CampaignCheckpoint",
    "CheckpointError",
    "CircuitBreaker",
    "Clock",
    "ContainmentState",
    "DEFAULT_DEADLINE_SECONDS",
    "DEFAULT_RATES",
    "DEFAULT_REAL_DEADLINE_SECONDS",
    "FaultInjector",
    "FaultPlan",
    "RealDeadline",
    "ResourceBudgets",
    "ResourceGovernor",
    "RetryPolicy",
    "SandboxConfig",
    "SandboxError",
    "SandboxedConnection",
    "ServerQuarantined",
    "SimulatedClock",
    "SimulatedCrash",
    "StorageFaultInjector",
    "StorageFaultPlan",
    "StatementHang",
    "StatementTimeout",
    "WallClock",
    "Watchdog",
    "WorkerCrashed",
    "WorkerHung",
    "make_fault_injector",
    "make_governor",
    "make_sandbox_config",
    "make_storage_injector",
    "parse_rate_spec",
]
