"""Campaign checkpointing: kill a campaign, resume it deterministically.

A two-week (300k-query) campaign must survive the harness host being
rebooted.  The checkpoint records everything the campaign layer cannot
re-derive by replay:

* progress — statements executed, restarts, timeouts, flaky crashes,
  per-fault-class counters, per-kind outcome counts;
* oracle state — deduplicated bugs, false positives, flaky signals, and
  the dedup sets behind them;
* randomness — the campaign RNG state (as an integrity check for the
  deterministic replay-skip), the fault injector's RNG + counters, and the
  server context's RNG;
* campaign-level metrics that normally live in engine state — triggered
  functions, engine stats, coverage arcs/lines;
* the simulated elapsed time.

Resume strategy (see ``Campaign.run``): generation is deterministic given
``(seeds, campaign seed)``, so the resumed campaign *re-generates* the
statement stream and skips the first ``executed`` cases without running
them, then verifies its RNG state matches the checkpointed one before
executing anything new.  This avoids pickling live generators while keeping
byte-identical results.

Checkpoints are JSON (inspectable, diffable) and written atomically
(fsync'd tmp file + ``os.replace``, :func:`write_json_atomic`) so a kill
mid-write never corrupts the resume point.  The sharded campaign's
per-worker sidecars go through the same two helpers.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

#: bump when the on-disk layout changes incompatibly.
#: v2: the fault injector's random stream became position-keyed (see
#: repro.robustness.faults) — a v1 checkpoint's saved injector RNG state
#: no longer describes the schedule, so v1 resumes must be refused.
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """The checkpoint is unreadable or inconsistent with the campaign."""


def write_json_atomic(path: str, data: Any, sort_keys: bool = False) -> None:
    """Write *data* to *path* as JSON, atomically and durably.

    The text goes to ``<path>.tmp``, is flushed and fsync'd, and only then
    replaces *path*, so a kill mid-write leaves the previous file intact.
    """
    payload = json.dumps(data, sort_keys=sort_keys)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def read_json(path: str) -> Any:
    """Load a JSON checkpoint file; unreadable or corrupt files raise a
    :class:`CheckpointError` naming *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint {path!r}: {exc}") from None


def rng_state_to_json(state: Any) -> Any:
    """``random.Random.getstate()`` → JSON-serializable (tuples → lists)."""
    if isinstance(state, tuple):
        return [rng_state_to_json(item) for item in state]
    return state


def rng_state_from_json(data: Any) -> Any:
    """Inverse of :func:`rng_state_to_json` (lists → tuples)."""
    if isinstance(data, list):
        return tuple(rng_state_from_json(item) for item in data)
    return data


@dataclass
class CampaignCheckpoint:
    """One resumable snapshot of a running campaign."""

    dialect: str
    seed: int
    budget: int
    max_partners: int
    enable_coverage: bool
    # progress
    executed: int = 0
    restarts: int = 0
    timeouts: int = 0
    flaky_crashes: int = 0
    seeds_collected: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    return_types: Dict[str, str] = field(default_factory=dict)
    # oracle + randomness
    oracle: Dict[str, Any] = field(default_factory=dict)
    rng_state: Optional[List[Any]] = None
    ctx_rng_state: Optional[List[Any]] = None
    injector: Optional[Dict[str, Any]] = None
    # campaign-level engine metrics
    triggered_functions: List[str] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)
    coverage_arcs: List[List[Any]] = field(default_factory=list)
    coverage_lines: List[List[Any]] = field(default_factory=list)
    # clock
    elapsed_seconds: float = 0.0
    # sandbox/containment extension (both default-valued so pre-sandbox
    # checkpoints keep loading under the strict unknown-field check):
    # stream_position counts containment-skipped statements too; `executed`
    # only counts statements that reached the runner.  None means "no skips
    # possible" and resume falls back to `executed`.
    stream_position: Optional[int] = None
    #: containment state + worker kill/respawn counters (sandbox campaigns)
    sandbox: Optional[Dict[str, Any]] = None
    version: int = CHECKPOINT_VERSION

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically persist the checkpoint as JSON."""
        write_json_atomic(path, asdict(self), sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "CampaignCheckpoint":
        data = read_json(path)
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has version {version!r}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise CheckpointError(
                f"checkpoint {path!r} has unknown fields {sorted(unknown)}"
            )
        return cls(**data)

    @classmethod
    def try_load(cls, path: str) -> Optional["CampaignCheckpoint"]:
        """Load a checkpoint if one usably exists, else ``None``.

        The service's crash recovery uses this to decide whether an
        orphaned job can resume: a missing, corrupt, or wrong-version
        sidecar means "start the campaign over", not "refuse to run".
        """
        try:
            return cls.load(path)
        except CheckpointError:
            return None

    # ------------------------------------------------------------------
    def validate_for(
        self,
        dialect: str,
        seed: int,
        budget: int,
        max_partners: int,
        enable_coverage: bool,
    ) -> None:
        """Refuse to resume into a campaign with different parameters."""
        mismatches = []
        for name, ours in (
            ("dialect", dialect),
            ("seed", seed),
            ("budget", budget),
            ("max_partners", max_partners),
            ("enable_coverage", enable_coverage),
        ):
            theirs = getattr(self, name)
            if theirs != ours:
                mismatches.append(f"{name}: checkpoint={theirs!r} campaign={ours!r}")
        if mismatches:
            raise CheckpointError(
                "checkpoint does not match this campaign ("
                + "; ".join(mismatches)
                + ")"
            )
