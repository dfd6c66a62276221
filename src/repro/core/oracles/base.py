"""Oracle protocol: findings, the per-statement fan-out, and shard merge.

Detection is pluggable.  An :class:`Oracle` watches the stream of executed
statements (every :class:`~repro.core.runner.Outcome`, in campaign order)
and accumulates :class:`Finding` objects; the :class:`OraclePipeline` fans
each outcome to all registered oracles and owns their checkpoint state as
one unit.

The protocol has three obligations beyond ``observe``:

* **Checkpointing** — ``export_state``/``restore_state`` round-trip the
  oracle through JSON; every state dict carries a ``version`` field and
  restoring an unknown version (or unknown keys) is a hard error, never a
  silent partial restore.
* **Shard merge** — ``merge(shard_states)`` folds the states of workers
  that each saw a disjoint slice of the statement stream into this oracle,
  replaying records in global stream order so first-occurrence dedup gives
  byte-identical findings to a serial run.
* **Determinism** — observing the same outcome stream must produce the
  same findings regardless of what other statements ran in between; the
  campaign's parallel-vs-serial signature parity rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ...dialects.base import Dialect
from ..runner import Outcome


class OracleStateError(ValueError):
    """A checkpointed oracle state cannot be restored (wrong version,
    unknown keys, or a different oracle set than the running pipeline)."""


@dataclass(frozen=True)
class CaseInfo:
    """What the campaign knows about the statement behind an outcome."""

    pattern: str                 # P1.1..P3.3, or "seed"
    function: str = ""           # the seed function under test ("" = unknown)
    family: str = ""


class Finding:
    """Base class for anything an oracle reports.

    Subclasses are dataclasses carrying their own fields; this base fixes
    the attribute contract every consumer (reports, signatures, minimizer)
    relies on: ``dbms``, ``function``, ``pattern``, ``sql``,
    ``query_index``, plus the polymorphic surface below.
    """

    #: short oracle-specific discriminator ("crash", "divergence", ...)
    kind = "finding"

    # -- polymorphic surface ------------------------------------------------
    @property
    def key(self) -> Tuple:
        """Dedup identity within one oracle."""
        raise NotImplementedError

    @property
    def bug_type_label(self) -> str:
        """Short label for report tables (a crash class, "WRONG", ...)."""
        return self.kind.upper()

    @property
    def attribution(self):
        """The injected ground-truth entry this finding matches, if any."""
        return None

    @property
    def family(self) -> str:
        attributed = self.attribution
        if attributed is not None:
            return attributed.family
        return "unknown"

    def signature_tuple(self) -> Tuple:
        """Deterministic fingerprint entry for ``CampaignResult.signature``."""
        return (
            self.kind,
            self.function,
            self.bug_type_label,
            self.pattern,
            self.sql,
            self.query_index,
        )

    def one_liner(self) -> str:
        return (
            f"[{self.bug_type_label}] {self.function} "
            f"via {self.pattern}: {self.sql}"
        )


def check_state_version(
    state: Dict[str, Any],
    expected: int,
    known_keys: Sequence[str],
    owner: str,
) -> None:
    """Validate a checkpointed state dict before restoring it.

    Raises :class:`OracleStateError` on a version mismatch or on keys the
    running code does not know — an old binary restoring a newer
    checkpoint must fail loudly, not drop the fields it cannot parse.
    """
    version = state.get("version")
    if version != expected:
        raise OracleStateError(
            f"{owner} state version {version!r} is not supported by this "
            f"code (expected {expected}); the checkpoint was written by a "
            "different version"
        )
    unknown = sorted(set(state) - set(known_keys) - {"version"})
    if unknown:
        raise OracleStateError(
            f"{owner} state carries unknown keys {unknown}; refusing a "
            "partial restore (checkpoint from a newer version?)"
        )


class Oracle:
    """Base class for pluggable detection oracles."""

    #: registry name, also the key inside pipeline checkpoint state
    name = "oracle"
    #: set when observe() reads ``outcome.fingerprint`` — the runner only
    #: computes fingerprints when some registered oracle asks for them
    needs_fingerprints = False

    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> Optional[Finding]:
        """Inspect one executed statement; return a finding when new.

        *index* is the statement's global 0-based campaign position — the
        same position a parallel shard worker would report, so serial and
        sharded runs attribute identical query indices.
        """
        raise NotImplementedError

    def findings(self) -> List[Finding]:
        """Everything this oracle has reported, in discovery order."""
        raise NotImplementedError

    # -- checkpoint/merge ---------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        raise NotImplementedError

    def restore_state(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Fold shard-exported states into this oracle, in stream order."""
        raise NotImplementedError


class OraclePipeline:
    """Fans each outcome to every registered oracle, in registration order."""

    STATE_VERSION = 1

    def __init__(self, oracles: Sequence[Oracle]) -> None:
        if not oracles:
            raise ValueError("an oracle pipeline needs at least one oracle")
        names = [oracle.name for oracle in oracles]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate oracle names in pipeline: {names}")
        self.oracles: List[Oracle] = list(oracles)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(oracle.name for oracle in self.oracles)

    @property
    def needs_fingerprints(self) -> bool:
        return any(oracle.needs_fingerprints for oracle in self.oracles)

    def get(self, name: str) -> Optional[Oracle]:
        for oracle in self.oracles:
            if oracle.name == name:
                return oracle
        return None

    # ------------------------------------------------------------------
    def observe(
        self, outcome: Outcome, case: CaseInfo, index: int
    ) -> List[Finding]:
        """Fan one outcome out; returns the new findings (usually empty)."""
        found: List[Finding] = []
        for oracle in self.oracles:
            finding = oracle.observe(outcome, case, index)
            if finding is not None:
                found.append(finding)
        return found

    def findings(self) -> List[Finding]:
        out: List[Finding] = []
        for oracle in self.oracles:
            out.extend(oracle.findings())
        return out

    def extra_findings(self) -> List[Finding]:
        """Findings from every oracle except the crash oracle (which keeps
        its historical home in ``CampaignResult.bugs``)."""
        out: List[Finding] = []
        for oracle in self.oracles:
            if oracle.name != "crash":
                out.extend(oracle.findings())
        return out

    # -- checkpoint/merge ---------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        return {
            "version": self.STATE_VERSION,
            "names": list(self.names),
            "oracles": {o.name: o.export_state() for o in self.oracles},
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        check_state_version(
            state, self.STATE_VERSION, ("names", "oracles"), "oracle pipeline"
        )
        names = list(state.get("names", []))
        if names != list(self.names):
            raise OracleStateError(
                f"checkpoint was written with oracles {names} but the "
                f"campaign runs {list(self.names)}; resume with the same "
                "--oracles set"
            )
        for oracle in self.oracles:
            oracle.restore_state(state["oracles"][oracle.name])

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Fold shard pipeline states into this (parent) pipeline."""
        for state in shard_states:
            if list(state.get("names", [])) != list(self.names):
                raise OracleStateError(
                    f"shard oracle state has oracles "
                    f"{state.get('names')} but the parent runs "
                    f"{list(self.names)}"
                )
        for oracle in self.oracles:
            oracle.merge([state["oracles"][oracle.name] for state in shard_states])


# ---------------------------------------------------------------------------
# registry: --oracles spec -> pipeline
# ---------------------------------------------------------------------------
ORACLE_NAMES = ("crash", "differential", "conformance", "tlp", "norec")

#: oracle names that double as predicate-level flaw kinds — requesting one
#: installs the matching engine-knob defect as its ground truth
METAMORPHIC_ORACLES = ("tlp", "norec")

#: the historical default — byte-identical behaviour to the pre-pipeline code
DEFAULT_ORACLES = ("crash",)

OracleSpec = Union[None, str, Sequence[str]]


def parse_oracle_names(spec: OracleSpec) -> Tuple[str, ...]:
    """Normalize an ``--oracles`` spec to a validated name tuple."""
    if spec is None:
        return DEFAULT_ORACLES
    if isinstance(spec, str):
        names = [part.strip().lower() for part in spec.split(",") if part.strip()]
    else:
        names = [str(part).strip().lower() for part in spec]
    if not names:
        return DEFAULT_ORACLES
    seen: List[str] = []
    for name in names:
        if name not in ORACLE_NAMES:
            raise ValueError(
                f"unknown oracle {name!r} (known: {', '.join(ORACLE_NAMES)})"
            )
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def build_pipeline(dialect: Dialect, spec: OracleSpec = None) -> OraclePipeline:
    """Construct the pipeline for one campaign over *dialect*.

    Non-crash oracles hunt the dialect's seeded ``logic_flaw`` defects, so
    requesting any of them installs the dialect's logic flaws first (the
    default crash-only pipeline leaves the dialect untouched — and every
    existing campaign byte-identical).
    """
    from .conformance import ErrorConformanceOracle
    from .crash import CrashOracle
    from .differential import DifferentialOracle
    from .metamorphic import NoRECOracle, TLPOracle

    names = parse_oracle_names(spec)
    if any(name != "crash" for name in names):
        # predicate-level flaw knobs install only for the metamorphic
        # oracles that hunt them — a differential/conformance campaign
        # keeps clause evaluation pristine
        dialect.install_logic_flaws(
            predicate_kinds=tuple(n for n in names if n in METAMORPHIC_ORACLES)
        )
    oracles: List[Oracle] = []
    for name in names:
        if name == "crash":
            oracles.append(CrashOracle(dialect.name))
        elif name == "differential":
            oracles.append(DifferentialOracle(dialect))
        elif name == "conformance":
            oracles.append(ErrorConformanceOracle(dialect))
        elif name == "tlp":
            oracles.append(TLPOracle(dialect))
        elif name == "norec":
            oracles.append(NoRECOracle(dialect))
    return OraclePipeline(oracles)
