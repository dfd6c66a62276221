"""Oracle protocol: findings, the per-statement fan-out, and shard merge.

Detection is pluggable.  An :class:`Oracle` watches the stream of executed
statements (every :class:`~repro.core.runner.Outcome`, in campaign order)
and accumulates :class:`Finding` objects; the :class:`OraclePipeline` fans
each outcome to all registered oracles and owns their checkpoint state as
one unit.

A new oracle supplies three things:

* ``observe``, which hands each new finding to :meth:`Oracle._keep`;
* a dataclass :class:`Finding` subclass with a dedup ``key``;
* that class's attribution hook, :meth:`Finding.lookup_attribution`.

The base class does the rest once for every oracle: first-by-key dedup,
attribution of kept findings, JSON round-trips of findings and oracle
state (every state dict carries a ``version``; an unknown version or
unknown keys are a hard error, never a silent partial restore), and
shard merge, which replays findings in global stream order so that
first-occurrence dedup gives byte-identical findings to a serial run.
Determinism is the one obligation left to ``observe``: the same outcome
stream must produce the same findings regardless of what other
statements ran in between, because serial-vs-sharded signature parity
rests on it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Type, Union

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
    #: the dataclass field holding the attribution; it is never saved,
    #: :meth:`from_dict` re-resolves it through :meth:`lookup_attribution`
    attribution_field = "flaw"

    # -- polymorphic surface ------------------------------------------------
    @property
    def key(self) -> Tuple:
        """Dedup identity within one oracle."""
        raise NotImplementedError

    def lookup_attribution(self):
        """The injected ground-truth entry this finding matches, looked up
        in the dialect's registry (``None`` when it matches none)."""
        return None

    @property
    def bug_type_label(self) -> str:
        """Short label for report tables (a crash class, "WRONG", ...)."""
        return self.kind.upper()

    @property
    def attribution(self):
        """The injected ground-truth entry this finding matches, if any."""
        return getattr(self, self.attribution_field, None)

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

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON form: every dataclass field but the attribution, in field
        order (used by checkpoints and shard sidecars)."""
        return {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if f.name != self.attribution_field
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Finding":
        """Rebuild a finding saved by :meth:`to_dict`, attribution included."""
        finding = cls(**data)
        finding.attribute()
        return finding

    def attribute(self) -> None:
        """Set the attribution field from :meth:`lookup_attribution`."""
        setattr(self, self.attribution_field, self.lookup_attribution())


def _plain(value: Any) -> Any:
    """A copy of a list field, so saved state never shares one with the
    finding; any other field value as it is."""
    return list(value) if isinstance(value, list) else value


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


#: additive per-statement diagnostics of the replaying oracles: saved
#: with the findings and summed on merge, never part of a signature
DIAGNOSTICS = ("checked", "compared", "skipped")


class Oracle:
    """Base class for pluggable detection oracles.

    Owns the findings bookkeeping every oracle shares: dedup, attribution,
    checkpoint state and shard merge (see the module docstring).
    """

    #: registry name, also the key inside pipeline checkpoint state
    name = "oracle"
    #: the :class:`Finding` subclass this oracle reports
    finding_class: Type[Finding] = Finding
    #: checkpoint schema version of :meth:`export_state`
    state_version = 1
    #: the state key holding the saved findings
    findings_key = "findings"
    #: integer attributes saved with the findings and summed on merge
    counters: Tuple[str, ...] = ()
    #: state keys a subclass adds in its :meth:`export_state` extension
    extra_state_keys: Tuple[str, ...] = ()

    def __init__(self, dbms: str) -> None:
        self.dbms = dbms
        self._reset()

    def _reset(self) -> None:
        """Forget everything observed: the state of a new oracle."""
        self._findings: List[Finding] = []
        self._seen: Set[Tuple] = set()
        for counter in self.counters:
            setattr(self, counter, 0)

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
        return list(self._findings)

    def _keep(self, finding: Finding) -> Optional[Finding]:
        """Keep *finding* unless an earlier one had its key; returns it
        when kept.  Only a kept finding pays its attribution lookup."""
        key = finding.key
        if key in self._seen:
            return None
        self._seen.add(key)
        finding.attribute()
        self._findings.append(finding)
        return finding

    # -- checkpoint/merge ---------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Everything needed to rebuild this oracle (JSON-serializable)."""
        state: Dict[str, Any] = {
            "version": self.state_version,
            "dbms": self.dbms,
            self.findings_key: [f.to_dict() for f in self._findings],
        }
        for counter in self.counters:
            state[counter] = getattr(self, counter)
        return state

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Replace this oracle's state: a merge into an empty oracle."""
        self._reset()
        self.merge([state])

    def merge(self, shard_states: Sequence[Dict[str, Any]]) -> None:
        """Fold shard-exported states into this oracle, in stream order.

        Each shard deduplicated within its own slice; re-sorting all
        findings by stream index and deduplicating again keeps exactly the
        finding a serial run would have kept (the globally first
        occurrence of each key is necessarily the first within its shard).
        """
        known = ("dbms", self.findings_key) + self.counters + self.extra_state_keys
        collected = list(self._findings)
        for state in shard_states:
            check_state_version(
                state, self.state_version, known, f"{self.name} oracle"
            )
            collected.extend(
                self.finding_class(**row)
                for row in state.get(self.findings_key, [])
            )
            for counter in self.counters:
                total = getattr(self, counter) + int(state.get(counter, 0))
                setattr(self, counter, total)
        collected.sort(key=lambda finding: finding.query_index)
        self._findings, self._seen = [], set()
        for finding in collected:
            self._keep(finding)


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

    def saved_keys(self, state: Dict[str, Any]) -> Set[Tuple[type, Tuple]]:
        """``(finding class, key)`` of every finding in an exported *state*."""
        return {
            (oracle.finding_class, oracle.finding_class(**row).key)
            for oracle in self.oracles
            for row in state["oracles"][oracle.name][oracle.findings_key]
        }

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
