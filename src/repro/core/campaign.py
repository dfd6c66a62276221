"""Campaign orchestration: SOFT end-to-end against one dialect.

A campaign runs the three SOFT steps (§7.1) under a *query budget* — our
deterministic stand-in for the paper's wall-clock budgets ("24 hours",
"two weeks" — see DESIGN.md's substitution table):

1. collect seeds from the dialect's documentation and regression suite,
2. generate boundary-argument statements with the ten patterns,
3. execute them, deduplicating crashes through the oracle.

The seeds themselves run first: they establish baseline function coverage
(and regression suites are supposed to pass — a crashing seed would be a
pre-existing bug, attributed to the pseudo-pattern ``"seed"``).

Resilience (the long-campaign survival layer, :mod:`repro.robustness`):

* ``faults`` installs a deterministic :class:`FaultInjector` on the
  simulated server; the runner absorbs the injected noise (retry/backoff,
  watchdog kills, crash reconfirmation) so the campaign reports the same
  deduplicated bug set as a fault-free run.
* ``checkpoint_path`` periodically snapshots the campaign;
  ``run(resume=True)`` continues a killed campaign deterministically from
  that same path.  Serial and sharded campaigns name their files with
  :func:`checkpoint_files` and load them with :func:`load_checkpoints`,
  which checks each saved spec against this campaign's
  (:func:`campaign_spec`); the resume then replays the (deterministic)
  generation stream, *skipping* the positions already processed without
  executing them (:func:`progress_snapshot`, :func:`restore_progress`).
* A server that repeatedly fails to restart is quarantined by the circuit
  breaker: the campaign finalizes what it has (``result.quarantined``)
  instead of aborting, so multi-dialect sweeps degrade gracefully.

Per-fault-class counters are surfaced in ``CampaignResult.outcomes`` under
``fault.*`` keys; the plain outcome kinds (``ok``/``error``/…) still sum to
``queries_executed``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import (
    SHARD_FORMAT_VERSION,
    CampaignCheckpoint,
    CheckpointError,
)
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import RetryPolicy, ServerQuarantined
from ..robustness.sandbox import ContainmentState
from ..robustness.watchdog import Clock, SimulatedClock, WallClock, Watchdog
from .collect import Seed, SeedCollector
from .config import CampaignConfig
from .oracles import (
    CaseInfo,
    Finding,
    OraclePipeline,
    OracleStateError,
    build_pipeline,
)
from .oracles.crash import DiscoveredBug
from .patterns import PatternEngine
from .runner import Outcome, Runner
from .tables import TABLE_SETUP


@dataclass
class CampaignResult:
    """Everything the benchmarks need from one campaign."""

    dialect: str
    queries_executed: int = 0
    seeds_collected: int = 0
    bugs: List[DiscoveredBug] = field(default_factory=list)
    false_positives: List[str] = field(default_factory=list)
    flaky_signals: List[str] = field(default_factory=list)
    #: non-crash oracle findings (divergences, conformance violations);
    #: empty under the default crash-only pipeline
    findings: List[Finding] = field(default_factory=list)
    triggered_functions: Set[str] = field(default_factory=set)
    branch_coverage: int = 0
    outcomes: dict = field(default_factory=dict)  # kind -> count (+ fault.*)
    fault_counters: Dict[str, int] = field(default_factory=dict)
    quarantined: bool = False
    quarantine_reason: str = ""
    elapsed_seconds: float = 0.0
    #: throughput instrumentation — real wall-clock time (monotonic), even
    #: when the campaign itself runs on a simulated clock.  It never enters
    #: :meth:`signature`.
    wall_seconds: float = 0.0
    #: sandbox supervisor health (``--sandbox`` campaigns only; the
    #: default-config signature layout is untouched when inactive)
    sandbox_active: bool = False
    sandbox_kills: int = 0          # SIGKILLs after blown wall deadlines
    sandbox_worker_deaths: int = 0  # workers that died on their own
    sandbox_respawns: int = 0
    open_breakers: List[str] = field(default_factory=list)
    quarantined_statements: int = 0
    skipped_statements: int = 0

    @property
    def bug_count(self) -> int:
        return len(self.bugs)

    @property
    def statements_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries_executed / self.wall_seconds

    def bugs_by(self, attr: str) -> dict:
        out: dict = {}
        for bug in self.bugs:
            key = getattr(bug, attr)
            out[key] = out.get(key, 0) + 1
        return out

    def bug_keys(self) -> Set[Tuple[str, str]]:
        """The deduplicated bug identities (function, crash class)."""
        return {(b.function, b.crash_code) for b in self.bugs}

    def signature(self) -> tuple:
        """A deterministic fingerprint of the campaign outcome.

        Covers every reproducible field (everything except wall-clock
        elapsed time); two same-seed campaigns — or a killed+resumed
        campaign and its uninterrupted twin — must produce equal
        signatures.
        """
        base = (
            self.dialect,
            self.queries_executed,
            self.seeds_collected,
            tuple(
                (b.function, b.crash_code, b.pattern, b.sql, b.stage, b.query_index)
                for b in self.bugs
            ),
            tuple(self.false_positives),
            tuple(self.flaky_signals),
            tuple(sorted(self.triggered_functions)),
            self.branch_coverage,
            tuple(sorted(self.outcomes.items())),
            tuple(sorted(self.fault_counters.items())),
            self.quarantined,
        )
        if self.findings:
            base = base + (tuple(f.signature_tuple() for f in self.findings),)
        if self.sandbox_active:
            # sandbox campaigns fold the containment outcome in; default
            # campaigns keep the historical signature layout byte-identical
            base = base + (
                (
                    tuple(self.open_breakers),
                    self.quarantined_statements,
                    self.skipped_statements,
                    self.sandbox_kills,
                    self.sandbox_worker_deaths,
                    self.sandbox_respawns,
                ),
            )
        return base


# ----------------------------------------------------------------------
# the steps serial and sharded campaigns share
# ----------------------------------------------------------------------
def build_runner(
    dialect: Dialect,
    config: CampaignConfig,
    pipeline: OraclePipeline,
    injector: Optional[FaultInjector],
    clock: Clock,
    retry_policy: Optional[RetryPolicy] = None,
) -> Runner:
    """The runner *config* asks for.  Build *pipeline* first: non-crash
    oracles install the dialect's logic flaws, which must be patched in
    before the server is built."""
    runner = Runner(
        dialect,
        enable_coverage=config.enable_coverage,
        faults=injector,
        retry_policy=retry_policy,
        clock=clock,
        watchdog=Watchdog(clock, deadline_seconds=config.statement_deadline),
        budgets=config.budgets,
        sandbox=config.sandbox,
        bootstrap_sql=TABLE_SETUP if config.statement_family == "predicate" else (),
    )
    runner.capture_fingerprints = pipeline.needs_fingerprints
    return runner


def run_contained(
    runner: Runner,
    containment: Optional[ContainmentState],
    sql: str,
    family: str,
    position: int,
) -> Outcome:
    """Run one statement through the crash-loop containment layer.

    A statement that is quarantined (it killed a worker before) or whose
    function family's circuit breaker is open is *skipped*: it produces
    exactly one ``skipped`` outcome and never reaches the runner.
    Everything else executes normally and feeds the containment state.
    """
    if containment is None:
        return runner.run(sql, position=position)
    reason = containment.should_skip(sql, family)
    if reason is not None:
        containment.note_skip()
        return Outcome("skipped", sql, message=reason)
    outcome = runner.run(sql, position=position)
    containment.observe(outcome.kind, sql, family, outcome.message)
    return outcome


def processed(runner: Runner, containment: Optional[ContainmentState]) -> int:
    """Stream positions consumed so far: executions plus containment
    skips.  The budget caps *processed* positions, so a skipped statement
    spends its slot — this keeps serial and sharded runs on exactly the
    same stream prefix (a shard cannot know how many statements its
    siblings skipped).  Without containment this is ``runner.executed``.
    """
    return runner.executed + (containment.skipped if containment is not None else 0)


def run_seed_phase(
    runner: Runner,
    containment: Optional[ContainmentState],
    seeds: Sequence[Seed],
    budget: int,
    return_types: Dict[str, str],
    record: Callable[[Outcome, CaseInfo, int], None],
    skip: int = 0,
    after: Optional[Callable[[int], None]] = None,
) -> int:
    """Replay the regression-suite seeds as stream positions ``0..S-1``.

    Each function's first observed result type lands in *return_types*
    (it orders the pattern engine's partner enumeration).  *record* sees
    every outcome; *after* gets the next position after each statement.
    The first *skip* positions ran before a checkpoint and are passed
    over.  Returns the next stream position.
    """
    position = min(skip, len(seeds))
    for seed in seeds[position:]:
        if processed(runner, containment) >= budget:
            break
        outcome = run_contained(
            runner, containment, f"SELECT {seed.sql};", seed.family, position
        )
        record(outcome, CaseInfo("seed", seed.function, seed.family), position)
        if outcome.result_type and seed.function not in return_types:
            return_types[seed.function] = outcome.result_type
        position += 1
        if after is not None:
            after(position)
    return position


def add_counts(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for kind, count in counts.items():
        into[kind] = into.get(kind, 0) + count


def fill_result(
    result: CampaignResult,
    runner: Runner,
    pipeline: OraclePipeline,
    containment: Optional[ContainmentState],
    shards: Sequence[Dict[str, Any]] = (),
) -> None:
    """Fold a finished campaign into *result*.

    *runner* is this process's; a sharded campaign also passes every
    shard's final :func:`progress_snapshot`, whose oracle states are
    already merged into *pipeline*.  The fault counters also land in the
    outcomes as ``fault.*`` keys.
    """
    executed = runner.executed
    triggered = set(runner.server.ctx.triggered_functions)
    arcs = set(runner.coverage.arcs) if runner.coverage is not None else set()
    fault_counters = dict(runner.fault_counters)
    if runner.injector is not None:
        add_counts(fault_counters, runner.injector.counters)
    # getattr's default covers runners without a sandbox supervisor
    sandbox = {name: getattr(runner.sandbox, name, 0) for name in SANDBOX_COUNTERS}
    for shard in shards:
        executed += shard["executed"]
        triggered.update(shard["triggered"])
        arcs.update(tuple(arc) for arc in shard["coverage_arcs"])
        add_counts(result.outcomes, shard["outcomes"])
        add_counts(fault_counters, shard["fault_counters"])
        add_counts(fault_counters, shard["injector_counters"])
        add_counts(sandbox, shard["sandbox"])
    result.queries_executed = executed
    result.triggered_functions = triggered
    result.branch_coverage = len(arcs)
    crash = pipeline.get("crash")
    if crash is not None:
        result.bugs = list(crash.bugs)
        result.false_positives = list(crash.false_positives)
        result.flaky_signals = list(crash.flaky_signals)
    result.findings = pipeline.extra_findings()
    result.fault_counters = fault_counters
    for kind, count in sorted(fault_counters.items()):
        result.outcomes[f"fault.{kind}"] = count
    if containment is not None:
        containment.merge(shard["containment"] for shard in shards)
        result.sandbox_active = True
        result.open_breakers = containment.open_breakers
        result.quarantined_statements = len(containment.quarantine)
        result.skipped_statements = containment.skipped
        for name, count in sandbox.items():
            setattr(result, f"sandbox_{name}", count)


# ----------------------------------------------------------------------
# saved campaign state: serial checkpoints and shard sidecars share one
# spec, one progress snapshot and one restore
# ----------------------------------------------------------------------
#: config fields that change neither the statement stream nor the result:
#: where and how often to checkpoint, and service bookkeeping.  ``jobs``
#: enters only a shard's spec, with the worker index.
_SPEC_EXEMPT = (
    "checkpoint_path", "checkpoint_every", "jobs",
    "submitter", "priority", "preemptible",
)

#: the sandbox supervisor's counters, reported as ``sandbox_<name>``
SANDBOX_COUNTERS = ("kills", "worker_deaths", "respawns")


def campaign_spec(
    config: CampaignConfig, worker: Optional[int] = None
) -> Dict[str, Any]:
    """The identity a saved campaign state must match to be resumed.

    Every config field that can shape the statement stream or the result,
    in :meth:`CampaignConfig.to_dict`'s encoding.  A shard sidecar's spec
    (*worker* given) adds the sharding layout: the worker, the worker
    count and :data:`SHARD_FORMAT_VERSION`.
    """
    faults = config.faults
    if isinstance(faults, FaultInjector):
        # a ready-made injector (serial campaigns only) is its plan + seed
        config = config.replace(faults=faults.plan, fault_seed=faults.seed)
    spec = {
        name: value
        for name, value in config.to_dict().items()
        if name not in _SPEC_EXEMPT
    }
    if worker is not None:
        spec.update(shard_format=SHARD_FORMAT_VERSION, jobs=config.jobs, worker=worker)
    return spec


def checkpoint_files(
    config: CampaignConfig, sharded: Optional[bool] = None
) -> Dict[Optional[int], str]:
    """Where a campaign under *config* saves its state, by worker.

    ``{None: path}`` for a serial campaign, ``{w: "<path>.shard<w>"}`` for
    each worker of a sharded one (*sharded* defaults to
    ``config.parallel``); empty without a ``checkpoint_path``.
    """
    path = config.checkpoint_path
    if path is None:
        return {}
    if not (config.parallel if sharded is None else sharded):
        return {None: path}
    return {worker: f"{path}.shard{worker}" for worker in range(config.jobs)}


def load_checkpoints(
    config: CampaignConfig, sharded: Optional[bool] = None
) -> Dict[Optional[int], CampaignCheckpoint]:
    """Every saved state of *config* that exists, validated against its
    :func:`campaign_spec`, keyed like :func:`checkpoint_files`.

    The one resume rule: raises :class:`CheckpointError` when no file
    exists or when any existing file is unusable.  A shard whose own
    file is missing (it was killed before its first save) starts over.
    """
    files = checkpoint_files(config, sharded)
    if not files:
        raise CheckpointError("resuming needs the 'checkpoint_path' option")
    saved: Dict[Optional[int], CampaignCheckpoint] = {}
    for worker, path in files.items():
        if os.path.exists(path):
            saved[worker] = CampaignCheckpoint.load(path)
            saved[worker].validate_for(campaign_spec(config, worker))
    if not saved:
        raise CheckpointError(
            "no checkpoint to resume from at "
            + ", ".join(repr(path) for path in files.values())
        )
    return saved


def progress_snapshot(
    runner: Runner,
    pipeline: OraclePipeline,
    containment: Optional[ContainmentState],
    outcomes: Dict[str, int],
    position: int,
) -> Dict[str, Any]:
    """What a campaign, or one shard, has done so far, as plain JSON data.

    The ``progress`` of a checkpoint and of a shard sidecar, and the body
    of a shard's report: the stream positions processed (containment
    skips included) and everything a resume cannot re-derive by replay.
    """
    coverage = runner.coverage
    injector = runner.injector
    supervisor = runner.sandbox
    return {
        "position": position,
        "executed": runner.executed,
        "outcomes": dict(outcomes),
        "fault_counters": dict(runner.fault_counters),
        "injector_counters": dict(injector.counters) if injector is not None else {},
        "oracle": pipeline.export_state(),
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": (
            [list(arc) for arc in sorted(coverage.arcs)] if coverage is not None else []
        ),
        "coverage_lines": (
            [list(line) for line in sorted(coverage.lines)]
            if coverage is not None else []
        ),
        "containment": containment.export_state() if containment is not None else None,
        "sandbox": (
            {name: getattr(supervisor, name) for name in SANDBOX_COUNTERS}
            if supervisor is not None else {}
        ),
    }


def restore_progress(
    progress: Dict[str, Any],
    runner: Runner,
    pipeline: OraclePipeline,
    containment: Optional[ContainmentState],
    outcomes: Dict[str, int],
) -> int:
    """Load a :func:`progress_snapshot` into a fresh runner, pipeline,
    containment state and outcome counts.  Returns the saved position:
    the resumed loop skips every position before it without running it.
    """
    try:
        pipeline.restore_state(progress["oracle"])
    except OracleStateError as exc:
        raise CheckpointError(str(exc)) from exc
    runner.executed = progress["executed"]
    runner.fault_counters = dict(progress["fault_counters"])
    if runner.injector is not None:
        runner.injector.counters = dict(progress["injector_counters"])
    runner.server.ctx.triggered_functions |= set(progress["triggered"])
    if runner.coverage is not None:
        runner.coverage.arcs |= {tuple(arc) for arc in progress["coverage_arcs"]}
        runner.coverage.lines |= {tuple(line) for line in progress["coverage_lines"]}
    if containment is not None and progress["containment"] is not None:
        containment.restore_state(progress["containment"])
    if runner.sandbox is not None:
        for name, count in progress["sandbox"].items():
            setattr(runner.sandbox, name, count)
    outcomes.update(progress["outcomes"])
    return progress["position"]


class Campaign:
    """One SOFT campaign over one dialect.

    The campaign options live in a :class:`~repro.core.config.CampaignConfig`
    passed as ``config=`` (an empty ``config.dialect`` is filled from
    *dialect*).  The ``clock``/``retry_policy`` runtime objects are not
    configuration and remain ordinary constructor arguments.
    """

    def __init__(
        self,
        dialect: Dialect,
        config: Optional[CampaignConfig] = None,
        clock: Optional[Clock] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if config is None:
            config = CampaignConfig(dialect=dialect.name)
        elif not isinstance(config, CampaignConfig):
            raise TypeError(
                f"Campaign config= expects a CampaignConfig, got {config!r}"
            )
        elif not config.dialect:
            config = config.replace(dialect=dialect.name)
        self.config = config
        self.dialect = dialect
        self.containment: Optional[ContainmentState] = (
            ContainmentState.from_config(config.sandbox)
            if config.sandbox is not None
            else None
        )
        self.retry_policy = retry_policy
        if clock is None:
            # faulted or checkpointed campaigns need steerable, restorable
            # time; plain campaigns keep reporting real elapsed seconds
            wants_simulated = (
                config.faults is not None or config.checkpoint_path is not None
            )
            clock = SimulatedClock() if wants_simulated else WallClock()
        self.clock = clock
        self.injector = make_fault_injector(
            config.faults, seed=config.fault_seed, clock=self.clock
        )
        #: optional streaming hooks (the service scheduler sets these):
        #: ``on_finding(finding, position)`` fires for every *new* oracle
        #: finding; ``on_progress(snapshot_dict)`` fires periodically
        self.on_finding = None
        self.on_progress = None
        self.progress_every = 200
        self._started = 0.0
        self._elapsed_offset = 0.0
        self._wall_started = 0.0

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Run the campaign; *resume* continues it from the state saved
        at ``config.checkpoint_path`` (see :func:`load_checkpoints`)."""
        config = self.config
        containment = self.containment
        cp: Optional[CampaignCheckpoint] = None
        if resume:
            cp = load_checkpoints(config, sharded=False)[None]
        self._started = self.clock.now()
        self._elapsed_offset = 0.0
        self._wall_started = time.monotonic()
        result = CampaignResult(dialect=self.dialect.name)
        pipeline = build_pipeline(self.dialect, config.oracles)
        runner = build_runner(
            self.dialect, config, pipeline, self.injector, self.clock,
            self.retry_policy,
        )
        crash_oracle = pipeline.get("crash")
        expected = getattr(self.dialect, "bugs", [])

        seeds = SeedCollector(self.dialect).collect()
        result.seeds_collected = len(seeds)

        skip = 0
        return_types: Dict[str, str] = {}
        if cp is not None:
            skip = restore_progress(
                cp.progress, runner, pipeline, containment, result.outcomes
            )
            return_types = dict(cp.return_types)
            self._elapsed_offset = cp.elapsed_seconds

        def record(outcome: Outcome, case: CaseInfo, position: int) -> None:
            self._record(result, pipeline, outcome, case, position)

        def advance(position: int) -> None:
            # a save due at this position lands before on_progress fires,
            # so a hook that stops the run (drain, preempt) loses nothing
            self._maybe_checkpoint(runner, pipeline, result, return_types, position)
            self._report_progress(result, position)

        try:
            # step 0: the regression-suite seeds, observing each function's
            # result type (used to order partner enumeration)
            position = run_seed_phase(
                runner, containment, seeds, config.budget, return_types,
                record, skip=skip, after=advance,
            )
            engine = PatternEngine(
                seeds,
                max_partners=config.max_partners,
                return_types=return_types,
                statement_family=config.statement_family,
            )
            # re-generated cases below the resume position already ran
            cases = islice(engine.generate_all(), max(skip - position, 0), None)
            position = max(position, skip)
            for case in cases:
                if processed(runner, containment) >= config.budget:
                    break
                info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
                outcome = run_contained(
                    runner, containment, case.sql, case.seed_family, position
                )
                record(outcome, info, position)
                position += 1
                advance(position)
                if (
                    config.stop_when_all_found
                    and expected
                    and crash_oracle is not None
                    and crash_oracle.recall_against(expected) >= 1.0
                ):
                    break
        except ServerQuarantined as exc:
            # the in-flight statement never completed; keep the outcome
            # accounting consistent with queries_executed
            runner.executed = max(runner.executed - 1, 0)
            result.quarantined = True
            result.quarantine_reason = str(exc)

        fill_result(result, runner, pipeline, containment)
        result.elapsed_seconds = (
            self.clock.now() - self._started
        ) + self._elapsed_offset
        result.wall_seconds = time.monotonic() - self._wall_started
        runner.close()
        return result

    # ------------------------------------------------------------------
    def _record(
        self,
        result: CampaignResult,
        pipeline: OraclePipeline,
        outcome: Outcome,
        case: CaseInfo,
        position: int,
    ) -> None:
        result.outcomes[outcome.kind] = result.outcomes.get(outcome.kind, 0) + 1
        found = pipeline.observe(outcome, case, position)
        if self.on_finding is not None:
            for finding in found:
                self.on_finding(finding, position)

    def _report_progress(self, result: CampaignResult, position: int) -> None:
        """Fire ``on_progress`` when *position*, the next stream position,
        is a multiple of ``progress_every``."""
        if (
            self.on_progress is not None
            and self.progress_every > 0
            and position % self.progress_every == 0
        ):
            self.on_progress(
                {
                    "position": position,
                    "budget": self.config.budget,
                    "outcomes": dict(result.outcomes),
                }
            )

    def _maybe_checkpoint(
        self,
        runner: Runner,
        pipeline: OraclePipeline,
        result: CampaignResult,
        return_types: Dict[str, str],
        position: int,
    ) -> None:
        path, every = self.config.checkpoint_path, self.config.checkpoint_every
        if path is None or every <= 0:
            return
        if runner.executed == 0 or runner.executed % every:
            return
        CampaignCheckpoint(
            spec=campaign_spec(self.config),
            progress=progress_snapshot(
                runner, pipeline, self.containment, result.outcomes, position
            ),
            return_types=dict(return_types),
            elapsed_seconds=(self.clock.now() - self._started)
            + self._elapsed_offset,
        ).save(path)


def run_campaign(
    dialect_name: Optional[str] = None,
    *,
    resume: bool = False,
    config: Optional[CampaignConfig] = None,
    **options: Any,
) -> CampaignResult:
    """Convenience wrapper: run SOFT against a dialect by name.

    *options* are :class:`CampaignConfig` fields, folded into
    ``CampaignConfig(dialect=dialect_name, **options)``.  Alternatively
    pass a ready-made ``config=`` (``dialect_name`` may then be omitted in
    favour of ``config.dialect``), but not both.
    """
    if config is None:
        config = CampaignConfig(dialect=dialect_name or "", **options)
    elif options:
        raise TypeError(
            f"run_campaign accepts either config= or campaign options, not "
            f"both (got config= plus {sorted(options)})"
        )
    name = config.dialect or dialect_name
    if not name:
        raise ValueError("run_campaign needs a dialect name (or config.dialect)")
    return Campaign(dialect_by_name(name), config=config).run(resume=resume)


def run_campaigns(
    dialect_names: List[str],
    **kwargs,
) -> Dict[str, CampaignResult]:
    """Run SOFT against several dialects, degrading gracefully.

    Each dialect gets its own campaign (and its own circuit breaker); a
    quarantined server yields a partial, ``quarantined`` result instead of
    aborting the sweep — the remaining dialects still run.  A ``config=``
    keyword applies the same :class:`CampaignConfig` to every dialect.
    """
    config: Optional[CampaignConfig] = kwargs.pop("config", None)
    results: Dict[str, CampaignResult] = {}
    for name in dialect_names:
        if config is not None:
            results[name] = run_campaign(config=config.replace(dialect=name), **kwargs)
        else:
            results[name] = run_campaign(name, **kwargs)
    return results
