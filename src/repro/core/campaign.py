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

:meth:`Campaign.run` is the one stream loop.  A serial campaign runs the
whole stream in it; with ``config.jobs > 1`` it runs the seed phase, then
forks one shard process per worker, each running its share of the
generated stream through the same loop (:class:`Stream`), and merges their
reports into a result that signs like the serial run's.

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

Every counter of a campaign (statements executed, outcomes, resilience
events, sandbox supervisor events) lives in one
:class:`~repro.robustness.tally.Tally` per stream; checkpoints save it,
shard reports carry it and :class:`CampaignResult` reads it.  The outcome
kinds (``ok``/``error``/…, and ``skipped``) sum to the positions
processed; per-fault-class counts are ``CampaignResult.fault_counters``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

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
from ..robustness.tally import Tally
from ..robustness.watchdog import Clock, SimulatedClock, WallClock, Watchdog
from ..sqlast import Select, SelectItem, Statement
from .collect import SeedCollector
from .config import CampaignConfig
from .oracles import (
    CaseInfo,
    Finding,
    OraclePipeline,
    OracleStateError,
    build_pipeline,
)
from .oracles.crash import DiscoveredBug
from .patterns import GeneratedCase, PatternEngine
from .runner import Outcome, Runner
from .tables import TABLE_SETUP


@dataclass
class CampaignResult:
    """Everything the benchmarks need from one campaign."""

    dialect: str
    seeds_collected: int = 0
    bugs: List[DiscoveredBug] = field(default_factory=list)
    false_positives: List[str] = field(default_factory=list)
    flaky_signals: List[str] = field(default_factory=list)
    #: non-crash oracle findings (divergences, conformance violations);
    #: empty under the default crash-only pipeline
    findings: List[Finding] = field(default_factory=list)
    triggered_functions: Set[str] = field(default_factory=set)
    branch_coverage: int = 0
    #: every counter of the campaign, its shards' summed in
    tally: Tally = field(default_factory=Tally)
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
    open_breakers: List[str] = field(default_factory=list)
    quarantined_statements: int = 0

    @property
    def queries_executed(self) -> int:
        return self.tally.executed

    @property
    def outcomes(self) -> Dict[str, int]:
        """Statements by outcome kind; they sum to the positions processed
        (containment skips included)."""
        return self.tally.outcomes

    @property
    def fault_counters(self) -> Dict[str, int]:
        """Resilience events by kind: the runner's and the injector's."""
        return self.tally.faults

    @property
    def bug_count(self) -> int:
        return len(self.bugs)

    @property
    def statements_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.queries_executed / self.wall_seconds

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
        tally = self.tally
        # the historical layout also lists each fault counter among the
        # outcomes, as a ``fault.<kind>`` row
        outcomes = dict(tally.outcomes)
        for kind, count in tally.faults.items():
            outcomes[f"fault.{kind}"] = count
        base = (
            self.dialect,
            tally.executed,
            self.seeds_collected,
            tuple(
                (b.function, b.crash_code, b.pattern, b.sql, b.stage, b.query_index)
                for b in self.bugs
            ),
            tuple(self.false_positives),
            tuple(self.flaky_signals),
            tuple(sorted(self.triggered_functions)),
            self.branch_coverage,
            tuple(sorted(outcomes.items())),
            tuple(sorted(tally.faults.items())),
            self.quarantined,
        )
        if self.findings:
            base = base + (tuple(f.signature_tuple() for f in self.findings),)
        if self.sandbox_active:
            # sandbox campaigns fold the containment outcome in; default
            # campaigns keep the historical signature layout byte-identical
            supervisor = tally.supervisor
            base = base + (
                (
                    tuple(self.open_breakers),
                    self.quarantined_statements,
                    tally.outcomes.get("skipped", 0),
                    supervisor["kills"],
                    supervisor["worker_deaths"],
                    supervisor["respawns"],
                ),
            )
        return base


# ----------------------------------------------------------------------
# the steps serial and sharded campaigns share
# ----------------------------------------------------------------------
def build_runner(
    dialect: Dialect,
    config: CampaignConfig,
    injector: Optional[FaultInjector],
    clock: Clock,
    retry_policy: Optional[RetryPolicy] = None,
) -> Runner:
    """The runner *config* asks for.  Build the oracle pipeline first:
    non-crash oracles install the dialect's logic flaws, which must be
    patched in before the server is built."""
    return Runner(
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


def run_contained(
    runner: Runner,
    containment: Optional[ContainmentState],
    sql: str,
    family: str,
    position: int,
    statements: Sequence[Statement],
) -> Outcome:
    """Run one statement through the crash-loop containment layer.

    *statements* are the tree *sql* parses to: the runner executes them
    instead of parsing the text (:meth:`Runner.prepare`).
    A statement that is quarantined (it killed a worker before) or whose
    function family's circuit breaker is open is *skipped*: it produces
    exactly one ``skipped`` outcome and never reaches the runner.
    Everything else executes normally and feeds the containment state.
    """
    if containment is not None:
        reason = containment.should_skip(sql, family)
        if reason is not None:
            return Outcome("skipped", sql, message=reason)
    runner.prepare(sql, statements)
    outcome = runner.run(sql, position=position)
    if containment is not None:
        containment.observe(outcome.kind, sql, family, outcome.message)
    return outcome


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
    already merged into *pipeline*.
    """
    result.tally.merge(
        [runner.tally.export()] + [shard["tally"] for shard in shards]
    )
    triggered = set(runner.server.ctx.triggered_functions)
    arcs = set(runner.coverage.arcs) if runner.coverage is not None else set()
    for shard in shards:
        triggered.update(shard["triggered"])
        arcs.update(tuple(arc) for arc in shard["coverage_arcs"])
    result.triggered_functions = triggered
    result.branch_coverage = len(arcs)
    crash = pipeline.get("crash")
    if crash is not None:
        result.bugs = list(crash.bugs)
        result.false_positives = list(crash.false_positives)
        result.flaky_signals = list(crash.flaky_signals)
    result.findings = pipeline.extra_findings()
    if containment is not None:
        containment.merge(shard["containment"] for shard in shards)
        result.sandbox_active = True
        result.open_breakers = containment.open_breakers
        result.quarantined_statements = len(containment.quarantine)


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
    position: int,
) -> Dict[str, Any]:
    """What a campaign, or one shard, has done so far, as plain JSON data.

    The ``progress`` of a checkpoint and of a shard sidecar, and the body
    of a shard's report: the stream positions processed (containment
    skips included), the stream's tally, and everything else a resume
    cannot re-derive by replay.
    """
    coverage = runner.coverage
    return {
        "position": position,
        "tally": runner.tally.export(),
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
    }


def restore_progress(
    progress: Dict[str, Any],
    runner: Runner,
    pipeline: OraclePipeline,
    containment: Optional[ContainmentState],
) -> int:
    """Load a :func:`progress_snapshot` into a fresh runner (and its
    tally), pipeline and containment state.  Returns the saved position:
    the resumed loop skips every position before it without running it.
    """
    try:
        pipeline.restore_state(progress["oracle"])
    except OracleStateError as exc:
        raise CheckpointError(str(exc)) from exc
    runner.tally.restore(progress["tally"])
    runner.server.ctx.triggered_functions |= set(progress["triggered"])
    if runner.coverage is not None:
        runner.coverage.arcs |= {tuple(arc) for arc in progress["coverage_arcs"]}
        runner.coverage.lines |= {tuple(line) for line in progress["coverage_lines"]}
    if containment is not None and progress["containment"] is not None:
        containment.restore_state(progress["containment"])
    return progress["position"]


# ----------------------------------------------------------------------
# the one stream loop: a serial campaign, a sharded campaign's parent and
# each of its shards all run their share of the stream through it
# ----------------------------------------------------------------------
#: 2**64 / golden ratio, odd: multiplying by it modulo 2**64 scatters
#: consecutive indices across the whole 64-bit range
_FIBONACCI_MULTIPLIER = 0x9E3779B97F4A7C15


def shard_of(index: int, jobs: int) -> int:
    """The worker (``0..jobs-1``) that executes generated case *index*.

    Fibonacci hashing: the index's scrambled 64-bit image, scaled to
    ``jobs`` by its high bits.  The generator emits a function's short and
    10^5-digit ``REPEAT`` cases at adjacent positions, so ``index % jobs``
    would hand nearly all of the expensive tail to one worker; the hash
    scatters runs of neighbours evenly.  Static, so a resumed shard can
    skip the first *k* cases of its slice without any shared state.
    """
    return ((index * _FIBONACCI_MULTIPLIER) % 2**64) * jobs >> 64


@dataclass
class Hooks:
    """What a running stream reports to.

    ``on_finding(finding, position)`` fires for every new oracle finding.
    ``on_beat(position, tally)`` fires every ``every`` positions of the
    share, after any checkpoint due there; a true return value ends the
    share early.  An exception raised by either propagates out of
    :meth:`Campaign.run`.
    """

    on_finding: Optional[Callable[[Finding, int], None]] = None
    on_beat: Optional[Callable[[int, Tally], Optional[bool]]] = None
    every: int = 200


#: what a sharded campaign's seed phase hands its shards: the seeds'
#: observed result types and the containment state
Seeded = Tuple[Dict[str, str], Optional[Dict[str, Any]]]


@dataclass
class Shard:
    """A shard process's share of a campaign (see :func:`run_stream`)."""

    worker: int
    saved: Optional[CampaignCheckpoint]
    seeded: Seeded
    hooks: Hooks


class Stream:
    """One worker's share of a campaign's statement stream, and its state.

    The stream is the seed phase (the regression-suite seeds at positions
    ``0..S-1``) followed by the generated cases (case *i* at position
    ``S + i``), cut at position ``config.budget``.  Every position is
    either executed or skipped by containment, so the cut caps processed
    positions, and serial and sharded runs process the same prefix.

    * Worker 0 of 1 is a serial campaign: it runs the seed phase inline,
      then every generated case.
    * Worker ``None`` of ``jobs > 1`` is a sharded campaign's parent: its
      share is the seed phase only.  The pattern engine needs the seeds'
      observed result types before any generated statement exists, so the
      parent hands those (and its containment state) to every shard.
    * Worker ``w`` of ``jobs > 1`` is a shard: it runs generated case *i*
      iff :func:`shard_of` ``(i, jobs) == w``.  It re-derives the whole
      deterministic stream and skips foreign cases, which costs an
      allocation, not a SQL rendering.

    ``position`` counts the positions of the share processed so far (for
    a serial campaign, the stream position); the first ``skip`` of them
    ran before the checkpoint the share resumed from.  Checkpoints fall
    every ``config.checkpoint_every`` of them; a shard also saves its
    final state, which doubles as its report.
    """

    def __init__(
        self,
        campaign: "Campaign",
        worker: Optional[int],
        saved: Optional[CampaignCheckpoint],
        seeded: Optional[Seeded] = None,
    ) -> None:
        config = self.config = campaign.config
        self.worker = worker
        self.jobs = config.jobs
        self.clock = campaign.clock
        self.pipeline = build_pipeline(campaign.dialect, config.oracles)
        self.runner = build_runner(
            campaign.dialect, config, campaign.injector,
            campaign.clock, campaign.retry_policy,
        )
        self.containment = campaign.containment
        self.seeds = SeedCollector(campaign.dialect).collect()
        self.expected = getattr(campaign.dialect, "bugs", [])
        self.tally = self.runner.tally
        self.return_types: Dict[str, str] = {}
        self.position = 0
        self.quarantined = False
        self.quarantine_reason = ""
        self.started = self.clock.now()
        self.elapsed_offset = 0.0
        key = worker if self.jobs > 1 else None
        self.spec = campaign_spec(config, key)
        self.path = checkpoint_files(config).get(key)
        if seeded is not None:
            return_types, containment_state = seeded
            self.return_types.update(return_types)
            if self.containment is not None and containment_state is not None:
                # a seed statement that killed a worker stays quarantined
                # in every shard
                self.containment.restore_state(containment_state)
        self.skip = 0
        if saved is not None:
            self.skip = restore_progress(
                saved.progress, self.runner, self.pipeline, self.containment
            )
            self.return_types.update(saved.return_types)
            self.elapsed_offset = saved.elapsed_seconds

    def share(self) -> Iterator[Tuple[int, GeneratedCase]]:
        """``(position, case)`` for every position of this share."""
        budget, seeds = self.config.budget, self.seeds
        if self.jobs == 1 or self.worker is None:
            for position, seed in enumerate(seeds[:budget]):
                yield position, GeneratedCase(
                    f"SELECT {seed.sql};",
                    Select([SelectItem(seed.expression)]),
                    "seed", seed.function, seed.family,
                )
            if self.jobs > 1:
                return
        if len(seeds) >= budget:
            return
        engine = PatternEngine(
            seeds,
            max_partners=self.config.max_partners,
            return_types=self.return_types,
            statement_family=self.config.statement_family,
        )
        for index, case in enumerate(engine.generate_all()):
            position = len(seeds) + index
            if position >= budget:
                return
            if self.jobs == 1 or shard_of(index, self.jobs) == self.worker:
                yield position, case

    def elapsed(self) -> float:
        return self.clock.now() - self.started + self.elapsed_offset

    def snapshot(self) -> Dict[str, Any]:
        return progress_snapshot(
            self.runner, self.pipeline, self.containment, self.position
        )

    def save(self) -> None:
        CampaignCheckpoint(
            spec=self.spec,
            progress=self.snapshot(),
            # shards get the seed phase's result types from their parent
            return_types=dict(self.return_types) if self.jobs == 1 else {},
            elapsed_seconds=self.elapsed(),
        ).save(self.path)


def run_stream(
    config: CampaignConfig,
    worker: int,
    saved: Optional[CampaignCheckpoint],
    seeded: Seeded,
    hooks: Hooks,
) -> Stream:
    """Run shard *worker* of ``config.jobs`` in this process, on a
    simulated clock, and return the state of its share (runner closed).

    *saved* is the shard's loaded sidecar to continue from, *seeded* what
    the parent's seed phase observed.  The shard runs through
    :meth:`Campaign.run`, the one stream loop.
    """
    campaign = Campaign(
        dialect_by_name(config.dialect), config=config, clock=SimulatedClock()
    )
    campaign.shard = Shard(worker, saved, seeded, hooks)
    campaign.run()
    return campaign.stream


class Campaign:
    """One SOFT campaign over one dialect.

    The campaign options live in a :class:`~repro.core.config.CampaignConfig`
    passed as ``config=`` (an empty ``config.dialect`` is filled from
    *dialect*).  The ``clock``/``retry_policy`` runtime objects are not
    configuration and remain ordinary constructor arguments.  With
    ``config.jobs > 1`` the generated stream runs in that many shard
    processes (:func:`repro.perf.parallel.run_shards`); the result signs
    like the serial run's.
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
        #: ``on_finding(finding, position)`` fires once for every *new*
        #: oracle finding; ``on_progress(snapshot_dict)`` fires every
        #: ``progress_every`` positions (at every shard beat when sharded)
        self.on_finding = None
        self.on_progress = None
        self.progress_every = 200
        #: set by :func:`run_stream` in a shard process: :meth:`run` then
        #: processes that shard's share instead of the whole campaign
        self.shard: Optional[Shard] = None
        #: the state of the share the last :meth:`run` processed
        self.stream: Optional[Stream] = None

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        """Run the campaign; *resume* continues it from the state saved
        at ``config.checkpoint_path`` (see :func:`load_checkpoints`).

        This is the one stream loop: a serial campaign runs all of the
        stream here, a sharded campaign its seed phase (then it forks its
        shards, whose processes run their shares here too).  The loop
        calls :func:`run_contained` from this very frame, so crash
        backtraces read ``run → run_contained`` in every campaign.
        """
        config, shard = self.config, self.shard
        wall_started = time.monotonic()
        saved = load_checkpoints(config) if resume else {}
        if shard is not None:
            stream = Stream(self, shard.worker, shard.saved, shard.seeded)
            hooks = shard.hooks
        else:
            stream = Stream(self, None if config.parallel else 0, saved.get(None))
            hooks = Hooks(self.on_finding, self._beat, self.progress_every)
        self.stream = stream
        # a resumed parent re-runs its seed phase, whose findings streamed
        # before any of its shards saved a sidecar
        on_finding = None if saved and config.parallel else hooks.on_finding
        runner, pipeline = stream.runner, stream.pipeline
        containment, outcomes = stream.containment, stream.tally.outcomes
        return_types = stream.return_types
        every = config.checkpoint_every if stream.path is not None else 0
        crash = pipeline.get("crash")
        stop_when_found = (
            config.stop_when_all_found and bool(stream.expected) and crash is not None
        )
        try:
            try:
                for position, case in stream.share():
                    if stream.position < stream.skip:
                        stream.position += 1  # processed before the checkpoint
                        continue
                    outcome = run_contained(
                        runner, containment, case.sql, case.seed_family,
                        position, (case.statement,),
                    )
                    outcomes[outcome.kind] = outcomes.get(outcome.kind, 0) + 1
                    found = pipeline.observe(
                        outcome,
                        CaseInfo(case.pattern, case.seed_function, case.seed_family),
                        position,
                    )
                    if on_finding is not None:
                        for finding in found:
                            on_finding(finding, position)
                    if case.pattern == "seed" and outcome.result_type:
                        # orders the pattern engine's partner enumeration
                        return_types.setdefault(
                            case.seed_function, outcome.result_type
                        )
                    # the run's rows are not held while the next one runs
                    del outcome
                    stream.position += 1
                    # a save due here lands before the beat, so a hook that
                    # stops the run (drain, preempt) loses nothing
                    if every and stream.position % every == 0:
                        stream.save()
                    if (
                        hooks.on_beat is not None
                        and hooks.every > 0
                        and stream.position % hooks.every == 0
                        and hooks.on_beat(stream.position, stream.tally)
                    ):
                        break
                    if (
                        stop_when_found
                        and case.pattern != "seed"
                        and crash.recall_against(stream.expected) >= 1.0
                    ):
                        break
            except ServerQuarantined as exc:
                # the in-flight statement never completed; keep the outcome
                # accounting consistent with queries_executed
                stream.tally.executed = max(stream.tally.executed - 1, 0)
                stream.quarantined = True
                stream.quarantine_reason = str(exc)
            reports: List[Dict[str, Any]] = []
            if shard is not None:
                if stream.path is not None:
                    stream.save()
            elif config.parallel and not stream.quarantined and (
                stream.position < config.budget
            ):
                from ..perf.parallel import run_shards  # perf imports this module

                reports = run_shards(stream, saved, hooks)
            return self._result(stream, reports, time.monotonic() - wall_started)
        finally:
            runner.close()

    def _result(
        self, stream: Stream, reports: List[Dict[str, Any]], wall_seconds: float
    ) -> CampaignResult:
        """The result of *stream*'s share merged with the shard *reports*."""
        result = CampaignResult(
            dialect=self.dialect.name,
            seeds_collected=len(stream.seeds),
            quarantined=stream.quarantined,
            quarantine_reason=stream.quarantine_reason,
            wall_seconds=wall_seconds,
        )
        # fold every shard's oracle state into the parent pipeline; each
        # oracle re-sorts its kept records by global stream position and
        # re-deduplicates: the serial loop's first-occurrence order
        try:
            stream.pipeline.merge([report["oracle"] for report in reports])
        except OracleStateError as exc:
            raise CheckpointError(str(exc)) from exc
        for report in reports:
            if report["quarantined"] and not result.quarantined:
                result.quarantined = True
                result.quarantine_reason = report["quarantine_reason"]
        fill_result(
            result, stream.runner, stream.pipeline, stream.containment, reports
        )
        # a sharded campaign's parent kept only its seed phase's time
        result.elapsed_seconds = (
            wall_seconds if stream.worker is None else stream.elapsed()
        )
        return result

    def _beat(self, position: int, tally: Tally) -> None:
        if self.on_progress is not None:
            self.on_progress(
                {"position": position, "budget": self.config.budget,
                 "outcomes": dict(tally.outcomes)}
            )


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
