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
  ``run(resume=...)`` continues a killed campaign deterministically.  The
  resume replays the (deterministic) generation stream, *skipping* the
  first ``executed`` statements without executing them, then verifies the
  campaign RNG state matches the checkpoint before running anything new.
* A server that repeatedly fails to restart is quarantined by the circuit
  breaker: the campaign finalizes what it has (``result.quarantined``)
  instead of aborting, so multi-dialect sweeps degrade gracefully.

Per-fault-class counters are surfaced in ``CampaignResult.outcomes`` under
``fault.*`` keys; the plain outcome kinds (``ok``/``error``/…) still sum to
``queries_executed``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import (
    CampaignCheckpoint,
    CheckpointError,
    rng_state_from_json,
    rng_state_to_json,
)
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import RetryPolicy, ServerQuarantined
from ..robustness.sandbox import ContainmentState
from ..robustness.watchdog import Clock, SimulatedClock, WallClock, Watchdog
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


def add_counts(into: Dict[str, int], counts: Dict[str, int]) -> None:
    for kind, count in counts.items():
        into[kind] = into.get(kind, 0) + count


def fill_result(
    result: CampaignResult,
    pipeline: OraclePipeline,
    fault_counters: Dict[str, int],
    containment: Optional[ContainmentState],
) -> None:
    """Copy the oracle verdicts, the fault counters (also as ``fault.*``
    outcomes) and the containment summary into *result*."""
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
        result.sandbox_active = True
        result.open_breakers = containment.open_breakers
        result.quarantined_statements = len(containment.quarantine)
        result.skipped_statements = containment.skipped


class Campaign:
    """One SOFT campaign over one dialect.

    The campaign options live in a :class:`~repro.core.config.CampaignConfig`
    passed as ``config=`` (an empty ``config.dialect`` is filled from
    *dialect*).  The ``clock``/``rng``/``retry_policy`` runtime objects are
    not configuration and remain ordinary constructor arguments.
    """

    def __init__(
        self,
        dialect: Dialect,
        config: Optional[CampaignConfig] = None,
        clock: Optional[Clock] = None,
        rng: Optional[random.Random] = None,
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
        self.rng = rng if rng is not None else random.Random(config.seed)
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
    def run(
        self, resume: Union[None, str, CampaignCheckpoint] = None
    ) -> CampaignResult:
        config = self.config
        cp: Optional[CampaignCheckpoint] = None
        if resume is not None:
            cp = (
                resume
                if isinstance(resume, CampaignCheckpoint)
                else CampaignCheckpoint.load(resume)
            )
            cp.validate_for(
                self.dialect.name,
                config.seed,
                config.budget,
                config.max_partners,
                config.enable_coverage,
            )
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

        collector = SeedCollector(self.dialect)
        seeds = collector.collect()
        result.seeds_collected = len(seeds)

        skip = 0
        return_types: Dict[str, str] = {}
        rng_verified = cp is None
        if cp is not None:
            # stream_position counts containment skips too; older
            # checkpoints (no skipped statements possible) fall back to
            # the executed count
            skip = (
                cp.stream_position
                if cp.stream_position is not None
                else cp.executed
            )
            return_types = self._restore(cp, runner, pipeline, result)

        position = 0
        try:
            # step 0: replay the regression-suite seeds, observing each
            # function's result type (used to order partner enumeration)
            for seed_obj in seeds:
                if position < skip:
                    position += 1  # executed before the checkpoint
                    continue
                if self._processed(runner) >= config.budget:
                    break
                sql = f"SELECT {seed_obj.sql};"
                case = CaseInfo("seed", seed_obj.function, seed_obj.family)
                outcome = run_contained(
                    runner, self.containment, sql, seed_obj.family, position
                )
                self._record(result, pipeline, outcome, case, position)
                if outcome.result_type and seed_obj.function not in return_types:
                    return_types[seed_obj.function] = outcome.result_type
                position += 1
                self._maybe_checkpoint(
                    runner, pipeline, result, return_types, position
                )

            # the campaign RNG is first consumed by the pattern engine; if
            # the skip ended inside the seed phase it must still be pristine
            if not rng_verified and position >= skip:
                self._verify_rng(cp)
                rng_verified = True

            engine = PatternEngine(
                seeds,
                rng=self.rng,
                max_partners=config.max_partners,
                return_types=return_types,
                statement_family=config.statement_family,
            )
            for case in engine.generate_all():
                if position < skip:
                    position += 1  # re-generated, already executed: skip
                    continue
                if not rng_verified:
                    self._verify_rng(cp)
                    rng_verified = True
                if self._processed(runner) >= config.budget:
                    break
                info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
                outcome = run_contained(
                    runner, self.containment, case.sql, case.seed_family, position
                )
                self._record(result, pipeline, outcome, info, position)
                position += 1
                if (
                    config.stop_when_all_found
                    and expected
                    and crash_oracle is not None
                    and crash_oracle.recall_against(expected) >= 1.0
                ):
                    break
                self._maybe_checkpoint(
                    runner, pipeline, result, return_types, position
                )
        except ServerQuarantined as exc:
            # the in-flight statement never completed; keep the outcome
            # accounting consistent with queries_executed
            runner.executed = max(runner.executed - 1, 0)
            result.quarantined = True
            result.quarantine_reason = str(exc)

        return self._finalize(result, runner, pipeline)

    # ------------------------------------------------------------------
    def _processed(self, runner: Runner) -> int:
        """Stream positions consumed so far: executions plus containment
        skips.  The budget caps *processed* positions, so a skipped
        statement spends its slot — this keeps serial and sharded runs on
        exactly the same stream prefix (a shard cannot know how many
        statements its siblings skipped).  Without containment this is
        just ``runner.executed``, i.e. the historical behaviour.
        """
        skipped = self.containment.skipped if self.containment is not None else 0
        return runner.executed + skipped

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
        if (
            self.on_progress is not None
            and self.progress_every > 0
            and (position + 1) % self.progress_every == 0
        ):
            self.on_progress(
                {
                    "position": position + 1,
                    "budget": self.config.budget,
                    "outcomes": dict(result.outcomes),
                }
            )

    def _finalize(
        self, result: CampaignResult, runner: Runner, pipeline: OraclePipeline
    ) -> CampaignResult:
        result.queries_executed = runner.executed
        result.triggered_functions = runner.triggered_functions
        result.branch_coverage = runner.branch_coverage
        fault_counters: Dict[str, int] = dict(runner.fault_counters)
        if self.injector is not None:
            add_counts(fault_counters, self.injector.counters)
        fill_result(result, pipeline, fault_counters, self.containment)
        result.elapsed_seconds = (
            self.clock.now() - self._started
        ) + self._elapsed_offset
        result.wall_seconds = time.monotonic() - self._wall_started
        if self.containment is not None and runner.sandbox is not None:
            result.sandbox_kills = runner.sandbox.kills
            result.sandbox_worker_deaths = runner.sandbox.worker_deaths
            result.sandbox_respawns = runner.sandbox.respawns
        runner.close()
        return result

    # ------------------------------------------------------------------
    # checkpoint/resume plumbing
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
        self._capture(runner, pipeline, result, return_types, position).save(path)

    def _capture(
        self,
        runner: Runner,
        pipeline: OraclePipeline,
        result: CampaignResult,
        return_types: Dict[str, str],
        position: int,
    ) -> CampaignCheckpoint:
        coverage_arcs: List[list] = []
        coverage_lines: List[list] = []
        if runner.coverage is not None:
            coverage_arcs = [list(arc) for arc in sorted(runner.coverage.arcs)]
            coverage_lines = [list(line) for line in sorted(runner.coverage.lines)]
        sandbox_state = None
        if self.containment is not None and runner.sandbox is not None:
            sandbox_state = {
                "containment": self.containment.export_state(),
                "kills": runner.sandbox.kills,
                "worker_deaths": runner.sandbox.worker_deaths,
                "respawns": runner.sandbox.respawns,
            }
        return CampaignCheckpoint(
            dialect=self.dialect.name,
            seed=self.config.seed,
            budget=self.config.budget,
            max_partners=self.config.max_partners,
            enable_coverage=self.config.enable_coverage,
            executed=runner.executed,
            restarts=runner.restarts,
            timeouts=runner.timeouts,
            flaky_crashes=runner.flaky_crashes,
            seeds_collected=result.seeds_collected,
            outcomes=dict(result.outcomes),
            fault_counters=dict(runner.fault_counters),
            return_types=dict(return_types),
            oracle=pipeline.export_state(),
            rng_state=rng_state_to_json(self.rng.getstate()),
            ctx_rng_state=rng_state_to_json(runner.server.ctx.rng.getstate()),
            injector=self.injector.state() if self.injector is not None else None,
            triggered_functions=sorted(runner.server.ctx.triggered_functions),
            stats=dict(runner.server.ctx.stats),
            coverage_arcs=coverage_arcs,
            coverage_lines=coverage_lines,
            elapsed_seconds=(self.clock.now() - self._started)
            + self._elapsed_offset,
            stream_position=position,
            sandbox=sandbox_state,
        )

    def _restore(
        self,
        cp: CampaignCheckpoint,
        runner: Runner,
        pipeline: OraclePipeline,
        result: CampaignResult,
    ) -> Dict[str, str]:
        runner.executed = cp.executed
        runner.restarts = cp.restarts
        runner.timeouts = cp.timeouts
        runner.flaky_crashes = cp.flaky_crashes
        runner.fault_counters = dict(cp.fault_counters)
        try:
            pipeline.restore_state(cp.oracle)
        except OracleStateError as exc:
            raise CheckpointError(str(exc)) from exc
        result.outcomes = dict(cp.outcomes)
        if self.injector is not None and cp.injector is not None:
            self.injector.restore_state(cp.injector)
        ctx = runner.server.ctx
        ctx.triggered_functions |= set(cp.triggered_functions)
        ctx.stats.update(cp.stats)
        if cp.ctx_rng_state is not None:
            ctx.rng.setstate(rng_state_from_json(cp.ctx_rng_state))
        if runner.coverage is not None:
            runner.coverage.arcs |= {tuple(arc) for arc in cp.coverage_arcs}
            runner.coverage.lines |= {tuple(line) for line in cp.coverage_lines}
        if cp.sandbox is not None and self.containment is not None:
            self.containment.restore_state(cp.sandbox["containment"])
            if runner.sandbox is not None:
                runner.sandbox.kills = cp.sandbox["kills"]
                runner.sandbox.worker_deaths = cp.sandbox["worker_deaths"]
                runner.sandbox.respawns = cp.sandbox["respawns"]
        self._elapsed_offset = cp.elapsed_seconds
        return dict(cp.return_types)

    def _verify_rng(self, cp: Optional[CampaignCheckpoint]) -> None:
        if cp is None or cp.rng_state is None:
            return
        current = rng_state_to_json(self.rng.getstate())
        if current != cp.rng_state:
            raise CheckpointError(
                "deterministic replay diverged: the campaign RNG state after "
                "skipping does not match the checkpoint (was the checkpoint "
                "written by a different code version or configuration?)"
            )


def run_campaign(
    dialect_name: Optional[str] = None,
    *,
    resume: Union[None, str, CampaignCheckpoint] = None,
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
