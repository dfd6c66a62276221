"""Sharded multi-process campaigns (``--jobs N``).

The paper's evaluation is embarrassingly parallel: each of the "24 hours
per DBMS" campaigns executes an enormous stream of *independent* SELECT
statements.  :class:`ParallelCampaign` exploits that while preserving the
serial campaign's exact observable result — ``CampaignResult.signature()``
of a ``jobs=N`` run equals the serial run's, faults on or off.

Architecture (see DESIGN.md for the full determinism argument):

* The **parent** replays the seed phase itself (positions ``0..S-1``) —
  it is cheap, and the pattern engine needs the observed seed return
  types before any generated statement can exist.
* The generated stream is sharded **round-robin by pattern index**:
  worker ``w`` of ``N`` executes generated case ``i`` iff
  ``i % N == w``.  Every worker re-derives the full deterministic stream
  (seed collection is pure, generation is seeded) and skips foreign
  cases — skipping is an allocation, not work, because
  :class:`~repro.core.patterns.GeneratedCase` renders SQL lazily.
* Statement behaviour is **history-independent** by construction
  (per-statement engine RNG reseed, position-keyed fault streams), so a
  worker executing the sub-stream ``w, w+N, w+2N, …`` observes exactly
  the outcomes the serial run observes at those positions.
* Each worker runs its own full :class:`~repro.core.oracles.OraclePipeline`
  over its slice and ships the pipeline's exported state in its plain-dict
  **shard report** (alongside outcome counts, triggered functions,
  coverage sets, cache and fault counters).  The parent folds the shard
  states into its own pipeline via ``Oracle.merge``, which re-sorts every
  oracle's kept records by global stream position and re-deduplicates —
  the same first-occurrence order as the serial loop, so the merged
  findings match a serial run record for record.
* **Bulky payloads never ride the pickle channel.**  The parent exports
  its seed-phase statement cache as a template-factored warm corpus that
  every worker imports before touching its stream, and each worker
  returns its shard report as a packed value tree on disk — the
  multiprocessing channel carries scalar arguments and fixed-size path
  envelopes only (:mod:`repro.perf.transport`).

Checkpoint/resume: each worker writes its own sidecar checkpoint
(``<path>.shard<w>``) carrying its pipeline state.  On resume the parent
re-runs its cheap seed phase from scratch (sound: statements are
history-independent and fault draws are position-keyed) and each worker
skips the prefix of its shard it already executed.  No RNG state needs to
be carried at all.

Known semantic divergence: a server quarantine aborts only the shard that
hit it, so a quarantined parallel run may have executed statements a
serial run would not have reached (and vice versa).  Quarantine requires
``CircuitBreaker.failure_threshold`` *consecutive* restart failures drawn
from a single position's fault stream — at realistic fault rates the
probability is negligible, and the merged report still flags
``quarantined=True``.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import random
import tempfile
import time
from typing import Any, Dict, List, Optional, Union

from ..core.campaign import CampaignResult
from ..core.config import CampaignConfig, fault_spec
from ..core.collect import SeedCollector
from ..core.oracles import CaseInfo, OraclePipeline, OracleStateError, build_pipeline
from ..core.patterns import PatternEngine
from ..core.runner import Outcome, Runner
from ..core.tables import TABLE_SETUP
from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import CHECKPOINT_VERSION, CheckpointError
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import ServerQuarantined
from ..robustness.sandbox import ContainmentState, SandboxConfig
from ..robustness.watchdog import SimulatedClock, Watchdog
from .transport import (
    TransportStats,
    pack_statements,
    read_packed,
    transport_stats,
    unpack_statements,
    write_packed,
)


#: sidecar layout version: bumped when the shard report/checkpoint schema
#: changes (v2 replaced the replayed-observation list with per-shard oracle
#: pipeline state); old sidecars are refused with a CheckpointError
SHARD_FORMAT_VERSION = 2


def _shard_checkpoint_path(path: str, worker: int) -> str:
    return f"{path}.shard{worker}"


def _run_shard(
    dialect_name: str,
    worker: int,
    jobs: int,
    seed: int,
    budget: int,
    seed_count: int,
    return_types: Dict[str, str],
    max_partners: int,
    enable_coverage: bool,
    faults_spec: Optional[str],
    fault_seed: int,
    statement_deadline: float,
    statement_cache: bool,
    checkpoint_path: Optional[str],
    checkpoint_every: int,
    resume: bool,
    oracle_names: tuple = ("crash",),
    stop_after: Optional[int] = None,
    budgets_spec: Optional[str] = None,
    sandbox_config: Optional[SandboxConfig] = None,
    containment_seed: Optional[Dict[str, Any]] = None,
    compile_plans: bool = True,
    warm_corpus_path: Optional[str] = None,
    transport_dir: Optional[str] = None,
    statement_family: str = "expression",
) -> Dict[str, Any]:
    """Execute one worker's share of the generated stream.

    Runs in a child process (or inline for ``jobs=1``).  The pickle
    channel carries only this call's scalar arguments and a tiny path
    envelope back: the warm statement corpus arrives template-factored at
    ``warm_corpus_path`` and, when ``transport_dir`` is set, the shard
    report leaves as a packed value tree on disk (see
    :mod:`repro.perf.transport`).  ``stop_after`` caps how many
    statements this shard executes before returning early — a test hook
    that simulates a mid-campaign kill for resume testing.
    """
    dialect = dialect_by_name(dialect_name)
    # pipeline before runner: logic-flaw installation must precede server
    # construction, exactly as in the serial campaign
    pipeline = build_pipeline(dialect, oracle_names)
    clock = SimulatedClock()
    injector = make_fault_injector(faults_spec, seed=fault_seed, clock=clock)
    runner = Runner(
        dialect,
        enable_coverage=enable_coverage,
        faults=injector,
        clock=clock,
        watchdog=Watchdog(clock, deadline_seconds=statement_deadline),
        statement_cache=statement_cache,
        budgets=budgets_spec,
        sandbox=sandbox_config,
        compile_plans=compile_plans,
        bootstrap_sql=TABLE_SETUP if statement_family == "predicate" else (),
    )
    runner.capture_fingerprints = pipeline.needs_fingerprints
    cache = runner.server.stmt_cache
    if warm_corpus_path is not None and cache is not None and runner.sandbox is None:
        # inherit the parent's warmed template cache: every statement the
        # seed phase parsed enters this worker's cache pre-parsed and
        # pre-optimized, so the shard's stream starts on the hit path.
        # Warming is behaviour-neutral — it populates cache tiers the
        # stream would have populated on first miss anyway.
        with open(warm_corpus_path, "rb") as fh:
            warm_sql = unpack_statements(fh.read())
        for sql in warm_sql:
            cache.warm(dialect.name, sql, runner.server.ctx)
    containment: Optional[ContainmentState] = None
    if sandbox_config is not None:
        containment = ContainmentState.from_config(sandbox_config)
        if containment_seed is not None:
            # containment built up during the parent's seed phase carries
            # over: a seed statement that killed a worker stays quarantined
            # in every shard
            containment.restore_state(containment_seed)
            # ...but the parent's skip count is accounted parent-side;
            # this shard reports only its own skips
            containment.skipped = 0
    # the engine rng is seeded but never consumed by generation; passing a
    # fresh Random(seed) in every process keeps the constructor contract
    engine = PatternEngine(
        SeedCollector(dialect).collect(),
        rng=random.Random(seed),
        max_partners=max_partners,
        return_types=dict(return_types),
        statement_family=statement_family,
    )

    skip_in_shard = 0
    shard_executed = 0
    outcome_counts: Dict[str, int] = {}
    if resume and checkpoint_path is not None:
        state = _load_shard_checkpoint(
            _shard_checkpoint_path(checkpoint_path, worker),
            dialect_name, seed, budget, max_partners,
            enable_coverage, jobs, worker, oracle_names,
            budgets_spec, sandbox_config,
            compile_plans=compile_plans,
            statement_family=statement_family,
        )
        if state is not None:
            # processed counts containment skips too; sidecars written
            # before the sandbox existed only have the executed count
            skip_in_shard = state.get("shard_processed", state["shard_executed"])
            shard_executed = state["shard_executed"]
            outcome_counts = dict(state["outcomes"])
            try:
                pipeline.restore_state(state["oracle_state"])
            except OracleStateError as exc:
                raise CheckpointError(str(exc)) from exc
            runner.fault_counters = dict(state["fault_counters"])
            runner.server.ctx.triggered_functions |= set(state["triggered"])
            if runner.coverage is not None:
                runner.coverage.arcs |= {tuple(a) for a in state["coverage_arcs"]}
                runner.coverage.lines |= {tuple(l) for l in state["coverage_lines"]}
            sandbox_state = state.get("sandbox")
            if sandbox_state is not None and containment is not None:
                containment.restore_state(sandbox_state["containment"])
                if runner.sandbox is not None:
                    runner.sandbox.kills = sandbox_state["kills"]
                    runner.sandbox.worker_deaths = sandbox_state["worker_deaths"]
                    runner.sandbox.respawns = sandbox_state["respawns"]

    generated_budget = max(budget - seed_count, 0)
    shard_processed = 0
    executed_this_run = 0
    quarantined = False
    quarantine_reason = ""
    wall_started = time.monotonic()

    def sandbox_report() -> Optional[Dict[str, Any]]:
        if containment is None:
            return None
        return {
            "containment": containment.export_state(),
            "kills": runner.sandbox.kills if runner.sandbox else 0,
            "worker_deaths": runner.sandbox.worker_deaths if runner.sandbox else 0,
            "respawns": runner.sandbox.respawns if runner.sandbox else 0,
        }

    def maybe_checkpoint() -> None:
        if checkpoint_path is None or checkpoint_every <= 0:
            return
        if shard_processed == 0 or shard_processed % checkpoint_every:
            return
        _save_shard_checkpoint(
            _shard_checkpoint_path(checkpoint_path, worker),
            dialect_name, seed, budget, max_partners, enable_coverage,
            jobs, worker, oracle_names, shard_executed, pipeline,
            outcome_counts, runner, shard_processed, sandbox_report(),
            budgets_spec, sandbox_config,
            compile_plans=compile_plans,
            statement_family=statement_family,
        )

    try:
        for index, case in enumerate(engine.generate_all()):
            if index >= generated_budget:
                break
            if index % jobs != worker:
                continue  # lazy case: skipping costs no SQL rendering
            if shard_processed < skip_in_shard:
                shard_processed += 1
                continue
            position = seed_count + index
            info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
            if containment is not None:
                reason = containment.should_skip(case.sql, case.seed_family)
                if reason is not None:
                    containment.note_skip()
                    outcome_counts["skipped"] = outcome_counts.get("skipped", 0) + 1
                    pipeline.observe(
                        Outcome("skipped", case.sql, message=reason),
                        info, position,
                    )
                    shard_processed += 1
                    maybe_checkpoint()
                    continue
            outcome = runner.run(case.sql, position=position)
            if containment is not None:
                containment.observe(
                    outcome.kind, case.sql, case.seed_family, outcome.message
                )
            outcome_counts[outcome.kind] = outcome_counts.get(outcome.kind, 0) + 1
            pipeline.observe(outcome, info, position)
            shard_processed += 1
            shard_executed += 1
            executed_this_run += 1
            maybe_checkpoint()
            if stop_after is not None and executed_this_run >= stop_after:
                break
    except ServerQuarantined as exc:
        shard_processed = max(shard_processed - 1, 0)
        shard_executed = max(shard_executed - 1, 0)
        quarantined = True
        quarantine_reason = str(exc)

    report: Dict[str, Any] = {
        "worker": worker,
        "shard_executed": shard_executed,
        "outcomes": outcome_counts,
        "oracle_state": pipeline.export_state(),
        "fault_counters": dict(runner.fault_counters),
        "injector_counters": dict(injector.counters) if injector is not None else {},
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": [list(a) for a in runner.coverage.arcs]
        if runner.coverage is not None
        else [],
        "coverage_lines": [list(l) for l in runner.coverage.lines]
        if runner.coverage is not None
        else [],
        "cache_hits": runner.cache_hits,
        "cache_misses": runner.cache_misses,
        "compiled_executions": runner.compiled_executions,
        "compile_fallbacks": runner.compile_fallbacks,
        "restarts": runner.restarts,
        "timeouts": runner.timeouts,
        "flaky_crashes": runner.flaky_crashes,
        "quarantined": quarantined,
        "quarantine_reason": quarantine_reason,
        "wall_seconds": time.monotonic() - wall_started,
        "shard_processed": shard_processed,
        "sandbox": sandbox_report(),
    }
    if checkpoint_path is not None:
        _save_shard_checkpoint(
            _shard_checkpoint_path(checkpoint_path, worker),
            dialect_name, seed, budget, max_partners, enable_coverage,
            jobs, worker, oracle_names, shard_executed, pipeline,
            outcome_counts, runner, shard_processed, sandbox_report(),
            budgets_spec, sandbox_config,
            compile_plans=compile_plans,
            statement_family=statement_family,
        )
    runner.close()
    if transport_dir is not None:
        # ship the report as a packed value tree; the pickle channel only
        # ever carries this fixed-size envelope
        packed_path = os.path.join(transport_dir, f"shard{worker}.report")
        write_packed(packed_path, report)
        return {"worker": worker, "packed_path": packed_path}
    return report


# ----------------------------------------------------------------------
# per-shard sidecar checkpoints
# ----------------------------------------------------------------------
def _shard_spec(
    dialect: str, seed: int, budget: int, max_partners: int,
    enable_coverage: bool, jobs: int, worker: int,
    oracle_names: tuple,
    budgets_spec: Optional[str] = None,
    sandbox_config: Optional[SandboxConfig] = None,
    compile_plans: bool = True,
    statement_family: str = "expression",
) -> Dict[str, Any]:
    spec = {
        "version": CHECKPOINT_VERSION,
        "shard_format": SHARD_FORMAT_VERSION,
        "dialect": dialect,
        "seed": seed,
        "budget": budget,
        "max_partners": max_partners,
        "enable_coverage": enable_coverage,
        "jobs": jobs,
        "worker": worker,
        "oracles": list(oracle_names),
    }
    # only non-default governance/sandbox settings enter the spec, so
    # sidecars written before this layer existed still match default runs
    if budgets_spec:
        spec["budgets"] = budgets_spec
    if sandbox_config is not None:
        spec["sandbox"] = {
            "wall_deadline_seconds": sandbox_config.wall_deadline_seconds,
            "breaker_threshold": sandbox_config.breaker_threshold,
            "quarantine": list(sandbox_config.quarantine),
            "max_message_bytes": sandbox_config.max_message_bytes,
        }
    if not compile_plans:
        spec["compile"] = False
    if statement_family != "expression":
        spec["statement_family"] = statement_family
    return spec


def _save_shard_checkpoint(
    path: str,
    dialect: str, seed: int, budget: int, max_partners: int,
    enable_coverage: bool, jobs: int, worker: int,
    oracle_names: tuple,
    shard_executed: int,
    pipeline: OraclePipeline,
    outcomes: Dict[str, int],
    runner: Runner,
    shard_processed: Optional[int] = None,
    sandbox_state: Optional[Dict[str, Any]] = None,
    budgets_spec: Optional[str] = None,
    sandbox_config: Optional[SandboxConfig] = None,
    compile_plans: bool = True,
    statement_family: str = "expression",
) -> None:
    payload = {
        "spec": _shard_spec(
            dialect, seed, budget, max_partners, enable_coverage, jobs,
            worker, oracle_names, budgets_spec, sandbox_config,
            compile_plans, statement_family,
        ),
        "shard_executed": shard_executed,
        "shard_processed": (
            shard_processed if shard_processed is not None else shard_executed
        ),
        "sandbox": sandbox_state,
        "oracle_state": pipeline.export_state(),
        "outcomes": outcomes,
        "fault_counters": dict(runner.fault_counters),
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": [list(a) for a in runner.coverage.arcs]
        if runner.coverage is not None
        else [],
        "coverage_lines": [list(l) for l in runner.coverage.lines]
        if runner.coverage is not None
        else [],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _load_shard_checkpoint(
    path: str,
    dialect: str, seed: int, budget: int, max_partners: int,
    enable_coverage: bool, jobs: int, worker: int,
    oracle_names: tuple,
    budgets_spec: Optional[str] = None,
    sandbox_config: Optional[SandboxConfig] = None,
    compile_plans: bool = True,
    statement_family: str = "expression",
) -> Optional[Dict[str, Any]]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    expected = _shard_spec(
        dialect, seed, budget, max_partners, enable_coverage, jobs, worker,
        oracle_names, budgets_spec, sandbox_config, compile_plans,
        statement_family,
    )
    if payload.get("spec") != expected:
        raise CheckpointError(
            f"shard checkpoint {path!r} was written for a different campaign "
            f"configuration ({payload.get('spec')!r} != {expected!r})"
        )
    return payload


# ----------------------------------------------------------------------
# the parallel campaign
# ----------------------------------------------------------------------
class ParallelCampaign:
    """Shards one campaign's generated stream across worker processes.

    Takes a :class:`~repro.core.config.CampaignConfig` like
    :class:`~repro.core.campaign.Campaign`; without one it runs two
    workers with default options.  ``faults`` must be ``None`` or a
    CLI spec string (injectors don't cross process boundaries);
    ``stop_when_all_found`` is unsupported (its early exit depends on
    cross-shard execution order).
    """

    def __init__(
        self,
        dialect: Union[Dialect, str, None] = None,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        dialect_name = dialect.name if isinstance(dialect, Dialect) else (dialect or "")
        if config is None:
            # a sharded campaign defaults to two workers
            config = CampaignConfig(dialect=dialect_name, jobs=2)
        elif not isinstance(config, CampaignConfig):
            raise TypeError(
                f"ParallelCampaign config= expects a CampaignConfig, "
                f"got {config!r}"
            )
        elif dialect_name and not config.dialect:
            config = config.replace(dialect=dialect_name)
        if isinstance(config.faults, FaultInjector):
            raise TypeError(
                "ParallelCampaign needs a fault *spec* (string/FaultPlan), "
                "not a FaultInjector: each worker builds its own injector"
            )
        self.config = config
        self.sandbox_config = config.sandbox
        self.budgets_spec = (
            config.budgets.to_spec()
            if config.budgets is not None and config.budgets.enabled
            else None
        )
        if isinstance(dialect, Dialect):
            self.dialect = dialect
        else:
            if not config.dialect:
                raise ValueError(
                    "ParallelCampaign needs a dialect (or config.dialect)"
                )
            self.dialect = dialect_by_name(config.dialect)
        self.jobs = config.jobs
        self.budget = config.budget
        self.enable_coverage = config.enable_coverage
        self.seed = config.seed
        self.max_partners = config.max_partners
        self.faults_spec = fault_spec(config.faults)
        self.fault_seed = config.fault_seed
        self.checkpoint_path = config.checkpoint_path
        self.checkpoint_every = config.checkpoint_every
        self.statement_deadline = config.statement_deadline
        self.statement_cache = config.statement_cache
        self.compile_plans = config.compile
        self.oracle_names = config.oracles
        self.statement_family = config.statement_family
        #: statement-transport measurement from the last run's warm-corpus
        #: handoff (None when nothing was shipped)
        self.last_transport: Optional[TransportStats] = None
        #: test hook — see ``_run_shard``'s ``stop_after``
        self._stop_after: Optional[int] = None

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        wall_started = time.monotonic()
        # ---- parent: seed phase (positions 0..S-1) -------------------
        # pipeline before runner: logic-flaw installation must precede
        # server construction, exactly as in the serial campaign
        pipeline = build_pipeline(self.dialect, self.oracle_names)
        clock = SimulatedClock()
        injector = make_fault_injector(
            self.faults_spec, seed=self.fault_seed, clock=clock
        )
        runner = Runner(
            self.dialect,
            enable_coverage=self.enable_coverage,
            faults=injector,
            clock=clock,
            watchdog=Watchdog(clock, deadline_seconds=self.statement_deadline),
            statement_cache=self.statement_cache,
            budgets=self.budgets_spec,
            sandbox=self.sandbox_config,
            compile_plans=self.compile_plans,
            bootstrap_sql=(
                TABLE_SETUP if self.statement_family == "predicate" else ()
            ),
        )
        runner.capture_fingerprints = pipeline.needs_fingerprints
        containment: Optional[ContainmentState] = (
            ContainmentState.from_config(self.sandbox_config)
            if self.sandbox_config is not None
            else None
        )
        result = CampaignResult(dialect=self.dialect.name)
        seeds = SeedCollector(self.dialect).collect()
        result.seeds_collected = len(seeds)

        return_types: Dict[str, str] = {}
        position = 0
        quarantined = False
        quarantine_reason = ""
        try:
            for seed_obj in seeds:
                if position >= self.budget:
                    break
                sql = f"SELECT {seed_obj.sql};"
                info = CaseInfo("seed", seed_obj.function, seed_obj.family)
                if containment is not None:
                    reason = containment.should_skip(sql, seed_obj.family)
                    if reason is not None:
                        containment.note_skip()
                        result.outcomes["skipped"] = (
                            result.outcomes.get("skipped", 0) + 1
                        )
                        pipeline.observe(
                            Outcome("skipped", sql, message=reason),
                            info, position,
                        )
                        position += 1
                        continue
                outcome = runner.run(sql, position=position)
                if containment is not None:
                    containment.observe(
                        outcome.kind, sql, seed_obj.family, outcome.message
                    )
                result.outcomes[outcome.kind] = (
                    result.outcomes.get(outcome.kind, 0) + 1
                )
                pipeline.observe(outcome, info, position)
                if outcome.result_type and seed_obj.function not in return_types:
                    return_types[seed_obj.function] = outcome.result_type
                position += 1
        except ServerQuarantined as exc:
            runner.executed = max(runner.executed - 1, 0)
            position = runner.executed
            quarantined = True
            quarantine_reason = str(exc)

        seed_count = position

        # ---- fan out the generated stream ----------------------------
        reports: List[Dict[str, Any]] = []
        self.last_transport = None
        if not quarantined and seed_count < self.budget:
            containment_seed = (
                containment.export_state() if containment is not None else None
            )
            # everything bulky crosses the process boundary through the
            # byte-level transport in this directory: the warm corpus in,
            # the packed shard reports out (see repro.perf.transport)
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tdir:
                warm_corpus_path: Optional[str] = None
                parent_cache = runner.server.stmt_cache
                if runner.sandbox is None and parent_cache is not None:
                    warm_sql = parent_cache.export_warm_sql(self.dialect.name)
                    if warm_sql:
                        warm_corpus_path = os.path.join(tdir, "warm.stmt")
                        with open(warm_corpus_path, "wb") as fh:
                            fh.write(pack_statements(warm_sql))
                        self.last_transport = transport_stats(warm_sql)
                shard_args = [
                    (
                        self.dialect.name, worker, self.jobs, self.seed,
                        self.budget, seed_count, return_types, self.max_partners,
                        self.enable_coverage, self.faults_spec, self.fault_seed,
                        self.statement_deadline, self.statement_cache,
                        self.checkpoint_path, self.checkpoint_every, resume,
                        self.oracle_names, self._stop_after,
                        self.budgets_spec, self.sandbox_config, containment_seed,
                        self.compile_plans, warm_corpus_path, tdir,
                        self.statement_family,
                    )
                    for worker in range(self.jobs)
                ]
                if self.jobs == 1:
                    reports = [_run_shard(*shard_args[0])]
                else:
                    ctx = multiprocessing.get_context(
                        "fork" if "fork" in multiprocessing.get_all_start_methods()
                        else "spawn"
                    )
                    if self.sandbox_config is not None:
                        # Pool workers are daemonic and may not spawn the
                        # sandbox's own subprocess children; ProcessPoolExecutor
                        # workers are not, so sandboxed shards go through it.
                        with concurrent.futures.ProcessPoolExecutor(
                            max_workers=self.jobs, mp_context=ctx
                        ) as executor:
                            futures = [
                                executor.submit(_run_shard, *spec)
                                for spec in shard_args
                            ]
                            reports = [future.result() for future in futures]
                    else:
                        with ctx.Pool(processes=self.jobs) as pool:
                            reports = pool.starmap(_run_shard, shard_args)
                # inflate the path envelopes while the directory still exists
                reports = [
                    read_packed(report["packed_path"])
                    if "packed_path" in report
                    else report
                    for report in reports
                ]

        # ---- merge ----------------------------------------------------
        merged = self._merge(
            result, runner, pipeline, injector, seed_count,
            reports, quarantined, quarantine_reason, wall_started,
            containment,
        )
        runner.close()
        return merged

    # ------------------------------------------------------------------
    def _merge(
        self,
        result: CampaignResult,
        seed_runner: Runner,
        pipeline: OraclePipeline,
        seed_injector: Optional[FaultInjector],
        seed_count: int,
        reports: List[Dict[str, Any]],
        quarantined: bool,
        quarantine_reason: str,
        wall_started: float,
        containment: Optional[ContainmentState] = None,
    ) -> CampaignResult:
        # fold every shard's oracle state into the parent pipeline; each
        # oracle re-sorts its kept records by global stream position and
        # re-deduplicates — the exact first-occurrence order the serial
        # loop would have used, statement for statement
        try:
            pipeline.merge([report["oracle_state"] for report in reports])
        except OracleStateError as exc:
            raise CheckpointError(str(exc)) from exc

        # the seed phase's executed count (containment skips advance the
        # position but never reach the runner)
        executed = seed_runner.executed
        triggered = set(seed_runner.server.ctx.triggered_functions)
        arcs = set(seed_runner.coverage.arcs) if seed_runner.coverage else set()
        lines = set(seed_runner.coverage.lines) if seed_runner.coverage else set()
        fault_counters: Dict[str, int] = dict(seed_runner.fault_counters)
        if seed_injector is not None:
            for kind, count in seed_injector.counters.items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
        cache_hits = seed_runner.cache_hits
        cache_misses = seed_runner.cache_misses
        compiled_executions = seed_runner.compiled_executions
        compile_fallbacks = seed_runner.compile_fallbacks
        for report in reports:
            executed += report["shard_executed"]
            triggered |= set(report["triggered"])
            arcs |= {tuple(a) for a in report["coverage_arcs"]}
            lines |= {tuple(l) for l in report["coverage_lines"]}
            for kind, count in report["outcomes"].items():
                result.outcomes[kind] = result.outcomes.get(kind, 0) + count
            for kind, count in report["fault_counters"].items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
            for kind, count in report["injector_counters"].items():
                fault_counters[kind] = fault_counters.get(kind, 0) + count
            cache_hits += report["cache_hits"]
            cache_misses += report["cache_misses"]
            compiled_executions += report.get("compiled_executions", 0)
            compile_fallbacks += report.get("compile_fallbacks", 0)
            if report["quarantined"]:
                quarantined = True
                quarantine_reason = quarantine_reason or report["quarantine_reason"]

        result.queries_executed = executed
        crash = pipeline.get("crash")
        if crash is not None:
            result.bugs = list(crash.bugs)
            result.false_positives = list(crash.false_positives)
            result.flaky_signals = list(crash.flaky_signals)
        result.findings = pipeline.extra_findings()
        result.triggered_functions = triggered
        result.branch_coverage = len(arcs)
        result.fault_counters = fault_counters
        for kind, count in sorted(fault_counters.items()):
            result.outcomes[f"fault.{kind}"] = count
        result.quarantined = quarantined
        result.quarantine_reason = quarantine_reason
        result.cache_hits = cache_hits
        result.cache_misses = cache_misses
        result.compiled_executions = compiled_executions
        result.compile_fallbacks = compile_fallbacks
        if containment is not None:
            # fold the shards' containment outcomes into the parent's
            # seed-phase state for the supervisor summary
            containment.merge(
                [
                    report["sandbox"]["containment"]
                    for report in reports
                    if report.get("sandbox") is not None
                ]
            )
            result.sandbox_active = True
            result.open_breakers = containment.open_breakers
            result.quarantined_statements = len(containment.quarantine)
            result.skipped_statements = containment.skipped
            kills = seed_runner.sandbox.kills if seed_runner.sandbox else 0
            deaths = (
                seed_runner.sandbox.worker_deaths if seed_runner.sandbox else 0
            )
            respawns = seed_runner.sandbox.respawns if seed_runner.sandbox else 0
            for report in reports:
                sandbox_state = report.get("sandbox")
                if sandbox_state is not None:
                    kills += sandbox_state["kills"]
                    deaths += sandbox_state["worker_deaths"]
                    respawns += sandbox_state["respawns"]
            result.sandbox_kills = kills
            result.sandbox_worker_deaths = deaths
            result.sandbox_respawns = respawns
        result.wall_seconds = time.monotonic() - wall_started
        result.elapsed_seconds = result.wall_seconds
        return result


def run_parallel_campaign(
    dialect_name: Optional[str] = None,
    *,
    resume: bool = False,
    config: Optional[CampaignConfig] = None,
    **options: Any,
) -> CampaignResult:
    """Convenience wrapper mirroring :func:`repro.core.run_campaign`.

    *options* fold into ``CampaignConfig(dialect=dialect_name, jobs=2,
    **options)``; alternatively pass a ready-made ``config=``, but not both.
    """
    if config is None:
        options.setdefault("jobs", 2)
        config = CampaignConfig(dialect=dialect_name or "", **options)
    elif options:
        raise TypeError(
            f"run_parallel_campaign accepts either config= or campaign "
            f"options, not both (got config= plus {sorted(options)})"
        )
    return ParallelCampaign(dialect_name, config=config).run(resume=resume)
