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
* The generated stream is sharded by a **static hash of the pattern
  index**: worker ``w`` of ``N`` executes generated case ``i`` iff
  :func:`shard_of` ``(i, N) == w`` (Fibonacci hashing).  The generator
  emits a function's short and 10^5-digit ``REPEAT`` cases at adjacent
  positions, so ``i % N`` would hand nearly all of the expensive tail to
  one worker; the hash scatters runs of neighbours evenly.  Every worker
  re-derives the full deterministic stream (seed collection is pure,
  generation is seeded) and skips foreign cases — skipping is an
  allocation, not work, because
  :class:`~repro.core.patterns.GeneratedCase` renders SQL lazily.
* Statement behaviour is **history-independent** by construction
  (per-statement engine RNG reseed, position-keyed fault streams), so a
  worker executing its sub-stream observes exactly the outcomes the
  serial run observes at those positions.
* Each worker runs its own full :class:`~repro.core.oracles.OraclePipeline`
  over its slice and ships the pipeline's exported state in its plain-dict
  **shard report** (alongside outcome counts, triggered functions,
  coverage sets and fault counters).  The parent folds the shard
  states into its own pipeline via ``Oracle.merge``, which re-sorts every
  oracle's kept records by global stream position and re-deduplicates —
  the same first-occurrence order as the serial loop, so the merged
  findings match a serial run record for record.
* **Shard reports cross the process boundary as pickle files.**  Each
  worker writes its report to a file whose path is all it returns.  The
  files live in the parent's private temporary directory and only its own
  children write them — the same trust level as the multiprocessing
  channel, which pickles its arguments anyway.

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
import multiprocessing
import os
import pickle
import random
import tempfile
import time
from typing import Any, Dict, List, Optional, Union

from ..core.campaign import (
    CampaignResult,
    add_counts,
    build_runner,
    fill_result,
    run_contained,
)
from ..core.config import CampaignConfig
from ..core.collect import SeedCollector
from ..core.oracles import CaseInfo, OraclePipeline, OracleStateError, build_pipeline
from ..core.patterns import PatternEngine
from ..core.runner import Runner
from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    read_json,
    write_json_atomic,
)
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import ServerQuarantined
from ..robustness.sandbox import ContainmentState
from ..robustness.watchdog import SimulatedClock


#: sidecar layout version: bumped when the shard report/checkpoint schema
#: or the case-to-shard rule changes (v2 replaced the replayed-observation
#: list with per-shard oracle pipeline state; v3 replaced ``index % jobs``
#: with :func:`shard_of`); old sidecars are refused with a CheckpointError
SHARD_FORMAT_VERSION = 3

#: 2**64 / golden ratio, odd: multiplying by it modulo 2**64 scatters
#: consecutive indices across the whole 64-bit range
_FIBONACCI_MULTIPLIER = 0x9E3779B97F4A7C15


def shard_of(index: int, jobs: int) -> int:
    """The worker (``0..jobs-1``) that executes generated case *index*.

    Fibonacci hashing: the index's scrambled 64-bit image, scaled to
    ``jobs`` by its high bits.  Static, so a resumed shard can skip the
    first *k* cases of its slice without any shared state.
    """
    return ((index * _FIBONACCI_MULTIPLIER) % 2**64) * jobs >> 64


# ----------------------------------------------------------------------
# the files the parent and its shards exchange (plain pickles)
# ----------------------------------------------------------------------
def write_packed(path: str, value: Any) -> int:
    """Pickle a shard report to *path*; returns the byte count."""
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_packed(path: str) -> Any:
    with open(path, "rb") as fh:
        return pickle.load(fh)


# unused here; kept because benchmarks/e2e/trace.py wraps these two names
def pack_statements(statements: List[str]) -> bytes:
    return pickle.dumps(statements, protocol=pickle.HIGHEST_PROTOCOL)


def unpack_statements(data: bytes) -> List[str]:
    return pickle.loads(data)


# ----------------------------------------------------------------------
# one shard
# ----------------------------------------------------------------------
def _run_shard(
    config: CampaignConfig,
    worker: int,
    seed_count: int,
    return_types: Dict[str, str],
    resume: bool,
    containment_seed: Optional[Dict[str, Any]],
    transport_dir: str,
    stop_after: Optional[int],
) -> Dict[str, Any]:
    """Execute one worker's share of the generated stream.

    Runs in a child process (or inline for ``jobs=1``).  The shard report
    is pickled into ``transport_dir`` and only its path goes back through
    the multiprocessing channel.
    ``stop_after`` caps how many statements this shard executes before
    returning early — a test hook that simulates a mid-campaign kill for
    resume testing.
    """
    dialect = dialect_by_name(config.dialect)
    pipeline = build_pipeline(dialect, config.oracles)
    clock = SimulatedClock()
    injector = make_fault_injector(config.faults, seed=config.fault_seed, clock=clock)
    runner = build_runner(dialect, config, pipeline, injector, clock)
    containment: Optional[ContainmentState] = None
    if config.sandbox is not None:
        containment = ContainmentState.from_config(config.sandbox)
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
        rng=random.Random(config.seed),
        max_partners=config.max_partners,
        return_types=dict(return_types),
        statement_family=config.statement_family,
    )

    skip_in_shard = 0
    shard_executed = 0
    outcome_counts: Dict[str, int] = {}
    state = _load_shard_checkpoint(config, worker) if resume else None
    if state is not None:
        # processed counts containment skips too
        skip_in_shard = state["shard_processed"]
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

    jobs = config.jobs
    generated_budget = max(config.budget - seed_count, 0)
    every = config.checkpoint_every if config.checkpoint_path is not None else 0
    shard_processed = 0
    executed_this_run = 0
    quarantined = False
    quarantine_reason = ""

    def shard_state() -> Dict[str, Any]:
        return _shard_state(
            runner, pipeline, outcome_counts, shard_executed, shard_processed,
            containment,
        )

    try:
        for index, case in enumerate(engine.generate_all()):
            if index >= generated_budget:
                break
            if shard_of(index, jobs) != worker:
                continue  # lazy case: skipping costs no SQL rendering
            if shard_processed < skip_in_shard:
                shard_processed += 1
                continue
            position = seed_count + index
            outcome = run_contained(
                runner, containment, case.sql, case.seed_family, position
            )
            outcome_counts[outcome.kind] = outcome_counts.get(outcome.kind, 0) + 1
            pipeline.observe(
                outcome,
                CaseInfo(case.pattern, case.seed_function, case.seed_family),
                position,
            )
            shard_processed += 1
            executed = outcome.kind != "skipped"
            if executed:
                shard_executed += 1
                executed_this_run += 1
            if every > 0 and shard_processed % every == 0:
                _save_shard_checkpoint(config, worker, shard_state())
            if executed and stop_after is not None and executed_this_run >= stop_after:
                break
    except ServerQuarantined as exc:
        shard_processed = max(shard_processed - 1, 0)
        shard_executed = max(shard_executed - 1, 0)
        quarantined = True
        quarantine_reason = str(exc)

    state = shard_state()
    if config.checkpoint_path is not None:
        _save_shard_checkpoint(config, worker, state)
    report: Dict[str, Any] = {
        **state,
        "injector_counters": dict(injector.counters) if injector is not None else {},
        "quarantined": quarantined,
        "quarantine_reason": quarantine_reason,
    }
    runner.close()
    packed_path = os.path.join(transport_dir, f"shard{worker}.report")
    write_packed(packed_path, report)
    return {"worker": worker, "packed_path": packed_path}


def _shard_state(
    runner: Runner,
    pipeline: OraclePipeline,
    outcomes: Dict[str, int],
    shard_executed: int,
    shard_processed: int,
    containment: Optional[ContainmentState],
) -> Dict[str, Any]:
    """A shard's progress: the body of both its sidecar and its report."""
    sandbox = None
    if containment is not None:
        supervisor = runner.sandbox
        sandbox = {
            "containment": containment.export_state(),
            "kills": supervisor.kills if supervisor else 0,
            "worker_deaths": supervisor.worker_deaths if supervisor else 0,
            "respawns": supervisor.respawns if supervisor else 0,
        }
    coverage = runner.coverage
    return {
        "shard_executed": shard_executed,
        "shard_processed": shard_processed,
        "sandbox": sandbox,
        "oracle_state": pipeline.export_state(),
        "outcomes": outcomes,
        "fault_counters": dict(runner.fault_counters),
        "triggered": sorted(runner.server.ctx.triggered_functions),
        "coverage_arcs": (
            [list(a) for a in coverage.arcs] if coverage is not None else []
        ),
        "coverage_lines": (
            [list(l) for l in coverage.lines] if coverage is not None else []
        ),
    }


# ----------------------------------------------------------------------
# per-shard sidecar checkpoints
# ----------------------------------------------------------------------
def _shard_checkpoint_path(path: str, worker: int) -> str:
    return f"{path}.shard{worker}"


def _shard_spec(config: CampaignConfig, worker: int) -> Dict[str, Any]:
    """The campaign identity a sidecar must match to be resumed."""
    spec = {
        "version": CHECKPOINT_VERSION,
        "shard_format": SHARD_FORMAT_VERSION,
        "dialect": config.dialect,
        "seed": config.seed,
        "budget": config.budget,
        "max_partners": config.max_partners,
        "enable_coverage": config.enable_coverage,
        "jobs": config.jobs,
        "worker": worker,
        "oracles": list(config.oracles),
    }
    # only non-default governance/sandbox settings enter the spec, so
    # sidecars written before this layer existed still match default runs
    budgets = config.budgets
    if budgets is not None and budgets.enabled:
        spec["budgets"] = budgets.to_spec()
    sandbox = config.sandbox
    if sandbox is not None:
        spec["sandbox"] = {
            "wall_deadline_seconds": sandbox.wall_deadline_seconds,
            "breaker_threshold": sandbox.breaker_threshold,
            "quarantine": list(sandbox.quarantine),
            "max_message_bytes": sandbox.max_message_bytes,
        }
    if config.statement_family != "expression":
        spec["statement_family"] = config.statement_family
    return spec


def _save_shard_checkpoint(
    config: CampaignConfig, worker: int, state: Dict[str, Any]
) -> None:
    write_json_atomic(
        _shard_checkpoint_path(config.checkpoint_path, worker),
        {"spec": _shard_spec(config, worker), **state},
    )


def _load_shard_checkpoint(
    config: CampaignConfig, worker: int
) -> Optional[Dict[str, Any]]:
    if config.checkpoint_path is None:
        return None
    path = _shard_checkpoint_path(config.checkpoint_path, worker)
    if not os.path.exists(path):
        return None
    payload = read_json(path)
    spec = payload.get("spec") if isinstance(payload, dict) else None
    expected = _shard_spec(config, worker)
    if spec != expected:
        raise CheckpointError(
            f"shard checkpoint {path!r} was written for a different campaign "
            f"configuration ({spec!r} != {expected!r})"
        )
    return payload


# ----------------------------------------------------------------------
# the parallel campaign
# ----------------------------------------------------------------------
class ParallelCampaign:
    """Shards one campaign's generated stream across worker processes.

    Takes a :class:`~repro.core.config.CampaignConfig` like
    :class:`~repro.core.campaign.Campaign`; without one it runs two
    workers with default options.  ``faults`` must be ``None``, a CLI
    spec string or a :class:`~repro.robustness.faults.FaultPlan`
    (injectors don't cross process boundaries); ``stop_when_all_found``
    is unsupported (its early exit depends on cross-shard execution
    order).
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
        if isinstance(dialect, Dialect):
            self.dialect = dialect
        elif not config.dialect:
            raise ValueError("ParallelCampaign needs a dialect (or config.dialect)")
        else:
            self.dialect = dialect_by_name(config.dialect)
        if config.dialect != self.dialect.name:
            # shards rebuild the dialect from the config by this name
            config = config.replace(dialect=self.dialect.name)
        self.config = config
        #: test hook — see ``_run_shard``'s ``stop_after``
        self._stop_after: Optional[int] = None

    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignResult:
        config = self.config
        wall_started = time.monotonic()
        # ---- parent: seed phase (positions 0..S-1) -------------------
        pipeline = build_pipeline(self.dialect, config.oracles)
        clock = SimulatedClock()
        injector = make_fault_injector(
            config.faults, seed=config.fault_seed, clock=clock
        )
        runner = build_runner(self.dialect, config, pipeline, injector, clock)
        containment: Optional[ContainmentState] = (
            ContainmentState.from_config(config.sandbox)
            if config.sandbox is not None
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
                if position >= config.budget:
                    break
                sql = f"SELECT {seed_obj.sql};"
                outcome = run_contained(
                    runner, containment, sql, seed_obj.family, position
                )
                result.outcomes[outcome.kind] = (
                    result.outcomes.get(outcome.kind, 0) + 1
                )
                pipeline.observe(
                    outcome,
                    CaseInfo("seed", seed_obj.function, seed_obj.family),
                    position,
                )
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
        if not quarantined and seed_count < config.budget:
            containment_seed = (
                containment.export_state() if containment is not None else None
            )
            # the shard reports come back as pickle files in this private
            # directory
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tdir:
                shard_args = [
                    (
                        config, worker, seed_count, return_types, resume,
                        containment_seed, tdir, self._stop_after,
                    )
                    for worker in range(config.jobs)
                ]
                if config.jobs == 1:
                    reports = [_run_shard(*shard_args[0])]
                else:
                    ctx = multiprocessing.get_context(
                        "fork" if "fork" in multiprocessing.get_all_start_methods()
                        else "spawn"
                    )
                    if config.sandbox is not None:
                        # Pool workers are daemonic and may not spawn the
                        # sandbox's own subprocess children; ProcessPoolExecutor
                        # workers are not, so sandboxed shards go through it.
                        with concurrent.futures.ProcessPoolExecutor(
                            max_workers=config.jobs, mp_context=ctx
                        ) as executor:
                            futures = [
                                executor.submit(_run_shard, *spec)
                                for spec in shard_args
                            ]
                            reports = [future.result() for future in futures]
                    else:
                        with ctx.Pool(processes=config.jobs) as pool:
                            reports = pool.starmap(_run_shard, shard_args)
                # read the reports while the directory still exists
                reports = [read_packed(report["packed_path"]) for report in reports]

        # ---- merge ----------------------------------------------------
        merged = self._merge(
            result, runner, pipeline, injector, reports, quarantined,
            quarantine_reason, wall_started, containment,
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
        reports: List[Dict[str, Any]],
        quarantined: bool,
        quarantine_reason: str,
        wall_started: float,
        containment: Optional[ContainmentState],
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
        fault_counters: Dict[str, int] = dict(seed_runner.fault_counters)
        if seed_injector is not None:
            add_counts(fault_counters, seed_injector.counters)
        for report in reports:
            executed += report["shard_executed"]
            triggered |= set(report["triggered"])
            arcs |= {tuple(a) for a in report["coverage_arcs"]}
            add_counts(result.outcomes, report["outcomes"])
            add_counts(fault_counters, report["fault_counters"])
            add_counts(fault_counters, report["injector_counters"])
            if report["quarantined"]:
                quarantined = True
                quarantine_reason = quarantine_reason or report["quarantine_reason"]
        result.queries_executed = executed
        result.triggered_functions = triggered
        result.branch_coverage = len(arcs)
        result.quarantined = quarantined
        result.quarantine_reason = quarantine_reason
        if containment is not None:
            # fold the shards' containment outcomes into the parent's
            # seed-phase state for the supervisor summary
            shard_sandboxes = [
                report["sandbox"] for report in reports
                if report["sandbox"] is not None
            ]
            containment.merge([state["containment"] for state in shard_sandboxes])
            supervisor = seed_runner.sandbox
            result.sandbox_kills = sum(state["kills"] for state in shard_sandboxes)
            result.sandbox_worker_deaths = sum(
                state["worker_deaths"] for state in shard_sandboxes
            )
            result.sandbox_respawns = sum(
                state["respawns"] for state in shard_sandboxes
            )
            if supervisor is not None:
                result.sandbox_kills += supervisor.kills
                result.sandbox_worker_deaths += supervisor.worker_deaths
                result.sandbox_respawns += supervisor.respawns
        fill_result(result, pipeline, fault_counters, containment)
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
