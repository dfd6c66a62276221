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

Checkpoint/resume: each worker saves its own sidecar checkpoint
(``<path>.shard<w>``), a :class:`~repro.robustness.CampaignCheckpoint`
like a serial campaign's: the campaign spec plus the worker index, and
the same progress snapshot the shard reports.  On resume the parent
loads and validates every sidecar up front
(:func:`~repro.core.campaign.load_checkpoints`: no sidecar at all, or
any unusable one, is a ``CheckpointError``), re-runs its cheap seed phase
from scratch (sound: statements are history-independent and fault draws
are position-keyed) and hands each worker its snapshot; the worker
restores it and skips the prefix of its slice it already processed.

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
import tempfile
import time
from typing import Any, Dict, List, Optional, Union

from ..core.campaign import (
    CampaignResult,
    build_runner,
    campaign_spec,
    checkpoint_files,
    fill_result,
    load_checkpoints,
    progress_snapshot,
    restore_progress,
    run_contained,
    run_seed_phase,
)
from ..core.config import CampaignConfig
from ..core.collect import SeedCollector
from ..core.oracles import CaseInfo, OracleStateError, build_pipeline
from ..core.patterns import PatternEngine
from ..core.runner import Outcome
from ..dialects import dialect_by_name
from ..dialects.base import Dialect
from ..robustness.checkpoint import CampaignCheckpoint, CheckpointError
from ..robustness.faults import FaultInjector, make_fault_injector
from ..robustness.policy import ServerQuarantined
from ..robustness.sandbox import ContainmentState
from ..robustness.watchdog import SimulatedClock

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
    saved: Optional[Dict[str, Any]],
    containment_seed: Optional[Dict[str, Any]],
    transport_dir: str,
    stop_after: Optional[int],
) -> Dict[str, Any]:
    """Execute one worker's share of the generated stream.

    Runs in a child process (or inline for ``jobs=1``).  The shard report
    — its final :func:`~repro.core.campaign.progress_snapshot` — is
    pickled into ``transport_dir`` and only its path goes back through
    the multiprocessing channel.  With a checkpoint path the same
    snapshot is saved as the shard's sidecar checkpoint
    (``<path>.shard<w>``); ``saved`` is the progress of a loaded sidecar
    to continue from.
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
    engine = PatternEngine(
        SeedCollector(dialect).collect(),
        max_partners=config.max_partners,
        return_types=dict(return_types),
        statement_family=config.statement_family,
    )

    spec = campaign_spec(config, worker)
    sidecar = checkpoint_files(config, sharded=True).get(worker)
    outcomes: Dict[str, int] = {}
    skip = 0
    if saved is not None:
        skip = restore_progress(saved, runner, pipeline, containment, outcomes)
    executed_before = runner.executed

    jobs = config.jobs
    generated_budget = max(config.budget - seed_count, 0)
    every = config.checkpoint_every if sidecar is not None else 0
    # positions of this shard's slice processed (containment skips too)
    shard_position = 0
    quarantined = False
    quarantine_reason = ""

    def snapshot() -> Dict[str, Any]:
        return progress_snapshot(runner, pipeline, containment, outcomes, shard_position)

    try:
        for index, case in enumerate(engine.generate_all()):
            if index >= generated_budget:
                break
            if shard_of(index, jobs) != worker:
                continue  # lazy case: skipping costs no SQL rendering
            if shard_position < skip:
                shard_position += 1
                continue
            position = seed_count + index
            outcome = run_contained(
                runner, containment, case.sql, case.seed_family, position
            )
            outcomes[outcome.kind] = outcomes.get(outcome.kind, 0) + 1
            pipeline.observe(
                outcome,
                CaseInfo(case.pattern, case.seed_function, case.seed_family),
                position,
            )
            shard_position += 1
            if every > 0 and shard_position % every == 0:
                CampaignCheckpoint(spec=spec, progress=snapshot()).save(sidecar)
            if stop_after is not None and runner.executed - executed_before >= stop_after:
                break
    except ServerQuarantined as exc:
        # the in-flight statement never completed (as in Campaign.run)
        runner.executed = max(runner.executed - 1, 0)
        quarantined = True
        quarantine_reason = str(exc)

    report = snapshot()
    if sidecar is not None:
        CampaignCheckpoint(spec=spec, progress=report).save(sidecar)
    report.update(quarantined=quarantined, quarantine_reason=quarantine_reason)
    runner.close()
    packed_path = os.path.join(transport_dir, f"shard{worker}.report")
    write_packed(packed_path, report)
    return {"worker": worker, "packed_path": packed_path}


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
        """Run the campaign; *resume* continues it from the shard files
        saved under ``config.checkpoint_path`` (see
        :func:`~repro.core.campaign.load_checkpoints`)."""
        config = self.config
        wall_started = time.monotonic()
        saved = load_checkpoints(config, sharded=True) if resume else {}
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

        def record(outcome: Outcome, case: CaseInfo, position: int) -> None:
            result.outcomes[outcome.kind] = result.outcomes.get(outcome.kind, 0) + 1
            pipeline.observe(outcome, case, position)

        return_types: Dict[str, str] = {}
        seed_count = 0
        try:
            seed_count = run_seed_phase(
                runner, containment, seeds, config.budget, return_types, record
            )
        except ServerQuarantined as exc:
            runner.executed = max(runner.executed - 1, 0)
            result.quarantined = True
            result.quarantine_reason = str(exc)

        # ---- fan out the generated stream ----------------------------
        reports: List[Dict[str, Any]] = []
        if not result.quarantined and seed_count < config.budget:
            containment_seed = (
                containment.export_state() if containment is not None else None
            )
            # the shard reports come back as pickle files in this private
            # directory
            with tempfile.TemporaryDirectory(prefix="repro-shards-") as tdir:
                shard_args = [
                    (
                        config, worker, seed_count, return_types,
                        saved[worker].progress if worker in saved else None,
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
        # fold every shard's oracle state into the parent pipeline; each
        # oracle re-sorts its kept records by global stream position and
        # re-deduplicates — the exact first-occurrence order the serial
        # loop would have used, statement for statement
        try:
            pipeline.merge([report["oracle"] for report in reports])
        except OracleStateError as exc:
            raise CheckpointError(str(exc)) from exc
        for report in reports:
            if report["quarantined"]:
                result.quarantined = True
                result.quarantine_reason = (
                    result.quarantine_reason or report["quarantine_reason"]
                )
        fill_result(result, runner, pipeline, containment, reports)
        result.wall_seconds = time.monotonic() - wall_started
        result.elapsed_seconds = result.wall_seconds
        runner.close()
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
