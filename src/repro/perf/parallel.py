"""The shard processes of a sharded campaign (``config.jobs > 1``).

The paper's evaluation is embarrassingly parallel: each of the "24 hours
per DBMS" campaigns executes an enormous stream of *independent* SELECT
statements.  :class:`~repro.core.campaign.Campaign` runs a ``jobs=N``
campaign's seed phase itself and hands the generated stream to
:func:`run_shards`, which forks one process per shard.  Every process
runs the same loop, :func:`~repro.core.campaign.run_stream`, over its
share, and the merged result signs like the serial run's
(``CampaignResult.signature()``), faults on or off.

* The generated stream is split by a static hash of the case index
  (:func:`~repro.core.campaign.shard_of`).  Statement behaviour is
  history-independent by construction (per-statement engine RNG reseed,
  position-keyed fault streams), so a shard observes exactly the
  outcomes the serial run observes at its positions.
* **Beats.**  Every ``progress_every`` positions a shard sends the parent
  one beat over a single inherited queue: its position, its tally
  (:class:`~repro.robustness.tally.Tally`) and its new findings
  (``Finding.to_dict``).  The parent fires the campaign's
  ``on_progress`` with the whole campaign's tally (a service job renews
  its lease there) and fires ``on_finding`` once per new finding key.
* **Stop.**  An exception raised in the parent (a ``JobInterrupted`` from
  ``on_progress``) tells every shard to save its sidecar and stop at its
  next beat; the parent streams their last findings, joins them and
  re-raises.  A shard that dies without a report makes the run raise.
  A shard whose parent is gone stops at its next beat and writes nothing
  more.
* **Reports.**  Each shard runs its own full oracle pipeline and ends with
  a report, its final :func:`~repro.core.campaign.progress_snapshot`
  (the tally among it), sent in its last message on the queue.  The
  parent sums the tallies and folds the shard states into its own
  pipeline via ``Oracle.merge``, which re-sorts every oracle's kept
  records by global stream position and re-deduplicates, so the merged
  findings match a serial run record for record.

Checkpoint/resume: each shard saves its own sidecar (``<path>.shard<w>``),
the same :class:`~repro.robustness.CampaignCheckpoint` a serial campaign
saves, with the worker index in its spec.  On resume the parent loads and
validates every sidecar up front
(:func:`~repro.core.campaign.load_checkpoints`), re-runs its cheap seed
phase from scratch (sound: statements are history-independent and fault
draws are position-keyed) and hands each shard its checkpoint.

Known semantic divergence: a server quarantine aborts only the shard that
hit it, so a quarantined sharded run may have executed statements a
serial run would not have reached (and vice versa).  Quarantine requires
``CircuitBreaker.failure_threshold`` *consecutive* restart failures drawn
from a single position's fault stream; at realistic fault rates the
probability is negligible, and the merged report still flags
``quarantined=True``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.campaign import (
    Campaign,
    Hooks,
    Seeded,
    Stream,
    run_stream,
    shard_of,
)
from ..core.config import CampaignConfig
from ..robustness.checkpoint import CampaignCheckpoint
from ..robustness.tally import Tally

#: how long the parent blocks on the queue before it checks for shards
#: that died without a report
_WAIT_SECONDS = 1.0


class _Orphaned(Exception):
    """The shard's parent is gone."""


# ----------------------------------------------------------------------
# plain-pickle helpers; unused here, kept because benchmarks/e2e/trace.py
# wraps these four names
# ----------------------------------------------------------------------
def write_packed(path: str, value: Any) -> int:
    """Pickle *value* to *path*; returns the byte count."""
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_packed(path: str) -> Any:
    with open(path, "rb") as fh:
        return pickle.load(fh)


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
    saved: Optional[CampaignCheckpoint],
    seeded: Seeded,
    every: int,
    channel: Any,
    stop: Any,
) -> None:
    """One shard process: run worker *worker*'s share and report it.

    Every message on *channel* is ``(kind, worker, ...)``: a ``"beat"``
    or the final ``"done"`` carries the position, the exported tally and
    the findings kept since the last message (``done`` adds the report),
    and ``"failed"`` carries the exception that ended the shard.  *stop*
    set by the parent ends the share at the next beat.
    """
    parent = os.getppid()
    found: List[Tuple[type, Dict[str, Any], int]] = []

    def keep(finding: Any, position: int) -> None:
        found.append((type(finding), finding.to_dict(), position))

    def message(kind: str, position: int, tally: Dict[str, Any], *rest: Any):
        channel.put((kind, worker, position, tally, list(found)) + rest)
        found.clear()

    def beat(position: int, tally: Tally) -> bool:
        if os.getppid() != parent:
            raise _Orphaned()
        message("beat", position, tally.export())
        return stop.is_set()

    try:
        stream = run_stream(config, worker, saved, seeded, Hooks(keep, beat, every))
        report = stream.snapshot()
        report.update(
            quarantined=stream.quarantined,
            quarantine_reason=stream.quarantine_reason,
        )
        message("done", stream.position, report["tally"], report)
    except _Orphaned:
        # nobody reads the queue any more: exit without flushing it
        channel.cancel_join_thread()
    except Exception as exc:  # noqa: BLE001 - the parent re-raises it
        channel.put(("failed", worker, exc))


# ----------------------------------------------------------------------
# the parent
# ----------------------------------------------------------------------
def run_shards(
    parent: Stream, saved: Dict[Optional[int], CampaignCheckpoint], hooks: Hooks
) -> List[Dict[str, Any]]:
    """Run the generated stream of *parent*'s campaign in one process per
    shard and return their reports, by worker.

    *parent* has run the seed phase; *saved* holds the loaded sidecars of
    a resumed run.  Each beat fires ``hooks.on_beat`` with the whole
    campaign's position and tally, and ``hooks.on_finding`` for each
    finding whose key no earlier finding had.
    """
    config = parent.config
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    channel, stop = ctx.Queue(), ctx.Event()
    seeded = (
        parent.return_types,
        parent.containment.export_state() if parent.containment is not None else None,
    )
    # keys streamed already: the parent's seed phase, a resumed run's sidecars
    seen = {(type(f), f.key) for f in parent.pipeline.findings()}
    for checkpoint in saved.values():
        seen |= parent.pipeline.saved_keys(checkpoint.progress["oracle"])
    positions: Dict[int, int] = {}
    tallies: Dict[int, Dict[str, Any]] = {}
    reports: Dict[int, Dict[str, Any]] = {}
    shards = [
        ctx.Process(
            target=_run_shard,
            args=(config, worker, saved.get(worker), seeded, hooks.every,
                  channel, stop),
            name=f"repro-shard{worker}",
        )
        for worker in range(config.jobs)
    ]
    for shard in shards:
        shard.start()
    running = set(range(config.jobs))
    failure: Optional[BaseException] = None
    while running:
        try:
            kind, worker, *body = _receive(channel, shards, running)
            if kind == "failed":
                running.discard(worker)
                raise body[0]
            positions[worker], tallies[worker], found = body[:3]
            if kind == "done":
                reports[worker] = body[3]
                running.discard(worker)
            for cls, data, position in found:
                finding = cls.from_dict(data)
                if (cls, finding.key) not in seen:
                    seen.add((cls, finding.key))
                    if hooks.on_finding is not None:
                        hooks.on_finding(finding, position)
            if failure is None and hooks.on_beat is not None:
                total = Tally()
                total.merge([parent.tally.export(), *tallies.values()])
                hooks.on_beat(parent.position + sum(positions.values()), total)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            # the first failure stops every shard at its next beat; the
            # parent keeps streaming their findings until they are done,
            # so every key in a saved sidecar has been streamed
            if failure is None:
                failure = exc
                stop.set()
    for shard in shards:
        shard.join()
    if failure is not None:
        raise failure
    return [reports[worker] for worker in range(config.jobs)]


def _receive(channel: Any, shards: List[Any], running: Set[int]) -> tuple:
    """The next shard message; a running shard that exited without
    reporting yields a ``"failed"`` message."""
    while True:
        try:
            return channel.get(timeout=_WAIT_SECONDS)
        except queue.Empty:
            pass
        for worker in sorted(running):
            if not shards[worker].is_alive():
                try:
                    # an exited shard's last messages are already queued
                    return channel.get(timeout=_WAIT_SECONDS)
                except queue.Empty:
                    return ("failed", worker, RuntimeError(
                        f"shard {worker} exited with code "
                        f"{shards[worker].exitcode} before reporting"
                    ))


class ParallelCampaign(Campaign):
    """Nothing but a :class:`Campaign`: every campaign shards itself when
    ``config.jobs > 1``.  The name stays until ROADMAP item 1's
    benchmark change, because ``benchmarks/e2e/trace.py`` wraps its
    ``run``."""
