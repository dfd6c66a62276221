"""Sharded campaigns.

:mod:`repro.perf.parallel` runs the generated stream of a campaign with
``config.jobs > 1`` in one process per shard (:func:`run_shards`, called
by :class:`~repro.core.campaign.Campaign`), with live beats to the parent
and a merged result that signs like the serial run's.
"""

from .parallel import ParallelCampaign, run_shards

__all__ = ["ParallelCampaign", "run_shards"]
