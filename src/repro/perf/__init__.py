"""Sharded parallel campaigns.

:mod:`repro.perf.parallel` holds ``ParallelCampaign``, which shards the
deterministic generation stream across ``multiprocessing`` workers and
merges shard reports into a ``CampaignResult`` whose ``signature()``
matches the serial run.
"""

from .parallel import ParallelCampaign, run_parallel_campaign

__all__ = ["ParallelCampaign", "run_parallel_campaign"]
