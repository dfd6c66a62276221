"""One campaign workload unit, run in a fresh process by ``run.py``.

Prints JSON lines on stdout: ``{"ready": true}`` once the campaign is
built (the end of set-up), then ``{"result": {...}}``; each carries its
phase's speed factor (see ``speed.py``).  With
``--setup-only`` it exits after the first line; with ``--trace PREFIX``
it records spans (see ``trace.py``) and dumps them to ``PREFIX.jsonl``,
plus ``PREFIX.shard<w>.jsonl`` per shard worker, after the campaign.
``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile

import speed
from workloads import WORKLOADS, campaign_config


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--size", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="PREFIX")
    args = parser.parse_args()

    # sampled from before the imports, so a cold start gets its own factor
    if args.setup_only:
        sampler = speed.Sampler(speed.SETUP_PERIOD_S)
    else:
        sampler = speed.Sampler(sink_dir=tempfile.mkdtemp(prefix="speed-"))
    sampler.start()
    tracer = None
    if args.trace:
        import trace

        tracer = trace.Tracer()
        tracer.dump_prefix = args.trace
        trace.install(tracer)

    from repro.core.config import CampaignConfig
    from repro.service.jobs import signature_digest
    from repro.service.scheduler import build_campaign

    config = CampaignConfig(**campaign_config(args.workload, args.size, args.seed))
    campaign = build_campaign(config)
    if args.setup_only:
        sampler.stop()
        print(json.dumps({"ready": True,
                          "speed_factor": speed.factor(sampler.samples)}),
              flush=True)
        return 0
    print(json.dumps({"ready": True}), flush=True)
    result = campaign.run()
    sampler.stop()
    # a sharded campaign's wall is its shards' time, so their speed counts
    samples = sampler.shard_samples() or sampler.samples
    shutil.rmtree(sampler.sink_dir)
    if tracer is not None:
        tracer.dump(args.trace + ".jsonl")
    print(json.dumps({"result": {
        "digest": signature_digest(result),
        "statements": result.queries_executed,
        "wall_s": result.wall_seconds,
        "outcomes": result.outcomes,
        "quarantined": result.quarantined,
        "speed_factor": speed.factor(samples),
    }}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
