"""``repro serve`` under the benchmark's speed sampler, optionally traced.

Usage: ``serve.py SPEED_PATH PERIOD [--trace PREFIX] serve [options]``.
Runs the CLI in this process with a :class:`speed.Sampler` ticking every
``PERIOD`` seconds in the main thread and, with ``--trace``, every layer
wrapped (see ``trace.py``).
Once the service has shut down (SIGINT) it writes the speed samples to
``SPEED_PATH`` (one per line) and the spans to ``PREFIX.jsonl``.
``run.py`` puts the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

import speed
import trace


def main() -> int:
    speed_path, period, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    sampler = speed.Sampler(period)
    sampler.start()
    tracer = None
    if argv[:1] == ["--trace"]:
        prefix, argv = argv[1], argv[2:]
        tracer = trace.Tracer()
        trace.install(tracer, service=True)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        sampler.stop()
        with open(speed_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{sample}\n" for sample in sampler.samples)
        if tracer is not None:
            tracer.dump(prefix + ".jsonl")


if __name__ == "__main__":
    sys.exit(main())
