"""The repository's end-to-end benchmark (see README.md in this directory).

Three ways to run it, all from the root of a checkout::

    python benchmarks/e2e/run.py --seed 0     # default: 3 repeats of every
                                              # workload, round-robin, then
                                              # one traced pass
    python benchmarks/e2e/run.py --smoke      # tiny sizes, under a minute
    python benchmarks/e2e/run.py --workload expr-serial --seed 3 \\
        --seconds 20 --trace 0                # one measured run

End-to-end metrics come only from untraced units; the traced unit gives
the per-layer metrics (``BENCHMARK.json`` names both sets, with units).
Every unit's outputs are checked against ``pins.json`` before a number
is printed: a mismatch prints ``"correct": false`` with no metrics and
exits 1.  A single run prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import trace
from workloads import (
    RESULTS,
    ROOT,
    WORKLOADS,
    BenchmarkError,
    campaign_setup,
    campaign_unit,
    job_phases,
    service_setup,
    service_unit,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")

#: cold starts per measured run; setup_s is their median
SETUP_PROBES = 5

#: outcome kinds that mean the harness, not the DBMS, failed a statement
FAILED_OUTCOMES = ("timeout", "harness_crash", "skipped", "flaky")


class Incorrect(Exception):
    """A unit's output does not match the pinned behaviour."""


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_layout() -> Optional[str]:
    """Why this checkout cannot be benchmarked, or None."""
    for path in (os.path.join(ROOT, "src", "repro", "__init__.py"),
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(path):
            return f"missing {os.path.relpath(path, ROOT)}"
    return None


# ---------------------------------------------------------------------------
# units and their checks
# ---------------------------------------------------------------------------
def is_service(workload: str) -> bool:
    return WORKLOADS[workload]["kind"] == "service"


def run_unit(workload: str, size: str, seed: int,
             trace_prefix: Optional[str] = None) -> Dict[str, Any]:
    if is_service(workload):
        return service_unit(size, seed, trace_prefix)
    return campaign_unit(workload, size, seed, trace_prefix)


def setup_probe(workload: str, size: str, seed: int) -> Dict[str, float]:
    if is_service(workload):
        return service_setup()
    return campaign_setup(workload, size, seed)


def check_unit(workload: str, size: str, unit: Dict[str, Any], pins: Dict) -> None:
    pin = pins[size][workload]
    if not is_service(workload):
        if unit["digest"] != pin:
            raise Incorrect(f"{workload}: signature {unit['digest'][:16]} "
                            f"!= pinned {pin[:16]}")
        return
    for job in unit["jobs"]:
        if job.get("state") != "done":
            raise Incorrect(f"{workload}: {job['id']} ended {job.get('state')}: "
                            f"{job.get('error', '')[:200]}")
        dialect = job["config"]["dialect"]
        digest = job["summary"]["signature_digest"]
        if digest != pin["jobs"][dialect]:
            raise Incorrect(f"{workload}: {job['id']} ({dialect}) signature "
                            f"{digest[:16]} != pinned {pin['jobs'][dialect][:16]}")
    if unit["bug_records"] != pin["bug_records"]:
        raise Incorrect(f"{workload}: {unit['bug_records']} bug records, "
                        f"pinned {pin['bug_records']}")


def work_counts(workload: str, units: List[Dict[str, Any]]) -> Tuple[int, int]:
    """(attempted, failed): statements and harness-failed statements for
    campaigns; requests and (non-2xx + jobs not done) for the service."""
    if is_service(workload):
        attempted = sum(u["requests"] for u in units)
        failed = sum(u["non_2xx"] for u in units) + sum(
            1 for u in units for job in u["jobs"] if job.get("state") != "done"
        )
        return attempted, failed
    attempted = sum(u["statements"] for u in units)
    failed = sum(u["outcomes"].get(kind, 0) for u in units for kind in FAILED_OUTCOMES)
    failed += sum(1 for u in units if u["quarantined"])
    return attempted, failed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
def measure(workload: str, size: str, seed: int, seconds: float,
            pins: Dict) -> Dict[str, Any]:
    """Set-up probes, then untraced units until *seconds* would be
    exceeded by one more (always at least one)."""
    setups = [setup_probe(workload, size, seed) for _ in range(SETUP_PROBES)]
    units: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        unit_started = time.monotonic()
        unit = run_unit(workload, size, seed)
        check_unit(workload, size, unit, pins)
        units.append(unit)
        last = time.monotonic() - unit_started
        if time.monotonic() - started + last > seconds:
            break
    return {"setups": setups, "units": units}


def end_to_end(workload: str, measured: Dict[str, Any],
               normalize: bool = True) -> Dict[str, float]:
    """The end-to-end metrics; timings divided by each unit's speed
    factor (see ``speed.py``) unless *normalize* is false."""
    units = measured["units"]

    def scale(unit: Dict[str, Any]) -> float:
        return unit["speed_factor"] if normalize else 1.0

    if is_service(workload):
        done = [job for u in units for job in u["jobs"] if job["state"] == "done"]
        statements = sum(job["summary"]["queries_executed"] for job in done)
        latencies = [job["latency_s"] / scale(u) for u in units for job in u["jobs"]]
    else:
        statements = sum(u["statements"] for u in units)
        latencies = [u["wall_s"] / scale(u) for u in units]
    return {
        "stmts_per_s": statements / sum(u["wall_s"] / scale(u) for u in units),
        "job_latency_p50_s": trace.percentile(latencies, 0.5),
        "job_latency_p85_s": trace.percentile(latencies, 0.85),
        "setup_s": statistics.median(
            probe["setup_s"] / scale(probe) for probe in measured["setups"]
        ),
        "peak_rss_mb": max(u["rss_mb"] for u in units),
    }


def traced(workload: str, size: str, seed: int, pins: Dict
           ) -> Tuple[Dict[str, Any], Dict[str, float], Dict[str, Any]]:
    """One traced unit, its per-layer metrics and its tail/layer report."""
    prefix = os.path.join(RESULTS, "traces", workload)
    for stale in glob.glob(prefix + "*.jsonl"):
        os.remove(stale)
    unit = run_unit(workload, size, seed, trace_prefix=prefix)
    check_unit(workload, size, unit, pins)
    profile = trace.Profile(
        trace.load(path) for path in sorted(glob.glob(prefix + "*.jsonl"))
    )
    metrics = trace.layer_metrics(profile)
    service_metrics = {
        "service.queue_wait_s_p50": 0.0, "service.run_s_p50": 0.0,
        "service.campaign_s_p50": 0.0, "service.post_campaign_s_p50": 0.0,
        "service.api_read_p50_ms": 0.0, "service.jobs_per_s": 0.0,
    }
    if is_service(workload):
        service_metrics.update(job_phases(unit["jobs"]))
        service_metrics["service.api_read_p50_ms"] = statistics.median(unit["reads_ms"])
        service_metrics["service.jobs_per_s"] = len(unit["jobs"]) / unit["wall_s"]
    metrics.update(service_metrics)
    metrics["trace.residual_share"] = profile.residual_share()
    metrics["trace.overhead"] = profile.overhead(trace.span_cost_ns())
    report = {
        "layers": profile.layer_table(),
        "slowest": profile.slowest(20),
        "shards": profile.shard_table(),
    }
    return unit, metrics, report


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------
def format_report(workload: str, report: Dict[str, Any]) -> str:
    lines = [f"== {workload}: 20 slowest statements (traced)",
             f"{'ms':>10}  {'outcome':<14} {'position':>8}  sql"]
    for row in report["slowest"]:
        lines.append(f"{row['ms']:>10.2f}  {row['outcome']:<14} "
                     f"{row['position']!s:>8}  {row['sql'][:70]}")
    lines += [f"== {workload}: self time by layer (traced)",
              f"{'layer':<26} {'self_s':>9} {'share':>7} {'calls':>9}"]
    for name, self_s, share, calls in report["layers"]:
        lines.append(f"{name:<26} {self_s:>9.3f} {share:>7.1%} {calls:>9}")
    if report["shards"]:
        lines += [f"== {workload}: shards",
                  f"{'worker':>6} {'wall_s':>8} {'gen_s':>7} {'runner_s':>9} "
                  f"{'top20':>6}"]
        for row in report["shards"]:
            lines.append(f"{row['worker']:>6} {row['wall_s']:>8.2f} "
                         f"{row['generation_s']:>7.2f} {row['runner_s']:>9.2f} "
                         f"{row['top20_share']:>6.1%}")
    return "\n".join(lines)


def save_report(workload: str, text: str) -> None:
    path = os.path.join(RESULTS, "reports", f"{workload}.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def metric_rows(workload: str, values: Dict[str, float],
                units: Dict[str, str]) -> List[str]:
    return [f"  {workload:<18} {name:<34} {values[name]:>14.6g} {units[name]}"
            for name in units]


def check_names(values: Dict[str, float], declared: Dict[str, str]) -> None:
    if set(values) != set(declared):
        raise BenchmarkError(
            f"metrics {sorted(set(values) ^ set(declared))} are not both "
            "measured and declared in BENCHMARK.json"
        )


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------
def single_run(args, bench: Dict, pins: Dict) -> int:
    """One measured run of one workload (the last stdout line is the result)."""
    workload = args.workload
    declared = {m["name"]: m["unit"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            unit, metrics, report = traced(workload, "full", args.seed, pins)
            units = [unit]
            text = format_report(workload, report)
            print(text)
            save_report(workload, text)
        else:
            measured = measure(workload, "full", args.seed, args.seconds, pins)
            units = measured["units"]
            metrics = end_to_end(workload, measured)
            raw = end_to_end(workload, measured, normalize=False)
            print(f"speed factor {[round(u['speed_factor'], 4) for u in units]}; "
                  f"unnormalized: " + ", ".join(
                      f"{name} {value:.6g}" for name, value in raw.items()))
    except Incorrect as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    check_names(metrics, declared)
    attempted, failed = work_counts(workload, units)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


def full_run(args, bench: Dict, pins: Dict, size: str) -> int:
    """Round-robin untraced repeats of every workload, then a traced pass."""
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in WORKLOADS}
    try:
        for repeat in range(args.repeats):
            for workload in WORKLOADS:
                print(f"[repeat {repeat + 1}/{args.repeats}] {workload}",
                      file=sys.stderr, flush=True)
                runs[workload].append(measure(workload, size, args.seed, 0, pins))
        layers: Dict[str, Dict[str, float]] = {}
        reports: Dict[str, str] = {}
        for workload in WORKLOADS:
            print(f"[traced] {workload}", file=sys.stderr, flush=True)
            _, layers[workload], report = traced(workload, size, args.seed, pins)
            reports[workload] = format_report(workload, report)
            save_report(workload, reports[workload])
    except Incorrect as exc:
        print(f"incorrect: {exc}", file=sys.stderr)
        return 1

    out: Dict[str, Any] = {
        "seed": args.seed, "size": size, "repeats": args.repeats,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "platform": platform.platform()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        values = [end_to_end(workload, m) for m in runs[workload]]
        raw = [end_to_end(workload, m, normalize=False) for m in runs[workload]]
        for v in values:
            check_names(v, e2e_units)
        check_names(layers[workload], layer_units)
        units = [u for m in runs[workload] for u in m["units"]]
        attempted, failed = work_counts(workload, units)
        out["workloads"][workload] = {
            "runs": values,
            "unnormalized_runs": raw,
            "speed_factors": [u["speed_factor"] for m in runs[workload]
                              for u in m["units"]],
            "median": {k: statistics.median(v[k] for v in values) for k in e2e_units},
            "attempted": attempted,
            "failed": failed,
            "per_layer": layers[workload],
            "report": reports[workload],
        }
    for workload in WORKLOADS:
        print(reports[workload] + "\n")
    print(f"end-to-end medians of {args.repeats} untraced repeat(s)")
    for workload, data in out["workloads"].items():
        print("\n".join(metric_rows(workload, data["median"], e2e_units)))
        print(f"  {workload:<18} attempted {data['attempted']}, failed {data['failed']}")
    print("per-layer metrics (traced pass)")
    for workload, data in out["workloads"].items():
        print("\n".join(metric_rows(workload, data["per_layer"], layer_units)))
    path = args.out or os.path.join(RESULTS, f"e2e-{size}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    print(f"results: {os.path.relpath(path, ROOT)}")
    return 0


def repin() -> int:
    """Record the current behaviour as pins.json (after a deliberate
    behaviour change); expr-jobs2 must still equal expr-serial."""
    pins: Dict[str, Any] = {}
    for size in ("full", "smoke"):
        pins[size] = {}
        for workload in WORKLOADS:
            print(f"[repin] {size} {workload}", file=sys.stderr, flush=True)
            unit = run_unit(workload, size, 0)
            if not is_service(workload):
                pins[size][workload] = unit["digest"]
                continue
            jobs: Dict[str, str] = {}
            for job in unit["jobs"]:
                if job.get("state") != "done":
                    raise BenchmarkError(f"{job['id']} ended {job.get('state')}")
                jobs[job["config"]["dialect"]] = job["summary"]["signature_digest"]
            pins[size][workload] = {"jobs": dict(sorted(jobs.items())),
                                    "bug_records": unit["bug_records"]}
        if pins[size]["expr-jobs2"] != pins[size]["expr-serial"]:
            raise BenchmarkError(f"{size}: expr-jobs2 differs from expr-serial")
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(PINS, ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one measured run of this workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="with --workload: keep running units while one "
                             "more fits in this many seconds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics "
                             "from a traced unit")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at tiny sizes")
    parser.add_argument("--out", help="results file of a full run")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite pins.json from the current behaviour")
    args = parser.parse_args(argv)
    # children run in their own sessions; SIGTERM unwinds through the
    # handlers that stop them
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    problem = check_layout()
    if problem is not None:
        print(f"error: this is not a benchmarkable checkout ({problem})",
              file=sys.stderr)
        return 2
    try:
        if args.repin:
            return repin()
        bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        pins = load_json(PINS)
        if args.workload:
            return single_run(args, bench, pins)
        if args.smoke:
            args.repeats = 1
            return full_run(args, bench, pins, "smoke")
        return full_run(args, bench, pins, "full")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
