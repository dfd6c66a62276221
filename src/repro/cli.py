"""Command-line interface: ``repro <command>``.

Commands:

* ``repro run <dialect> [--budget N] [--coverage] [--faults SPEC]
  [--checkpoint PATH] [--resume PATH] [--jobs N]
  [--oracles NAMES] [--sandbox] [--budgets SPEC]`` — run a SOFT campaign
  (optionally under injected infrastructure faults, with periodic
  checkpoints, sharded across N worker processes, with extra logic-bug
  oracles, inside a subprocess execution sandbox, and/or under
  per-statement resource budgets) and print the discovered bugs as
  disclosure-ready reports.
* ``repro serve [--port N] [--data-dir DIR]`` — campaign-as-a-service:
  the HTTP/JSON scheduler plus persistent bug repository.
* ``repro bugs list|show|replay|triage`` — browse, replay, and triage
  the persistent bug repository without booting the server.
* ``repro audit [--data-dir DIR] [--repair]`` — check (and optionally
  repair) the service's durable invariants: journal transition chains,
  leases, checkpoint sidecars, bug-repository dedup keys.
* ``repro dialects`` — list the simulated DBMSs and their inventories.
* ``repro study`` — print the bug-study summary (Findings 1-4).
* ``repro compare [--budget N]`` — the Tables 5/6 tool comparison.
* ``repro poc <dialect>`` — print every injected bug's PoC statement.
* ``repro minimize <dialect> <sql>`` — delta-debug a crashing statement.

The library's option validation speaks :class:`~repro.core.CampaignConfig`
field names ('sandbox', 'faults', 'enable_coverage', ...); this module
owns the flag spellings, so :func:`_flagify` rewrites those names into
``--sandbox``/``--faults``/``--coverage`` before an error reaches the
terminal.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import List, Optional

#: config field name -> CLI flag spelling.  Library errors name config
#: fields; the CLI translates them at its boundary (see _flagify).
_FIELD_FLAGS = {
    "enable_coverage": "--coverage",
    "checkpoint_path": "--checkpoint",
    "checkpoint_every": "--checkpoint-every",
    "fault_seed": "--fault-seed",
    "sandbox": "--sandbox",
    "faults": "--faults",
    "budgets": "--budgets",
    "oracles": "--oracles",
    "statement_family": "--statement-family",
    "budget": "--budget",
    "jobs": "--jobs",
    "seed": "--seed",
}

_DEFAULT_DATA_DIR = os.path.join(".", ".repro-service")


def _flagify(message: str) -> str:
    """Rewrite config field names in a library error into flag spellings."""
    for field, flag in _FIELD_FLAGS.items():
        message = re.sub(
            rf"(?:the )?'{re.escape(field)}'(?: option(?:s)?)?", flag, message
        )
    return message


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Boundary-argument fuzzing for built-in SQL functions "
        "(EuroSys'25 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a SOFT campaign")
    p_run.add_argument("dialect", help="target dialect name")
    p_run.add_argument("--budget", type=int, default=20_000,
                       help="query budget (default: 20000 ≈ '24 hours')")
    p_run.add_argument("--coverage", action="store_true",
                       help="track branch coverage (slower)")
    p_run.add_argument("--seed", type=int, default=0,
                       help="campaign seed; recorded and checked on resume, "
                       "but it does not affect generation (the statement "
                       "stream is deterministic)")
    p_run.add_argument("--reports", action="store_true",
                       help="print full bug reports instead of one-liners")
    p_run.add_argument("--faults", metavar="SPEC", default=None,
                       help="inject infrastructure faults: 'default' or "
                       "'hang=0.01,drop=0.02,flaky=0.005,restart_fail=0.1'")
    p_run.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault schedule")
    p_run.add_argument("--checkpoint", metavar="PATH", default=None,
                       help="periodically checkpoint the campaign to PATH")
    p_run.add_argument("--checkpoint-every", type=int, default=1_000,
                       help="statements between checkpoints (default: 1000)")
    p_run.add_argument("--resume", metavar="PATH", default=None,
                       help="resume a killed campaign from the checkpoint "
                       "PATH (or, with --jobs, its PATH.shard<w> files) and "
                       "keep checkpointing there")
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="shard the campaign across N worker processes "
                       "(same bug set and signature as the serial run)")
    p_run.add_argument("--oracles", metavar="NAMES", default="crash",
                       help="comma-separated detection oracles: "
                       "crash,differential,conformance,tlp,norec "
                       "(default: crash)")
    p_run.add_argument("--statement-family", metavar="FAMILY",
                       default="expression", choices=("expression", "predicate"),
                       help="what the pattern engine emits: 'expression' "
                       "(bare SELECT f(args); — the default) or 'predicate' "
                       "(SELECT ... FROM fuzz_t WHERE f(args) <cmp> ... over "
                       "a seeded table, the metamorphic oracles' workload)")
    p_run.add_argument("--sandbox", action="store_true",
                       help="execute statements in a SIGKILL-able "
                       "subprocess worker with crash-loop containment "
                       "(incompatible with --faults and --coverage)")
    p_run.add_argument("--budgets", metavar="SPEC", default=None,
                       help="per-statement resource budgets, e.g. "
                       "'depth=64,rows=100000,cells=1000000,"
                       "bytes=16777216,wall_ms=2000'")

    p_serve = sub.add_parser(
        "serve", help="run the campaign scheduler + bug repository service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8137,
                         help="listen port (0 picks an ephemeral port)")
    p_serve.add_argument("--data-dir", default=_DEFAULT_DATA_DIR,
                         help="where the bug repository lives "
                         f"(default: {_DEFAULT_DATA_DIR})")
    p_serve.add_argument("--no-minimize", action="store_true",
                         help="store raw trigger statements instead of "
                         "minimizing on ingest")
    p_serve.add_argument("--budgets", metavar="SPEC", default=None,
                         help="default per-job resource quota applied to "
                         "campaign submissions without their own budgets")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="concurrent scheduler workers claiming jobs "
                         "under leases (default: 1)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission watermark: queued jobs past this "
                         "are shed with HTTP 429 (default: 64)")
    p_serve.add_argument("--quota", type=int, default=None,
                         help="max queued+running jobs per submitter; "
                         "over-quota submissions land in the terminal "
                         "'rejected' job state (default: unlimited)")
    p_serve.add_argument("--lease-seconds", type=float, default=30.0,
                         help="worker lease duration; an expired lease "
                         "makes a running job reclaimable (default: 30)")
    p_serve.add_argument("--no-preempt", action="store_true",
                         help="disable priority preemption (by default a "
                         "strictly higher-priority queued job may "
                         "checkpoint-and-requeue a running one)")
    p_serve.add_argument("--tenant-budget", metavar="SPEC", default=None,
                         help="per-submitter resource budgets, e.g. "
                         "'statements=10000,rows=5000,wall_ms=100': "
                         "'statements' caps each submitter's cumulative "
                         "statement allowance; the rest is a per-statement "
                         "ceiling overriding submitted budgets")
    p_serve.add_argument("--chaos", metavar="SPEC", default=None,
                         help="storage fault-injection spec, e.g. 'default' "
                         "or 'locked=0.05,enospc=0.01,corrupt=0.001' "
                         "(testing only; REPRO_CHAOS env var also works)")
    p_serve.add_argument("--chaos-seed", type=int, default=0,
                         help="deterministic seed for --chaos draws")

    p_audit = sub.add_parser(
        "audit", help="check (and repair) the service's durable invariants"
    )
    p_audit.add_argument("--data-dir", default=_DEFAULT_DATA_DIR,
                         help="the service data directory to audit "
                         f"(default: {_DEFAULT_DATA_DIR})")
    p_audit.add_argument("--repair", action="store_true",
                         help="repair what can be repaired: re-enqueue "
                         "stale leases, quarantine-and-rebuild corrupt "
                         "databases, merge duplicate dedup keys, delete "
                         "orphaned sidecars")

    p_bugs = sub.add_parser("bugs", help="browse the persistent bug repository")
    p_bugs.add_argument("--data-dir", default=_DEFAULT_DATA_DIR,
                        help="where the bug repository lives")
    bugs_sub = p_bugs.add_subparsers(dest="bugs_command", required=True)
    p_list = bugs_sub.add_parser("list", help="list repository records")
    p_list.add_argument("--dialect", default=None)
    p_list.add_argument("--triage", default=None)
    p_show = bugs_sub.add_parser("show", help="show one record + replays")
    p_show.add_argument("id", type=int)
    p_replay = bugs_sub.add_parser(
        "replay", help="re-execute stored triggers, report status flips"
    )
    p_replay.add_argument("--dialect", default=None,
                          help="only replay this dialect's records")
    p_replay.add_argument("--target", default=None,
                          help="re-target execution onto another dialect "
                          "(report-only; records are not mutated)")
    p_replay.add_argument("--ids", default=None,
                          help="comma-separated record ids")
    p_triage = bugs_sub.add_parser("triage", help="set a record's triage status")
    p_triage.add_argument("id", type=int)
    p_triage.add_argument("status")

    sub.add_parser("dialects", help="list simulated DBMSs")
    sub.add_parser("study", help="print the 318-bug study summary")

    p_cmp = sub.add_parser("compare", help="tool comparison (Tables 5/6)")
    p_cmp.add_argument("--budget", type=int, default=4_000)

    p_poc = sub.add_parser("poc", help="print injected-bug PoCs")
    p_poc.add_argument("dialect", help="target dialect name")

    p_min = sub.add_parser("minimize", help="delta-debug a crashing statement")
    p_min.add_argument("dialect", help="target dialect name")
    p_min.add_argument("sql", help="the crashing SQL statement")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "audit":
        return _cmd_audit(args)
    if args.command == "bugs":
        return _cmd_bugs(args)
    if args.command == "dialects":
        return _cmd_dialects()
    if args.command == "study":
        return _cmd_study()
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "poc":
        return _cmd_poc(args)
    if args.command == "minimize":
        return _cmd_minimize(args)
    return 2  # pragma: no cover


def _cmd_run(args) -> int:
    from .core import (
        CampaignConfig,
        format_resilience,
        render_bug_report,
        render_finding,
    )
    from .robustness import CheckpointError
    from .service.scheduler import run_scheduled

    if args.jobs < 1:
        print(f"error: --jobs must be >= 1 (got {args.jobs})")
        return 1
    checkpoint = args.checkpoint
    if args.resume is not None:
        # a resumed campaign continues checkpointing where it resumed from
        if checkpoint is not None and (
            os.path.abspath(checkpoint) != os.path.abspath(args.resume)
        ):
            print(
                f"error: --checkpoint {checkpoint} and --resume {args.resume} "
                "name different files; a resumed campaign keeps "
                "checkpointing to the file it resumes from"
            )
            return 1
        checkpoint = args.resume
    try:
        config = CampaignConfig(
            dialect=args.dialect,
            budget=args.budget,
            enable_coverage=args.coverage,
            seed=args.seed,
            faults=args.faults,
            fault_seed=args.fault_seed,
            checkpoint_path=checkpoint,
            checkpoint_every=args.checkpoint_every,
            oracles=args.oracles,
            statement_family=args.statement_family,
            budgets=args.budgets,
            sandbox=args.sandbox,
            jobs=args.jobs,
        )
        result = run_scheduled(config, resume=args.resume is not None)
    except (CheckpointError, ValueError) as exc:
        print(f"error: {_flagify(str(exc))}")
        return 1
    print(
        f"{result.dialect}: {result.queries_executed} queries, "
        f"{len(result.bugs)} unique bugs, "
        f"{len(result.triggered_functions)} functions triggered"
        + (f", {result.branch_coverage} branches" if args.coverage else "")
    )
    for bug in result.bugs:
        if args.reports:
            print("\n" + "=" * 70)
            print(render_bug_report(bug))
        else:
            print(f"  [{bug.crash_code}] {bug.function} via {bug.pattern}: {bug.sql}")
    findings = result.findings
    if findings:
        print(f"  logic-oracle findings: {len(findings)}")
        for finding in findings:
            if args.reports:
                print("\n" + "=" * 70)
                print(render_finding(finding))
            else:
                print(f"  {finding.one_liner()}")
    if result.false_positives:
        print(f"  ({len(result.false_positives)} false positives from resource kills)")
    if (
        args.faults
        or args.resume
        or args.jobs > 1
        or args.sandbox
        or args.budgets
        or result.fault_counters
        or result.quarantined
    ):
        print(format_resilience(result))
    return 0


def _cmd_serve(args) -> int:
    from .robustness.chaos import StorageFaultInjector, StorageFaultPlan
    from .service import BugService

    chaos = None
    if args.chaos:
        try:
            chaos = StorageFaultInjector(
                StorageFaultPlan.parse(args.chaos), seed=args.chaos_seed
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 1
    try:
        service = BugService(
            data_dir=args.data_dir,
            host=args.host,
            port=args.port,
            minimize=not args.no_minimize,
            default_budgets=args.budgets,
            workers=args.workers,
            queue_depth=args.queue_depth,
            submitter_quota=args.quota,
            lease_seconds=args.lease_seconds,
            preemption=not args.no_preempt,
            tenant_budget=args.tenant_budget,
            chaos=chaos,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(f"repro service listening on {service.url}")
    print(f"bug repository: {os.path.join(args.data_dir, 'bugs.sqlite')}")
    print(f"job journal:    {os.path.join(args.data_dir, 'jobs.sqlite')} "
          f"({args.workers} worker{'s' if args.workers != 1 else ''})")
    recovered = service.recovered
    if recovered["requeued"] or recovered["failed"]:
        print(f"crash recovery: requeued {len(recovered['requeued'])}, "
              f"abandoned {len(recovered['failed'])}")
    for name, event in service.rebuilds.items():
        print(f"storage rebuild: {name} quarantined to "
              f"{event['quarantined']} ({event['salvaged']} rows salvaged)")
    if not service.audit_report.ok:
        print("warning: startup audit found unrepaired errors "
              "(see /health or run 'repro audit')")
    service.serve_forever()
    return 0


def _cmd_audit(args) -> int:
    from .service import ServiceAuditor

    if not os.path.isdir(args.data_dir):
        print(f"error: no service data directory at {args.data_dir}")
        return 1
    report = ServiceAuditor(data_dir=args.data_dir).run(repair=args.repair)
    for finding in report.findings:
        marker = "repaired" if finding.repaired else finding.severity
        line = f"  [{marker}] {finding.check} {finding.subject}: {finding.detail}"
        if finding.repair:
            line += f" -> {finding.repair}"
        print(line)
    summary = report.to_dict()
    print(f"audit: {len(report.checks)} checks, {summary['errors']} errors "
          f"({summary['repaired']} repaired), {summary['warnings']} warnings")
    if report.ok:
        print("audit passed")
        return 0
    print("audit FAILED: unrepaired errors remain"
          + ("" if args.repair else " (re-run with --repair?)"))
    return 1


def _cmd_bugs(args) -> int:
    from .service import BugRepository

    db_path = os.path.join(args.data_dir, "bugs.sqlite")
    if args.bugs_command != "list" and not os.path.exists(db_path):
        print(f"error: no bug repository at {db_path} "
              "(run 'repro serve' or 'repro bugs list' to create one)")
        return 1
    repo = BugRepository(db_path)
    if args.bugs_command == "list":
        records = repo.list(dialect=args.dialect, triage=args.triage)
        if not records:
            print("no bug records")
            return 0
        for r in records:
            kinds = ",".join(r.kinds)
            print(f"  #{r.record_id:<4} {r.dialect:<12} {r.function:<20} "
                  f"[{'/'.join(r.labels)}] ({kinds}) x{r.occurrences} "
                  f"{r.triage}/{r.last_status}: {r.statement}")
        return 0
    if args.bugs_command == "show":
        record = repo.get(args.id)
        if record is None:
            print(f"error: no bug record {args.id}")
            return 1
        for key, value in record.to_dict().items():
            print(f"{key:<12} {value}")
        history = repo.replay_history(args.id)
        if history:
            print("replays:")
            for entry in history:
                status = "fires" if entry["fires"] else "quiet"
                flip = " FLIP" if entry["flipped"] else ""
                print(f"  {entry['dialect']:<12} {entry['observed']:<18} "
                      f"{status}{flip}")
        return 0
    if args.bugs_command == "replay":
        record_ids = None
        if args.ids:
            record_ids = [int(part) for part in args.ids.split(",") if part]
        try:
            report = repo.replay(
                dialect=args.dialect, target=args.target, record_ids=record_ids
            )
        except ValueError as exc:
            print(f"error: {exc}")
            return 1
        print(f"replayed {report.replayed} triggers against {report.dialect}: "
              f"{report.still_firing} still firing, {len(report.flips)} flipped")
        for outcome in report.outcomes:
            marker = "FLIP " if outcome.flipped else ""
            print(f"  {marker}#{outcome.record_id} {outcome.dialect}: "
                  f"expected {outcome.expected}, observed {outcome.observed} "
                  f"-- {outcome.statement}")
        return 0
    if args.bugs_command == "triage":
        try:
            record = repo.set_triage(args.id, args.status)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}")
            return 1
        print(f"#{record.record_id} -> {record.triage}")
        return 0
    return 2  # pragma: no cover


def _cmd_dialects() -> int:
    from .dialects import all_dialect_classes, bugs_for

    for cls in all_dialect_classes():
        dialect = cls()
        bugs = bugs_for(dialect.name)
        print(
            f"{dialect.name:<12} v{dialect.version:<10} "
            f"{len(dialect.registry):>4} functions, {len(bugs):>3} injected bugs"
        )
    return 0


def _cmd_study() -> int:
    from .corpus import summarize

    s = summarize()
    print(f"Studied bugs: {s.total}  ({s.by_dbms})")
    print(f"Backtraces: {s.with_backtrace}; stages: {s.stages}")
    print(f"Expressions per statement: {dict(sorted(s.expression_counts.items()))}")
    print(f"Prerequisites: {s.prerequisites}")
    print(f"Root causes: {s.root_causes}")
    print(f"Boundary-value share: {s.boundary_share:.1%}")
    print("Function types (occurrences / distinct):")
    for row in s.type_histogram:
        print(f"  {row.family:<12} {row.occurrences:>4} / {row.unique_functions}")
    return 0


def _cmd_compare(args) -> int:
    from .analysis import run_comparison

    table = run_comparison(budget=args.budget)
    print(table.format("triggered_functions", "Triggered built-in SQL functions"))
    print()
    print(table.format("branch_coverage", "Covered branches in function components"))
    print()
    print(table.format("bugs_found", "Unique SQL function bugs"))
    return 0


def _cmd_poc(args) -> int:
    from .dialects import bugs_for

    for bug in bugs_for(args.dialect.lower()):
        status = "fixed" if bug.fixed else "confirmed"
        print(f"-- {bug.bug_id} [{bug.crash}] via {bug.pattern} ({status})")
        print(bug.poc)
    return 0


def _cmd_minimize(args) -> int:
    from .core import minimize_poc
    from .dialects import dialect_by_name

    dialect = dialect_by_name(args.dialect)
    try:
        result = minimize_poc(dialect, args.sql)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(f"before ({len(result.original)} chars): {result.original}")
    print(f"after  ({len(result.minimized)} chars): {result.minimized}")
    print(f"({result.attempts} candidate executions, "
          f"{result.reduction:.0%} smaller)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
