"""Bug reporting and result aggregation (Table 4 / Figure 2 surfaces).

Renders discovered bugs as disclosure-ready reports (title, version, crash
class, PoC, backtrace), rolls campaigns up into the paper's Table 4 row
format, and produces the confirmed/fixed feedback summary behind Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import all_bugs, dialect_by_name
from ..engine.errors import CRASH_CLASSES
from ..robustness.tally import Tally
from .campaign import CampaignResult
from .oracles import DiscoveredBug, Finding


def render_bug_report(bug: DiscoveredBug, version: Optional[str] = None) -> str:
    """A disclosure-ready textual bug report for one discovery."""
    if version is None:
        try:
            version = dialect_by_name(bug.dbms).version
        except KeyError:
            version = "unknown"
    crash_label = CRASH_CLASSES[bug.crash_code].label
    lines = [
        f"Title: {crash_label} in {bug.function.upper()} ({bug.dbms} {version})",
        f"Severity: crash ({bug.crash_code})",
        f"Found by: SOFT pattern {bug.pattern}",
        f"Stage: {bug.stage}",
        "",
        "Proof of concept:",
        f"    {bug.sql}",
        "",
        f"Crash message: {bug.message}",
    ]
    if bug.backtrace:
        lines.append("")
        lines.append("Backtrace (innermost last):")
        lines.extend(f"    #{i} {frame}" for i, frame in enumerate(bug.backtrace))
    if bug.injected is not None:
        status = "fixed" if bug.injected.fixed else "confirmed"
        lines.append("")
        lines.append(f"Vendor status: {status} ({bug.injected.bug_id})")
    return "\n".join(lines)


def render_finding(finding: Finding, version: Optional[str] = None) -> str:
    """Disclosure-ready report for any finding, crash or logic.

    Crash findings keep the historical :func:`render_bug_report` layout;
    other oracle kinds render from the polymorphic :class:`Finding`
    surface, so a new oracle needs no report-layer changes to show up.
    """
    if isinstance(finding, DiscoveredBug):
        return render_bug_report(finding, version)
    if version is None:
        try:
            version = dialect_by_name(finding.dbms).version
        except KeyError:
            version = "unknown"
    lines = [
        f"Title: {finding.bug_type_label} result from "
        f"{finding.function.upper()} ({finding.dbms} {version})",
        f"Severity: logic ({finding.kind})",
        f"Found by: SOFT pattern {finding.pattern}",
        "",
        "Proof of concept:",
        f"    {finding.sql}",
    ]
    message = getattr(finding, "message", "")
    if message:
        lines.append("")
        lines.append(f"Error message: {message}")
    peer = getattr(finding, "peer", "")
    if peer:
        lines.append("")
        lines.append(f"Diverges from: {peer}")
    flaw = finding.attribution
    if flaw is not None:
        lines.append("")
        lines.append(f"Root cause: {flaw.description} ({flaw.flaw_id})")
    return "\n".join(lines)


def format_findings(result: CampaignResult) -> str:
    """The campaign's logic-oracle findings section (CLI surface)."""
    findings = result.findings
    lines = [f"Logic findings — {result.dialect}: {len(findings)}"]
    lines.extend(f"  {finding.one_liner()}" for finding in findings)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 4 aggregation
# ---------------------------------------------------------------------------
@dataclass
class Table4Row:
    """One row of Table 4: DBMS × function type."""

    dbms: str
    family: str
    count: int
    bug_types: Dict[str, int]
    patterns: Dict[str, int]
    confirmed: int
    fixed: int

    def bug_type_text(self) -> str:
        return ", ".join(f"{k}({v})" for k, v in sorted(self.bug_types.items()))

    def pattern_text(self) -> str:
        return ", ".join(f"{k}({v})" for k, v in sorted(self.patterns.items()))

    def status_text(self) -> str:
        if self.fixed == self.count and self.confirmed == self.count:
            return f"{self.count} Confirmed & Fixed"
        parts = [f"{self.confirmed} Confirmed"]
        if self.fixed:
            parts.append(f"{self.fixed} Fixed")
        return ", ".join(parts)


def table4_rows(results: Sequence[CampaignResult]) -> List[Table4Row]:
    """Aggregate campaign discoveries into Table 4's row structure.

    Totals over every :class:`Finding` subtype — crash bugs and attributed
    logic-oracle findings alike — via the polymorphic ``bug_type_label`` /
    ``attribution`` surface rather than crash-only fields.
    """
    cells: Dict[Tuple[str, str], List[Finding]] = {}
    for result in results:
        for bug in list(result.bugs) + list(result.findings):
            if bug.attribution is None:
                continue
            cells.setdefault((bug.dbms, bug.family), []).append(bug)
    rows: List[Table4Row] = []
    for (dbms, family), bugs in sorted(cells.items()):
        bug_types: Dict[str, int] = {}
        patterns: Dict[str, int] = {}
        fixed = 0
        for bug in bugs:
            label = bug.bug_type_label
            bug_types[label] = bug_types.get(label, 0) + 1
            pattern = bug.attribution.pattern
            patterns[pattern] = patterns.get(pattern, 0) + 1
            if bug.attribution.fixed:
                fixed += 1
        rows.append(
            Table4Row(
                dbms=dbms,
                family=family,
                count=len(bugs),
                bug_types=bug_types,
                patterns=patterns,
                confirmed=len(bugs),
                fixed=fixed,
            )
        )
    return rows


def format_table4(rows: Sequence[Table4Row]) -> str:
    header = f"{'DBMS':<12} {'Function Type':<16} {'Bug Type':<34} {'Patterns':<34} Status"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.dbms:<12} {row.family + f' ({row.count})':<16} "
            f"{row.bug_type_text():<34} {row.pattern_text():<34} {row.status_text()}"
        )
    total = sum(r.count for r in rows)
    fixed = sum(r.fixed for r in rows)
    patterns: Dict[str, int] = {}
    for row in rows:
        for pattern, count in row.patterns.items():
            fam = pattern.split(".")[0]
            patterns[fam] = patterns.get(fam, 0) + count
    pattern_text = ", ".join(f"{k}.x({v})" for k, v in sorted(patterns.items()))
    lines.append("-" * len(header))
    lines.append(
        f"{'Total':<12} {'-':<16} {str(total) + ' Bugs':<34} "
        f"{pattern_text:<34} {total} Confirmed, {fixed} Fixed"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Campaign health / resilience roll-up
# ---------------------------------------------------------------------------
def resilience_summary(results: Sequence[CampaignResult]) -> Dict[str, object]:
    """Aggregate infrastructure-noise accounting across campaigns."""
    total = Tally()
    total.merge(result.tally.export() for result in results)
    sandboxed = [result for result in results if result.sandbox_active]
    supervisor = total.supervisor
    return {
        "fault_counters": total.faults,
        "flaky_signals": sum(len(result.flaky_signals) for result in results),
        "timeouts": total.outcomes.get("timeout", 0),
        "quarantined": [result.dialect for result in results if result.quarantined],
        "sandbox_active": bool(sandboxed),
        "sandbox_kills": supervisor.get("kills", 0),
        "sandbox_worker_deaths": supervisor.get("worker_deaths", 0),
        "sandbox_respawns": supervisor.get("respawns", 0),
        "open_breakers": sorted({f for r in sandboxed for f in r.open_breakers}),
        "quarantined_statements": sum(r.quarantined_statements for r in sandboxed),
        "skipped_statements": total.outcomes.get("skipped", 0),
    }


def format_resilience(result: CampaignResult) -> str:
    """One campaign's infrastructure-noise report (CLI surface)."""
    summary = resilience_summary([result])
    lines = [f"Campaign health — {result.dialect}"]
    counters = summary["fault_counters"]
    if counters:
        injected = ", ".join(f"{k}({v})" for k, v in sorted(counters.items()))
        lines.append(f"  resilience events: {injected}")
    else:
        lines.append("  resilience events: none")
    lines.append(
        f"  flaky crash signals triaged out: {summary['flaky_signals']} "
        f"(0 promoted to bugs)"
    )
    lines.append(f"  statements timed out: {summary['timeouts']}")
    qps = result.statements_per_second
    if qps:
        lines.append(
            f"  throughput: {qps:,.0f} statements/s "
            f"({result.wall_seconds:.2f}s wall)"
        )
    if result.quarantined:
        lines.append(f"  QUARANTINED: {result.quarantine_reason}")
    if summary["sandbox_active"]:
        lines.append("  sandbox supervisor:")
        lines.append(
            f"    worker kills (hung): {summary['sandbox_kills']}, "
            f"worker deaths: {summary['sandbox_worker_deaths']}, "
            f"respawns: {summary['sandbox_respawns']}"
        )
        lines.append(
            f"    quarantined statements: {summary['quarantined_statements']}, "
            f"skipped by containment: {summary['skipped_statements']}"
        )
        breakers = summary["open_breakers"]
        lines.append(
            "    open family breakers: "
            + (", ".join(breakers) if breakers else "none")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2: developer feedback roll-up
# ---------------------------------------------------------------------------
def feedback_summary(results: Sequence[CampaignResult]) -> Dict[str, object]:
    """Confirmed/fixed disclosure numbers (the data behind Figure 2)."""
    discovered = [b for r in results for b in r.bugs if b.injected is not None]
    confirmed = len(discovered)
    fixed = sum(1 for b in discovered if b.injected.fixed)
    highlights = []
    for bug in discovered:
        if bug.injected.bug_id == "CLICKHOUSE-STRI-001":
            highlights.append(
                "ClickHouse CTO: \"We must fix it immediately or get rid of "
                "this function.\" (toDecimalString)"
            )
        if bug.dbms == "mariadb" and bug.injected.fixed:
            highlights.append(
                f"MariaDB hid {bug.injected.bug_id} from public view for "
                "security reasons"
            )
        if bug.dbms == "postgresql":
            highlights.append(
                "PostgreSQL asked for the report to go directly to the "
                "security team"
            )
    return {
        "reported": confirmed,
        "confirmed": confirmed,
        "fixed": fixed,
        "highlights": sorted(set(highlights)),
    }
