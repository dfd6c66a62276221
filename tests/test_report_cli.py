"""Tests for bug reporting, Table 4 aggregation, feedback summary, CLI."""

import pytest

from repro.cli import main
from repro.core.campaign import run_campaign
from repro.core.oracles import DiscoveredBug
from repro.core.report import (
    feedback_summary,
    format_table4,
    render_bug_report,
    table4_rows,
)
from repro.dialects import find_bug


def make_discovery(dbms="mariadb", function="reverse", crash="NPD",
                   pattern="P1.2", sql="SELECT REVERSE('');"):
    return DiscoveredBug(
        dbms=dbms,
        function=function,
        crash_code=crash,
        pattern=pattern,
        sql=sql,
        stage="execute",
        backtrace=["do_select_1", "item_func_val_2"],
        message="dereference of NULL pointer",
        query_index=42,
        injected=find_bug(dbms, function, crash),
    )


class TestBugReport:
    def test_report_contains_essentials(self):
        report = render_bug_report(make_discovery())
        assert "null pointer dereference in REVERSE" in report
        assert "mariadb 11.3.2" in report
        assert "SELECT REVERSE('');" in report
        assert "pattern P1.2" in report
        assert "Backtrace" in report

    def test_report_shows_vendor_status(self):
        report = render_bug_report(make_discovery())
        assert "confirmed" in report  # MariaDB REVERSE bug is not fixed

    def test_report_for_unattributed_crash(self):
        discovery = make_discovery(function="mystery")
        report = render_bug_report(discovery)
        assert "MYSTERY" in report
        assert "Vendor status" not in report


class TestTable4Aggregation:
    @pytest.fixture(scope="class")
    def results(self):
        # small deterministic campaigns over two dialects
        return [
            run_campaign("duckdb", budget=6000),
            run_campaign("monetdb", budget=6000),
        ]

    def test_rows_group_by_dbms_and_family(self, results):
        rows = table4_rows(results)
        assert rows
        keys = {(r.dbms, r.family) for r in rows}
        assert len(keys) == len(rows)

    def test_counts_are_consistent(self, results):
        rows = table4_rows(results)
        total = sum(r.count for r in rows)
        attributed = sum(
            1 for result in results for b in result.bugs if b.injected
        )
        assert total == attributed

    def test_format_renders_totals(self, results):
        text = format_table4(table4_rows(results))
        assert "Total" in text
        assert "Bugs" in text
        assert "Confirmed" in text

    def test_status_text_variants(self, results):
        rows = table4_rows(results)
        statuses = {r.status_text() for r in rows}
        assert any("Confirmed & Fixed" in s for s in statuses)


class TestFeedback:
    def test_summary_counts(self):
        result = run_campaign("clickhouse", budget=25000)
        summary = feedback_summary([result])
        assert summary["confirmed"] == len([b for b in result.bugs if b.injected])
        assert summary["fixed"] <= summary["confirmed"]

    def test_cto_highlight_present_when_todecimalstring_found(self):
        result = run_campaign("clickhouse", budget=40000)
        summary = feedback_summary([result])
        found_ids = {b.injected.bug_id for b in result.bugs if b.injected}
        if "CLICKHOUSE-STRI-001" in found_ids:
            assert any("CTO" in h for h in summary["highlights"])


class TestCLI:
    def test_dialects_command(self, capsys):
        assert main(["dialects"]) == 0
        out = capsys.readouterr().out
        assert "postgresql" in out
        assert "virtuoso" in out

    def test_study_command(self, capsys):
        assert main(["study"]) == 0
        out = capsys.readouterr().out
        assert "Studied bugs: 318" in out
        assert "87.4%" in out

    def test_poc_command(self, capsys):
        assert main(["poc", "postgresql"]) == 0
        out = capsys.readouterr().out
        assert "JSONB_OBJECT_AGG" in out

    def test_fuzz_command(self, capsys):
        assert main(["run", "monetdb", "--budget", "2500"]) == 0
        out = capsys.readouterr().out
        assert "monetdb: 2500 queries" in out

    def test_fuzz_with_reports(self, capsys):
        assert main(["run", "duckdb", "--budget", "4000", "--reports"]) == 0
        out = capsys.readouterr().out
        assert "Proof of concept" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
