"""The persistent bug repository: dedup identity, triage, replay flips.

Dedup identity is ``(dialect, function, canonical minimized statement)``
— deliberately *not* including the oracle that found it, so the same
flaw surfaced by the crash oracle in one campaign and by the
differential oracle in another collapses onto one record (the record
accumulates kinds/labels instead).  Distinct dialects never collapse.

Replay re-executes stored triggers against the seeded ground truth in
:mod:`repro.dialects.bugs`: injected crash PoCs must still fire, logic
flaws fire once the target dialect's flaws are installed, and a record
whose trigger stops reproducing is reported as a status flip.
"""

import sys
import threading

import pytest

from repro.core import run_campaign
from repro.dialects import dialect_by_name
from repro.dialects.bugs import bugs_for, logic_flaws_for
from repro.engine.connection import ServerCrashed
from repro.service import BugRepository, bugrepo
from repro.service.bugrepo import TRIAGE_STATES, canonical_statement


@pytest.fixture
def repo(tmp_path):
    return BugRepository(str(tmp_path / "bugs.sqlite"))


def _crash(sql, dialect="virtuoso", function="ascii", label="NPD"):
    return {
        "kind": "crash", "label": label, "dialect": dialect,
        "function": function, "sql": sql, "pattern": "P1.2",
    }


def _divergence(sql, dialect="virtuoso", function="ascii", peer="duckdb"):
    return {
        "kind": "divergence", "label": "WRONG", "dialect": dialect,
        "function": function, "sql": sql, "pattern": "P1.2", "peer": peer,
    }


class TestCanonicalization:
    def test_whitespace_and_terminator_are_not_identity(self):
        assert (
            canonical_statement("SELECT  ASCII('') ;")
            == canonical_statement("SELECT ASCII('');")
        )

    def test_ingest_minimizes_the_trigger(self, repo):
        # two fat CHR crashes shrink to the same minimal reproducer
        repo.record_finding(
            _crash("SELECT CHR(99999999999999999999999995);", function="chr")
        )
        record_id, created = repo.record_finding(
            _crash("SELECT CHR(2000000);", function="chr")
        )
        assert not created
        assert repo.count() == 1
        record = repo.get(record_id)
        assert record.statement == "SELECT CHR(1000000)"
        assert record.occurrences == 2


class TestMinimizeMemo:
    """Ingest minimizes each distinct trigger once per repository."""

    @pytest.mark.parametrize("options", [
        {},
        {"statement_family": "predicate", "oracles": "crash,tlp,norec"},
        {"oracles": "crash,differential"},
    ], ids=["expression", "predicate", "differential"])
    def test_repeat_ingest_reuses_the_canonical_statement(
        self, tmp_path, monkeypatch, options
    ):
        result = run_campaign("duckdb", budget=700, **options)
        findings = list(result.bugs) + list(result.findings)
        assert findings  # the test premise: this budget finds something
        keys = {
            (info["dialect"], info["kind"], info["peer"], info["sql"])
            for info in map(bugrepo._finding_info, findings)
        }
        calls = []
        minimize_poc = bugrepo.minimize_poc

        def counting(dialect, sql, **kwargs):
            calls.append(sql)
            return minimize_poc(dialect, sql, **kwargs)

        monkeypatch.setattr(bugrepo, "minimize_poc", counting)
        memo = BugRepository(str(tmp_path / "memo.sqlite"))
        first = memo.record_result(result, campaign_id="c1")
        second = memo.record_result(result, campaign_id="c2")
        assert len(calls) == len(keys)
        assert (first["minimized"], second["minimized"]) == (len(keys), 0)

        # the same two ingests with the second through a fresh repository
        # object (empty memo) over the same file
        fresh_path = str(tmp_path / "fresh.sqlite")
        BugRepository(fresh_path).record_result(result, campaign_id="c1")
        fresh = BugRepository(fresh_path)
        fresh_second = fresh.record_result(result, campaign_id="c2")
        assert len(calls) == 3 * len(keys)
        assert fresh_second == dict(second, minimized=len(keys))

        def rows(repo):
            return [
                {k: v for k, v in record.to_dict().items()
                 if k not in ("created_at", "updated_at")}
                for record in repo.list()
            ]

        assert rows(memo) == rows(fresh)
        assert second == {
            "new_records": 0, "duplicates": len(findings), "minimized": 0,
        }

    def test_threads_share_one_memo(self, tmp_path):
        # scheduler workers and HTTP handlers share the repository: a
        # thread racing another on the same trigger at worst minimizes it
        # again, and every thread reads the serial canonical statement
        result = run_campaign("duckdb", budget=700)
        infos = [
            bugrepo._finding_info(f)
            for f in list(result.bugs) + list(result.findings)
        ]
        serial = BugRepository(str(tmp_path / "serial.sqlite"))
        expected = [serial._canonicalize(info, True)[0] for info in infos]
        shared = BugRepository(str(tmp_path / "shared.sqlite"))
        seen, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    seen.append(
                        [shared._canonicalize(info, True)[0] for info in infos]
                    )
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert seen == [expected] * 120
        assert shared._canonical == serial._canonical


class TestDedupIdentity:
    def test_cross_oracle_findings_collapse(self, repo):
        # the same flaw found by the crash oracle and by the differential
        # oracle is ONE defect: kinds/labels accumulate on one record
        id_a, created_a = repo.record_finding(
            _crash("SELECT ASCII('');"), minimize=False, campaign_id="c1"
        )
        id_b, created_b = repo.record_finding(
            _divergence("SELECT  ASCII('') ;"), minimize=False, campaign_id="c2"
        )
        assert created_a and not created_b
        assert id_a == id_b
        assert repo.count() == 1
        record = repo.get(id_a)
        assert record.kinds == ["crash", "divergence"]
        assert record.labels == ["NPD", "WRONG"]
        assert record.campaigns == ["c1", "c2"]

    def test_distinct_dialects_do_not_collapse(self, repo):
        repo.record_finding(
            _crash("SELECT ASCII('');", dialect="virtuoso"), minimize=False
        )
        repo.record_finding(
            _crash("SELECT ASCII('');", dialect="duckdb"), minimize=False
        )
        assert repo.count() == 2
        assert {r.dialect for r in repo.list()} == {"virtuoso", "duckdb"}

    def test_repeated_campaigns_only_bump_occurrences(self, repo):
        result = run_campaign("virtuoso", budget=500)
        assert result.bugs  # the test premise: this budget finds bugs
        first = repo.record_result(result, campaign_id="c1")
        second = repo.record_result(result, campaign_id="c2")
        assert first["new_records"] == len(result.bugs)
        assert second["new_records"] == 0
        assert second["duplicates"] == len(result.bugs)
        assert repo.count() == len(result.bugs)

    def test_list_filters(self, repo):
        repo.record_finding(_crash("SELECT ASCII('');"), minimize=False)
        repo.record_finding(
            _crash("SELECT 1;", dialect="duckdb", function="abs"),
            minimize=False,
        )
        assert len(repo.list(dialect="virtuoso")) == 1
        assert len(repo.list(triage="confirmed")) == 0


class TestTriage:
    def test_triage_transitions(self, repo):
        record_id, _ = repo.record_finding(
            _crash("SELECT ASCII('');"), minimize=False
        )
        assert repo.get(record_id).triage == "new"
        assert repo.set_triage(record_id, "confirmed").triage == "confirmed"

    def test_unknown_status_rejected(self, repo):
        record_id, _ = repo.record_finding(
            _crash("SELECT ASCII('');"), minimize=False
        )
        with pytest.raises(ValueError, match="triage"):
            repo.set_triage(record_id, "bogus")
        for state in TRIAGE_STATES:
            repo.set_triage(record_id, state)

    def test_missing_record_rejected(self, repo):
        with pytest.raises(KeyError):
            repo.set_triage(999, "confirmed")


class TestReplay:
    """Replay outcomes against the seeded ground truth."""

    def test_live_injected_bug_still_fires(self, repo):
        # ground truth: pick a seeded PoC that crashes a fresh server
        def crashes(poc):
            try:
                dialect_by_name("virtuoso").create_server().connect().execute(poc)
            except ServerCrashed:
                return True
            except Exception:
                return False
            return False

        bug = next(b for b in bugs_for("virtuoso") if crashes(b.poc))
        repo.record_finding(
            _crash(bug.poc, function=bug.function, label=bug.crash),
            minimize=False,
        )
        report = repo.replay(dialect="virtuoso")
        assert report.replayed == 1
        assert report.still_firing == 1
        assert not report.flips  # fires -> fires is not a flip
        (outcome,) = report.outcomes
        assert outcome.observed == f"crash:{bug.crash}"

    def test_lost_reproducer_flips_to_quiet(self, repo):
        record_id, _ = repo.record_finding(
            _crash("SELECT 1;", function="abs"), minimize=False
        )
        report = repo.replay(dialect="virtuoso")
        (outcome,) = report.outcomes
        assert outcome.observed == "ok"
        assert not outcome.fires
        assert outcome.flipped
        assert repo.get(record_id).last_status == "quiet"
        # replaying again is stable: quiet -> quiet, no second flip
        assert not repo.replay(dialect="virtuoso").flips

    def test_strict_logic_flaw_fires_as_error(self, repo):
        flaw = next(
            f for f in logic_flaws_for("duckdb") if f.kind == "strict"
        )
        repo.record_finding(
            {
                "kind": "conformance", "label": "STRICT",
                "dialect": "duckdb", "function": flaw.function,
                "sql": flaw.poc, "pattern": flaw.pattern,
            },
            minimize=False,
        )
        report = repo.replay(dialect="duckdb")
        (outcome,) = report.outcomes
        # replay installs the dialect's logic flaws — the seeded
        # over-strict path rejects the PoC, so the record still fires
        assert outcome.observed == "error"
        assert outcome.fires and not outcome.flipped

    def test_retargeted_replay_is_report_only(self, repo):
        record_id, _ = repo.record_finding(
            _crash("SELECT ASCII('');"), minimize=False
        )
        report = repo.replay(dialect="virtuoso", target="duckdb")
        (outcome,) = report.outcomes
        assert outcome.dialect == "duckdb"
        # ASCII('') only crashes virtuoso: quiet elsewhere, yet the
        # record keeps its own-dialect status untouched
        assert not outcome.fires
        assert not outcome.flipped
        assert repo.get(record_id).last_status == "fires"

    def test_unknown_target_rejected(self, repo):
        with pytest.raises(ValueError, match="target"):
            repo.replay(target="oracle23ai")

    def test_replay_history_is_recorded(self, repo):
        record_id, _ = repo.record_finding(
            _crash("SELECT ASCII('');"), minimize=False
        )
        repo.replay(dialect="virtuoso")
        repo.replay(dialect="virtuoso", target="duckdb")
        history = repo.replay_history(record_id)
        assert [h["dialect"] for h in history] == ["virtuoso", "duckdb"]


class TestEndToEndIngest:
    def test_campaign_with_all_oracles_dedups_per_statement(self, repo):
        result = run_campaign(
            "duckdb", budget=2000, oracles="crash,differential,conformance"
        )
        assert result.bugs and result.findings  # premise for the budget
        repo.record_result(result, campaign_id="e2e")
        # the FLOOR divergence is reported once per peer dialect; the
        # repository folds all peers onto one record per statement
        divergent = [r for r in repo.list() if "divergence" in r.kinds]
        assert divergent
        statements = [r.statement for r in divergent]
        assert len(statements) == len(set(statements))
        assert repo.count() < len(result.bugs) + len(result.findings)
