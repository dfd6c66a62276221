"""Oracle pipeline: protocol, state round-trips, fan-out, and discovery.

Covers the pluggable-oracle refactor: CrashOracle state versioning (v2
round-trip, v1 fallback, loud failures on unknown versions/keys), pipeline
fan-out ordering, the differential/conformance oracles finding every seeded
logic flaw, and zero differential false positives on flaw-free dialects.
"""

import pytest

from repro.core.campaign import Campaign, run_campaign
from repro.core.oracles import (
    CaseInfo,
    CrashOracle,
    DifferentialOracle,
    DivergenceFinding,
    ErrorConformanceOracle,
    Oracle,
    OraclePipeline,
    OracleStateError,
    build_pipeline,
    parse_oracle_names,
)
from repro.core.runner import Outcome
from repro.dialects import dialect_by_name
from repro.dialects.bugs import logic_flaws_for
from repro.engine.errors import SegmentationViolation
from repro.engine.executor import Result
from repro.engine.fingerprint import (
    divergence_class,
    fingerprint_result,
)
from repro.engine.values import SQLInteger, SQLString

ALL_ORACLES = "crash,differential,conformance"


def _crash_outcome(function="repeat", sql="SELECT REPEAT('a', 9);"):
    return Outcome(
        "crash", sql,
        message="boom",
        crash=SegmentationViolation("boom", function=function, stage="execute"),
    )


# ---------------------------------------------------------------------------
# oracle spec parsing
# ---------------------------------------------------------------------------
class TestOracleSpec:
    def test_default_is_crash_only(self):
        assert parse_oracle_names(None) == ("crash",)
        assert parse_oracle_names("") == ("crash",)

    def test_parses_and_dedups(self):
        assert parse_oracle_names("crash, differential,crash") == (
            "crash", "differential",
        )
        assert parse_oracle_names(["Conformance"]) == ("conformance",)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            parse_oracle_names("crash,qpg")

    def test_build_pipeline_installs_flaws_only_when_needed(self):
        crash_only = dialect_by_name("mysql")
        build_pipeline(crash_only, "crash")
        assert not crash_only._logic_flaws_installed
        wanted = dialect_by_name("mysql")
        pipeline = build_pipeline(wanted, ALL_ORACLES)
        assert wanted._logic_flaws_installed
        assert pipeline.names == ("crash", "differential", "conformance")
        assert pipeline.needs_fingerprints


# ---------------------------------------------------------------------------
# crash-oracle state round-trips
# ---------------------------------------------------------------------------
class TestCrashOracleState:
    def _populated(self):
        oracle = CrashOracle("duckdb")
        oracle.observe(_crash_outcome(), CaseInfo("P1.2", "repeat", "string"), 7)
        oracle.observe(
            Outcome("resource_kill", "SELECT REPEAT('a', 99999);",
                    message="memory limit: 99999 bytes"),
            CaseInfo("P1.2", "repeat", "string"), 9,
        )
        oracle.observe(
            Outcome("flaky", "SELECT LEFT('x', 1);", message="did not reproduce"),
            CaseInfo("P1.1", "left", "string"), 11,
        )
        return oracle

    def test_v2_round_trip_preserves_everything(self):
        oracle = self._populated()
        restored = CrashOracle("duckdb")
        restored.restore_state(oracle.export_state())
        assert [b.to_dict() for b in restored.bugs] == [
            b.to_dict() for b in oracle.bugs
        ]
        assert restored.false_positives == oracle.false_positives
        assert restored.flaky_signals == oracle.flaky_signals
        assert restored._fp_seen == oracle._fp_seen
        assert restored._fp_records == oracle._fp_records
        # dedup still works after restore: same kill reason is dropped
        assert not restored.observe_resource_kill(
            "SELECT REPEAT('b', 12345);", "memory limit: 12345 bytes"
        )

    def test_v1_fallback_restores_bare_lists(self):
        oracle = self._populated()
        v2 = oracle.export_state()
        v1 = {
            "dbms": v2["dbms"],
            "bugs": v2["bugs"],
            "false_positives": [r[1] for r in v2["false_positives"]],
            "flaky_signals": [r[1] for r in v2["flaky_signals"]],
            "fp_seen": v2["fp_seen"],
        }
        restored = CrashOracle("duckdb")
        restored.restore_state(v1)
        assert restored.false_positives == oracle.false_positives
        assert restored.flaky_signals == oracle.flaky_signals
        assert restored._fp_seen == oracle._fp_seen

    def test_unknown_version_is_a_hard_error(self):
        state = self._populated().export_state()
        state["version"] = 99
        with pytest.raises(OracleStateError, match="version"):
            CrashOracle("duckdb").restore_state(state)

    def test_unknown_keys_are_a_hard_error(self):
        state = self._populated().export_state()
        state["new_field_from_the_future"] = True
        with pytest.raises(OracleStateError, match="unknown keys"):
            CrashOracle("duckdb").restore_state(state)

    def test_merge_replays_global_stream_order(self):
        # two shards see the same crash identity; the merged oracle must
        # keep the occurrence with the smaller global index, like a serial
        # run would
        early, late = CrashOracle("duckdb"), CrashOracle("duckdb")
        late.observe(_crash_outcome(sql="SELECT REPEAT('a', 2);"),
                     CaseInfo("P1.2"), 500)
        early.observe(_crash_outcome(sql="SELECT REPEAT('a', 1);"),
                      CaseInfo("P1.2"), 3)
        merged = CrashOracle("duckdb")
        merged.merge([late.export_state(), early.export_state()])
        assert len(merged.bugs) == 1
        assert merged.bugs[0].query_index == 4  # index 3, 1-based


# ---------------------------------------------------------------------------
# pipeline fan-out and state
# ---------------------------------------------------------------------------
class _RecordingOracle(Oracle):
    needs_fingerprints = False

    def __init__(self, name, journal):
        self.name = name
        self.journal = journal

    def observe(self, outcome, case, index):
        self.journal.append((self.name, index))
        return None

    def findings(self):
        return []

    def export_state(self):
        return {"version": 1, "name": self.name}

    def restore_state(self, state):
        pass


class TestOraclePipeline:
    def test_fans_out_in_registration_order(self):
        journal = []
        pipeline = OraclePipeline(
            [_RecordingOracle("a", journal), _RecordingOracle("b", journal)]
        )
        pipeline.observe(Outcome("ok", "SELECT 1;"), CaseInfo("seed"), 0)
        pipeline.observe(Outcome("ok", "SELECT 2;"), CaseInfo("seed"), 1)
        assert journal == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_rejects_empty_and_duplicate_names(self):
        with pytest.raises(ValueError):
            OraclePipeline([])
        with pytest.raises(ValueError, match="duplicate"):
            OraclePipeline([_RecordingOracle("a", []), _RecordingOracle("a", [])])

    def test_restore_rejects_different_oracle_set(self):
        dialect = dialect_by_name("duckdb")
        full = build_pipeline(dialect, ALL_ORACLES)
        crash_only = build_pipeline(dialect_by_name("duckdb"), "crash")
        with pytest.raises(OracleStateError, match="--oracles"):
            crash_only.restore_state(full.export_state())

    def test_legacy_bare_crash_state_loads_into_crash_only_pipeline(self):
        oracle = CrashOracle("duckdb")
        oracle.observe(_crash_outcome(), CaseInfo("P1.2", "repeat"), 7)
        legacy = oracle.export_state()
        pipeline = build_pipeline(dialect_by_name("duckdb"), "crash")
        pipeline.restore_state(legacy)
        assert len(pipeline.get("crash").bugs) == 1
        full = build_pipeline(dialect_by_name("duckdb"), ALL_ORACLES)
        with pytest.raises(OracleStateError, match="legacy"):
            full.restore_state(legacy)


# ---------------------------------------------------------------------------
# result-set fingerprints
# ---------------------------------------------------------------------------
class TestFingerprint:
    def _result(self, *cells):
        def value(cell):
            return SQLString(cell) if isinstance(cell, str) else SQLInteger(cell)

        return Result(columns=["c"], rows=[[value(c)] for c in cells])

    def test_round_trip_and_determinism(self):
        fp = fingerprint_result(self._result(1, 2))
        again = fingerprint_result(self._result(1, 2))
        assert fp == again
        assert type(fp).from_dict(fp.to_dict()) == fp

    def test_row_order_does_not_matter(self):
        assert fingerprint_result(self._result(1, 2)) == \
            fingerprint_result(self._result(2, 1))

    def test_divergence_classes(self):
        one = fingerprint_result(self._result(1))
        assert divergence_class(one, fingerprint_result(self._result(1, 2))) \
            == "cardinality"
        assert divergence_class(one, fingerprint_result(self._result("1"))) \
            == "type"
        assert divergence_class(one, fingerprint_result(self._result(2))) \
            == "value"
        assert divergence_class(one, fingerprint_result(self._result(1))) is None


# ---------------------------------------------------------------------------
# logic-flaw discovery (the new oracles' acceptance bar)
# ---------------------------------------------------------------------------
class TestLogicFlawDiscovery:
    @pytest.mark.parametrize("dbms", ["mysql", "duckdb"])
    def test_all_seeded_flaws_found(self, dbms):
        result = run_campaign(dbms, budget=2_000, seed=3, oracles=ALL_ORACLES)
        found = {f.attribution.flaw_id for f in result.findings
                 if f.attribution is not None}
        # function-level flaws only: predicate-level kinds (tlp/norec) need
        # the predicate statement family and their own metamorphic oracles
        expected = {flaw.flaw_id for flaw in logic_flaws_for(dbms)
                    if flaw.kind in ("wrong", "strict")}
        assert expected, "dialect should seed logic flaws"
        assert expected <= found

    def test_flaw_free_dialect_has_zero_findings(self):
        result = run_campaign(
            "postgresql", budget=2_000, seed=3, oracles=ALL_ORACLES
        )
        assert result.findings == []

    def test_crash_only_default_reports_no_findings_field_content(self):
        result = run_campaign("duckdb", budget=1_000, seed=3)
        assert result.findings == []

    def test_divergence_finding_round_trips(self):
        result = run_campaign("duckdb", budget=2_000, seed=3,
                              oracles=ALL_ORACLES)
        divergences = [f for f in result.findings
                       if isinstance(f, DivergenceFinding)]
        assert divergences
        finding = divergences[0]
        again = DivergenceFinding.from_dict(finding.to_dict())
        assert again.signature_tuple() == finding.signature_tuple()
        assert again.attribution is not None

    def test_checkpoint_resume_reproduces_findings(self, tmp_path):
        path = str(tmp_path / "cp.json")
        kwargs = dict(budget=2_000, seed=3, oracles=ALL_ORACLES)
        full = run_campaign("duckdb", checkpoint_path=path, checkpoint_every=500,
                            **kwargs)
        resumed = run_campaign("duckdb", resume=path, **kwargs)
        assert resumed.signature() == full.signature()
        assert [f.signature_tuple() for f in resumed.findings] == \
            [f.signature_tuple() for f in full.findings]


# ---------------------------------------------------------------------------
# oracle-level guards
# ---------------------------------------------------------------------------
class TestOracleGuards:
    def test_differential_skips_impure_and_unregistered(self):
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws()
        oracle = DifferentialOracle(dialect)
        assert oracle._called_functions("SELECT NO_SUCH_FN(1);") == []
        fns = oracle._called_functions("SELECT FLOOR(1.5);")
        assert fns == ["floor"]

    def test_conformance_documented_map_is_deterministic(self):
        first = ErrorConformanceOracle._documented_statements(
            dialect_by_name("mysql")
        )
        second = ErrorConformanceOracle._documented_statements(
            dialect_by_name("mysql")
        )
        assert first == second
        assert len(first) > 100
