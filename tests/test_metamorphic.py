"""Metamorphic oracles (TLP + NoREC) over the seeded table workload.

Covers the metamorphic-oracle layer end to end: fingerprint multiset
semantics under the TLP three-way union (NULL rows, duplicate rows,
mixed-type columns), the partition/optimization laws holding on clean
engines and breaking on the seeded predicate flaws, oracle state
round-trips and shard merge, campaign-level recall with attribution,
the zero-false-positive guard on clean dialects, predicate-family
config validation, minimizer probes, and bug-repository replay of
tlp/norec records.
"""

from collections import Counter
from decimal import Decimal
from itertools import islice

import pytest

from repro.core.campaign import Campaign, CampaignConfig, run_campaign
from repro.core.collect import SeedCollector
from repro.core.minimize import MetamorphicProbe
from repro.core.oracles import (
    CaseInfo,
    MetamorphicFinding,
    NoRECOracle,
    OraclePipeline,
    OracleStateError,
    TLPOracle,
    build_pipeline,
    parse_oracle_names,
)
from repro.core.oracles import metamorphic
from repro.core.oracles.metamorphic import (
    tlp_camps,
    tlp_camps_statement,
    tlp_divergence,
    tlp_partition_statement,
    tlp_union,
)
from repro.core.patterns import PatternEngine
from repro.core.runner import Outcome, Runner
from repro.core.tables import (
    BASE_QUERY,
    PREDICATE_PREFIX,
    TABLE_ROWS,
    TABLE_SETUP,
    predicate_statement,
)
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.dialects.bugs import find_predicate_flaw
from repro.engine.errors import SQLError
from repro.engine.executor import Result
from repro.engine.fingerprint import divergence_class, fingerprint_result
from repro.engine import connection
from repro.engine.values import NULL, SQLDecimal, SQLInteger, SQLString
from repro.sqlast import (
    IsNullExpr,
    LexError,
    ParseError,
    Select,
    SetOp,
    UnaryOp,
    parse_statements,
    to_sql,
)
from repro.service import BugRepository

METAMORPHIC = "crash,tlp,norec"

# a predicate that is NULL on the rows where i is NULL — exercises all
# three TLP partitions on the seeded fuzz_t contents
NULL_SENSITIVE = "SELECT k, i, s, d FROM fuzz_t WHERE (i) > 0 AND NOT (0 = 1);"

# statements both laws must survive on every clean dialect: NULL-sensitive
# comparisons over each column type, a foldable NULL comparison (the
# seeded NoREC flaw's trigger), an IS NULL test and a range test
CLEAN_STATEMENTS = (
    NULL_SENSITIVE,
    "SELECT k, i, s, d FROM fuzz_t WHERE (i) > 0 AND NOT (NULL = 1);",
    "SELECT k, i, s, d FROM fuzz_t WHERE (d) < 1;",
    "SELECT k, i, s, d FROM fuzz_t WHERE (s) = 'a' OR (i) < 0;",
    "SELECT k, i, s, d FROM fuzz_t WHERE s IS NULL;",
    "SELECT k, i, s, d FROM fuzz_t WHERE (i) BETWEEN -1 AND 2;",
)


def _table_server(dialect, suppress=False):
    server = dialect.create_server()
    if suppress:
        server.ctx.set_config("optimizer_passes", "none")
    conn = server.connect()
    for ddl in TABLE_SETUP:
        conn.execute(ddl)
    return server, conn


def _fp(arm, sql):
    server, conn = arm
    server.ctx.clear_sequence_state()
    return fingerprint_result(conn.execute(sql))


# ---------------------------------------------------------------------------
# fingerprint multiset semantics under the TLP union
# ---------------------------------------------------------------------------
class TestTLPUnionFingerprint:
    def _union_sql(self, predicate):
        return tlp_partition_statement(BASE_QUERY[:-1], predicate)

    def test_partitions_reunite_on_seeded_table(self):
        # fuzz_t holds NULL rows and mixed-type columns; the three-way
        # union must reproduce the base multiset exactly
        arm = _table_server(dialect_by_name("duckdb"))
        base = _fp(arm, BASE_QUERY)
        assert base.row_count == TABLE_ROWS
        union = _fp(arm, self._union_sql("(i) > 0 AND NOT (0 = 1)"))
        assert union == base
        assert divergence_class(base, union) is None

    def test_duplicate_rows_survive_the_union(self):
        # multiset, not set: duplicated rows must be kept by UNION ALL
        # and counted by the fingerprint
        arm = _table_server(dialect_by_name("duckdb"))
        arm[1].execute(
            "INSERT INTO fuzz_t VALUES (2, 1, 'a', 1.5);"
        )  # exact duplicate of an existing row
        base = _fp(arm, BASE_QUERY)
        assert base.row_count == TABLE_ROWS + 1
        union = _fp(arm, self._union_sql("(s) = 'a' AND NOT (0 = 1)"))
        assert union == base

    def _rows_fp(self, rows, columns=("i", "s")):
        return fingerprint_result(Result(columns=list(columns), rows=rows))

    def test_union_is_order_insensitive(self):
        rows = [
            [SQLInteger(1), SQLString("x")],
            [NULL, NULL],
            [SQLInteger(1), SQLString("x")],  # duplicate row
            [SQLInteger(-1), SQLString("")],
        ]
        whole = self._rows_fp(rows)
        # any interleaving of the three partitions hashes identically
        assert self._rows_fp([rows[3], rows[1], rows[0], rows[2]]) == whole
        assert self._rows_fp([rows[2], rows[0], rows[1], rows[3]]) == whole

    def test_dropped_row_is_a_cardinality_divergence(self):
        rows = [[SQLInteger(1)], [NULL], [SQLInteger(1)]]
        whole = self._rows_fp(rows, columns=("i",))
        short = self._rows_fp(rows[:-1], columns=("i",))
        assert divergence_class(whole, short) == "cardinality"

    def test_duplicated_null_row_changes_the_multiset(self):
        rows = [[SQLInteger(1)], [NULL]]
        doubled = rows + [[NULL]]
        assert divergence_class(
            self._rows_fp(rows, columns=("i",)),
            self._rows_fp(doubled, columns=("i",)),
        ) == "cardinality"

    def test_mixed_type_swap_is_a_type_divergence(self):
        ints = self._rows_fp([[SQLInteger(1), SQLDecimal(Decimal("1.5"))]])
        strs = self._rows_fp([[SQLInteger(1), SQLString("1.5")]])
        assert divergence_class(ints, strs) == "type"


# ---------------------------------------------------------------------------
# the laws themselves: hold when clean, break on the seeded flaws
# ---------------------------------------------------------------------------
class TestMetamorphicLaws:
    def test_union_tree_round_trips(self):
        (stmt,) = parse_statements(NULL_SENSITIVE)
        predicate = to_sql(stmt.where)
        assert "(i > 0)" in predicate
        (expected,) = parse_statements(
            tlp_partition_statement("SELECT k, i, s, d FROM fuzz_t", predicate)
        )
        assert tlp_union(stmt) == expected
        # the IS-FALSE and IS-NULL camps, TLP's server's whole statement,
        # are the union's and parse from their own text
        (camps,) = parse_statements(
            tlp_camps_statement("SELECT k, i, s, d FROM fuzz_t", predicate)
        )
        assert tlp_camps(stmt) == camps
        assert (expected.left.right, expected.right) == (camps.left, camps.right)
        # no WHERE, nothing to partition: the probe never touches a server
        assert tlp_divergence(None, "SELECT 1;") is None

    @pytest.mark.parametrize("kind", ["tlp", "norec"])
    def test_laws_hold_on_clean_dialect(self, kind):
        # the zero-false-positive guard over all seven simulated DBMSs
        for cls in all_dialect_classes():
            probe = MetamorphicProbe(cls(), kind)
            for sql in CLEAN_STATEMENTS:
                # identity() reads an SQL error as "law holds": the
                # statement must really run for the check to mean anything
                _fp(_table_server(cls()), sql)
                assert probe.identity(sql) is None, (cls.name, sql)

    def test_tlp_flaw_breaks_only_the_partition_law(self):
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("tlp",))
        assert MetamorphicProbe(dialect, "tlp").identity(NULL_SENSITIVE) \
            == "cardinality"
        # disjoint visibility: the IS NULL defect is invisible to NoREC
        # because campaign statements contain no IS NULL and both arms
        # share the executor
        assert MetamorphicProbe(dialect, "norec").identity(NULL_SENSITIVE) \
            is None

    def test_norec_flaw_breaks_only_the_optimization_identity(self):
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("norec",))
        sql = "SELECT k, i, s, d FROM fuzz_t WHERE (i) > 0 AND NOT (NULL = 1);"
        assert MetamorphicProbe(dialect, "norec").identity(sql) \
            == "cardinality"
        # the fold flaw rewrites *consistently*, so the flawed predicate
        # still partitions exactly — TLP stays quiet
        assert MetamorphicProbe(dialect, "tlp").identity(sql) is None

    def test_nan_comparisons_do_not_kill_the_engine(self):
        # surfaced by the predicate family: comparing a NaN double
        # against a column signalled decimal.InvalidOperation straight
        # through every containment layer; NaN now orders like
        # PostgreSQL (after every number, equal to itself)
        arm = _table_server(dialect_by_name("duckdb"))
        row = arm[1].execute(
            "SELECT CAST('nan' AS DOUBLE) > 1e308, "
            "CAST('nan' AS DOUBLE) = CAST('nan' AS DOUBLE), "
            "1 > CAST('nan' AS DOUBLE);"
        ).rows[0]
        assert [v.value for v in row] == [True, True, False]
        probe = MetamorphicProbe(dialect_by_name("duckdb"), "tlp")
        sql = ("SELECT k, i, s, d FROM fuzz_t "
               "WHERE (CAST('nan' AS DOUBLE)) > d AND NOT (0 = 1);")
        assert probe.identity(sql) is None

    def test_probe_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            MetamorphicProbe(dialect_by_name("duckdb"), "qpg")


# ---------------------------------------------------------------------------
# oracle protocol: observe gates, state round-trips, shard merge
# ---------------------------------------------------------------------------
def _flawed_oracle(kind, dbms="duckdb"):
    dialect = dialect_by_name(dbms)
    dialect.install_logic_flaws(predicate_kinds=(kind,))
    return (TLPOracle if kind == "tlp" else NoRECOracle)(dialect)


def _table_runner(dialect):
    """A runner over the seeded table, as a predicate-family campaign
    builds it."""
    return Runner(dialect, bootstrap_sql=TABLE_SETUP)


def _observe(oracle, sql, index=7):
    outcome = _table_runner(oracle.dialect).run(sql)
    return oracle.observe(outcome, CaseInfo("P1.1", "abs", "numeric"), index)


class TestMetamorphicOracleProtocol:
    def test_finding_on_flawed_dialect(self):
        oracle = _flawed_oracle("tlp")
        finding = _observe(oracle, NULL_SENSITIVE)
        assert isinstance(finding, MetamorphicFinding)
        assert finding.oracle == "tlp"
        assert finding.divergence == "cardinality"
        assert finding.bug_type_label == "WRONGCARD"
        assert finding.flaw is not None
        again = MetamorphicFinding.from_dict(finding.to_dict())
        assert again.signature_tuple() == finding.signature_tuple()
        assert again.flaw is not None

    def test_observe_gates(self):
        oracle = _flawed_oracle("tlp")
        # non-predicate statements and non-ok outcomes are not checked
        assert _observe(oracle, "SELECT ABS(-1);") is None
        assert oracle.observe(
            Outcome("error", NULL_SENSITIVE, message="boom"),
            CaseInfo("P1.1"), 0,
        ) is None
        assert oracle.checked == 0
        # impure calls are skipped, not compared: replaying the statement
        # on another arm would draw fresh randomness
        impure = PREDICATE_PREFIX + "(RANDOM()) > 0.5 AND NOT (0 = 1);"
        assert _observe(oracle, impure) is None
        assert oracle.skipped == 1 and oracle.compared == 0

    def test_one_finding_per_broken_law(self):
        # the law is an engine property: a second statement breaking the
        # same law the same way must not create a second finding
        oracle = _flawed_oracle("tlp")
        assert _observe(oracle, NULL_SENSITIVE, 7) is not None
        other = PREDICATE_PREFIX + "(d) < 1.5 AND NOT (0 = 1);"
        assert _observe(oracle, other, 9) is None
        assert len(oracle.findings()) == 1

    @pytest.mark.parametrize("kind", ["tlp", "norec"])
    def test_state_round_trip(self, kind):
        sql = (
            NULL_SENSITIVE if kind == "tlp"
            else PREDICATE_PREFIX + "(i) > 0 AND NOT (NULL = 1);"
        )
        oracle = _flawed_oracle(kind)
        assert _observe(oracle, sql) is not None
        clean = dialect_by_name("duckdb")
        restored = (TLPOracle if kind == "tlp" else NoRECOracle)(clean)
        restored.restore_state(oracle.export_state())
        assert [f.to_dict() for f in restored.findings()] == \
            [f.to_dict() for f in oracle.findings()]
        assert (restored.checked, restored.compared, restored.skipped) == \
            (oracle.checked, oracle.compared, oracle.skipped)

    def test_state_rejects_unknown_versions_and_keys(self):
        oracle = _flawed_oracle("tlp")
        state = oracle.export_state()
        bad_version = dict(state, version=99)
        with pytest.raises(OracleStateError, match="version"):
            TLPOracle(dialect_by_name("duckdb")).restore_state(bad_version)
        bad_keys = dict(state, from_the_future=True)
        with pytest.raises(OracleStateError, match="unknown keys"):
            TLPOracle(dialect_by_name("duckdb")).restore_state(bad_keys)

    def test_merge_replays_global_stream_order(self):
        # two shards surface the same broken law at different indices;
        # the merge must keep the earlier occurrence, like a serial run
        early, late = _flawed_oracle("tlp"), _flawed_oracle("tlp")
        assert _observe(late, NULL_SENSITIVE, 500) is not None
        assert _observe(early, NULL_SENSITIVE, 3) is not None
        merged = _flawed_oracle("tlp")
        merged.merge([late.export_state(), early.export_state()])
        (finding,) = merged.findings()
        assert finding.query_index == 4  # index 3, 1-based

    def test_parse_and_build_pipeline(self):
        assert parse_oracle_names("tlp,norec") == ("tlp", "norec")
        dialect = dialect_by_name("duckdb")
        pipeline = build_pipeline(dialect, METAMORPHIC)
        assert pipeline.names == ("crash", "tlp", "norec")
        # NoREC's optimized side and TLP's IS-TRUE camp are the runner's
        # own execution: an ok outcome carries its rows, fingerprinted on
        # first read
        outcome = _table_runner(dialect).run(NULL_SENSITIVE)
        assert outcome.fingerprint is not None
        assert outcome.fingerprint == fingerprint_result(
            Result(rows=outcome.rows)
        )
        # requesting the metamorphic oracles installs the predicate flaws
        assert dialect._predicate_flaws_installed == {"tlp", "norec"}


# ---------------------------------------------------------------------------
# one parse per checked statement, shared by both oracles
# ---------------------------------------------------------------------------
def _predicate_statements(dialect, count):
    """The first *count* generated predicate-family statements."""
    engine = PatternEngine(
        SeedCollector(dialect).collect(), statement_family="predicate",
    )
    out = []
    for case in engine.generate_all():
        if case.sql.startswith(PREDICATE_PREFIX):
            out.append(case.sql)
            if len(out) == count:
                break
    return out


class TestSharedParse:
    @pytest.mark.parametrize(
        "dialect_cls", all_dialect_classes(), ids=lambda cls: cls.name
    )
    def test_built_union_equals_parsed_text(self, dialect_cls):
        # the tree the TLP arm executes is exactly what the partition text
        # parses to (node classes are dataclasses: == is structural)
        built = 0
        for sql in _predicate_statements(dialect_cls(), 300):
            try:
                (stmt,) = parse_statements(sql)
            except (LexError, ParseError):
                continue  # the runner reports these as errors, unchecked
            predicate = sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip()
            (expected,) = parse_statements(
                tlp_partition_statement(BASE_QUERY[:-1], predicate)
            )
            union = tlp_union(stmt)
            assert union == expected, sql
            (expected_camps,) = parse_statements(
                tlp_camps_statement(BASE_QUERY[:-1], predicate)
            )
            assert tlp_camps(stmt) == expected_camps, sql
            # the camps share the statement's nodes rather than copy them;
            # test_shared_tree_survives_both_oracles checks nothing writes
            # through them
            camps = (union.left.left, union.left.right, union.right)
            assert all(camp.from_ is stmt.from_ for camp in camps)
            assert camps[0].where is stmt.where
            assert camps[1].where.operand is stmt.where
            assert camps[2].where.expr is stmt.where
            built += 1
        assert built > 250

    def test_shared_tree_survives_both_oracles(self):
        # the NoREC flaw folds NULL comparisons in the runner's optimized
        # run, the suppressed server then executes the runner's tree, and
        # the TLP union executes its nodes: every rewrite must happen on a
        # copy, never on the shared parse
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("tlp", "norec"))
        pipeline = OraclePipeline([TLPOracle(dialect), NoRECOracle(dialect)])
        runner = _table_runner(dialect)
        statements = list(CLEAN_STATEMENTS) + _predicate_statements(dialect, 60)
        for index, sql in enumerate(statements):
            outcome = runner.run(sql)
            pipeline.observe(outcome, CaseInfo("P1.1"), index)
            if outcome.statements is not None:
                assert outcome.statements == parse_statements(sql), sql
        assert all(oracle.compared > 0 for oracle in pipeline.oracles)

    def test_one_parse_per_checked_statement(self, monkeypatch):
        # the runner's own parse is the one both oracles use: a checked
        # statement is parsed once in all, by the run that executed it
        parsed = []
        parse = connection.parse_statements

        def counting_parse(sql, *args, **kwargs):
            parsed.append(sql)
            return parse(sql, *args, **kwargs)

        monkeypatch.setattr(connection, "parse_statements", counting_parse)
        dialect = dialect_by_name("duckdb")
        runner = _table_runner(dialect)
        tlp, norec = TLPOracle(dialect), NoRECOracle(dialect)
        pipeline = OraclePipeline([tlp, norec])
        statements = _predicate_statements(dialect, 150)
        checked = []
        for index, sql in enumerate(statements):
            outcome = runner.run(sql)
            pipeline.observe(outcome, CaseInfo("P1.1"), index)
            if outcome.kind == "ok":
                assert outcome.statements is not None
                checked.append(sql)
        # servers (re)building run the bootstrap and the TLP base query;
        # everything else parsed is a statement the runner ran, once a run
        bootstrap = set(TABLE_SETUP) | {BASE_QUERY}
        assert Counter(sql for sql in parsed if sql not in bootstrap) == \
            Counter(statements)
        assert len(checked) >= tlp.compared > 50
        assert len(checked) >= norec.compared > 50

    def test_differential_replays_the_runners_parse(self, monkeypatch):
        # the differential oracle runs the runner's parse on every peer:
        # each expression-family statement is parsed once, by its own run
        parsed = []
        parse = connection.parse_statements

        def counting_parse(sql, *args, **kwargs):
            parsed.append(sql)
            return parse(sql, *args, **kwargs)

        monkeypatch.setattr(connection, "parse_statements", counting_parse)
        dialect = dialect_by_name("duckdb")
        pipeline = build_pipeline(dialect, "differential")
        runner = Runner(dialect)
        engine = PatternEngine(SeedCollector(dialect).collect())
        statements = [case.sql for case in islice(engine.generate_all(), 400)]
        for index, sql in enumerate(statements):
            pipeline.observe(runner.run(sql), CaseInfo("P1.1"), index)
        assert Counter(parsed) == Counter(statements)
        assert pipeline.get("differential").compared > 100

    def test_norec_reference_arm_still_diverges(self):
        # with only the fold flaw installed, the suppressed server must
        # still see the unfolded tree after the runner's optimized run of
        # the same one
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("norec",))
        oracle = NoRECOracle(dialect)
        sql = PREDICATE_PREFIX + "(i) > 0 AND NOT (NULL = 1);"
        outcome = _table_runner(dialect).run(sql)
        finding = oracle.observe(outcome, CaseInfo("P1.1"), 0)
        assert finding is not None and finding.divergence == "cardinality"
        assert outcome.statements == parse_statements(sql)

    def test_unparseable_text_is_skipped_once(self, monkeypatch):
        calls = []
        parse = connection.parse_statements
        monkeypatch.setattr(
            connection, "parse_statements",
            lambda sql: calls.append(sql) or parse(sql),
        )
        outcome = Outcome("ok", PREDICATE_PREFIX + "(i > ;")
        assert metamorphic.parsed_statements(outcome) == []
        assert metamorphic.parsed_statements(outcome) == []
        assert calls == [outcome.sql]


# ---------------------------------------------------------------------------
# NoREC's optimized side is the runner's own execution
# ---------------------------------------------------------------------------
class TestNoRECReusesTheRunnersRun:
    def test_one_execution_per_checked_statement(self, monkeypatch):
        # the runner's run is the optimized side: NoREC's own server runs
        # each checked statement at most once, each compared one exactly
        # once, and each metamorphic oracle builds one server
        executed = []
        execute_parsed = connection.Connection.execute_parsed

        def counting_execute_parsed(self, sql, statements):
            executed.append((self, sql))
            return execute_parsed(self, sql, statements)

        monkeypatch.setattr(
            connection.Connection, "execute_parsed", counting_execute_parsed
        )
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("tlp", "norec"))
        runner = _table_runner(dialect)
        built = []
        create_server = dialect.create_server
        monkeypatch.setattr(
            dialect, "create_server",
            lambda: built.append(1) or create_server(),
        )
        tlp, norec = TLPOracle(dialect), NoRECOracle(dialect)
        for index, sql in enumerate(_predicate_statements(dialect, 150)):
            outcome = runner.run(sql)
            start, compared = len(executed), norec.compared
            norec.observe(outcome, CaseInfo("P1.1"), index)
            runs = [conn for conn, text in executed[start:]
                    if conn is not runner.connection and text not in TABLE_SETUP]
            assert len(runs) <= 1, sql
            if norec.compared > compared:
                assert len(runs) == 1, sql
            tlp.observe(outcome, CaseInfo("P1.1"), index)
        assert norec.compared > 50 and tlp.compared > 50
        assert len(built) == 2  # one server per oracle

    @pytest.mark.parametrize("faults", [None, "default"])
    @pytest.mark.parametrize(
        "dialect_cls", all_dialect_classes(), ids=lambda cls: cls.name
    )
    def test_runner_fingerprint_equals_an_optimized_server(
        self, dialect_cls, faults, monkeypatch
    ):
        # the premise of reusing the runner's run: on every compared
        # statement, clean or under injected faults, its fingerprint is
        # what a fresh optimized server over the seeded table returns
        compared = []
        fresh = {}
        check = NoRECOracle._check

        def checking(self, outcome):
            pair = check(self, outcome)
            if pair is not None:
                server = fresh.setdefault(id(self), TLPOracle(self.dialect))
                optimized = server._fingerprint(outcome.sql, outcome.statements)
                if optimized is not None:
                    compared.append((outcome.sql, pair[0] == optimized))
            return pair

        monkeypatch.setattr(NoRECOracle, "_check", checking)
        seeds = SeedCollector(dialect_cls()).collect()
        run_campaign(config=CampaignConfig(
            dialect=dialect_cls.name, budget=len(seeds) + 200,
            oracles=("crash", "tlp", "norec"), statement_family="predicate",
            faults=faults, fault_seed=1,
        ))
        assert [sql for sql, same in compared if not same] == []
        assert len(compared) > 50


# ---------------------------------------------------------------------------
# TLP's IS-TRUE camp is the runner's own execution
# ---------------------------------------------------------------------------
class TestTLPReusesTheRunnersRun:
    def test_one_two_camp_execution_per_compared_statement(self, monkeypatch):
        # the runner's rows are the IS-TRUE camp: TLP's server runs each
        # compared statement's IS-FALSE and IS-NULL camps as one union,
        # never the IS-TRUE camp, and the base query once
        executed = []
        execute_parsed = connection.Connection.execute_parsed

        def counting_execute_parsed(self, sql, statements):
            executed.append((self, sql, statements))
            return execute_parsed(self, sql, statements)

        monkeypatch.setattr(
            connection.Connection, "execute_parsed", counting_execute_parsed
        )
        dialect = dialect_by_name("duckdb")
        dialect.install_logic_flaws(predicate_kinds=("tlp", "norec"))
        runner = _table_runner(dialect)
        built = []
        create_server = dialect.create_server
        monkeypatch.setattr(
            dialect, "create_server",
            lambda: built.append(1) or create_server(),
        )
        tlp = TLPOracle(dialect)
        bases = 0
        for index, sql in enumerate(_predicate_statements(dialect, 150)):
            outcome = runner.run(sql)
            start, compared = len(executed), tlp.compared
            tlp.observe(outcome, CaseInfo("P1.1"), index)
            runs = [
                (text, statements) for conn, text, statements in executed[start:]
                if conn is not runner.connection and text not in TABLE_SETUP
            ]
            bases += sum(text == BASE_QUERY for text, _ in runs)
            runs = [run for run in runs if run[0] != BASE_QUERY]
            assert len(runs) <= 1, sql
            if tlp.compared == compared:
                continue
            assert len(runs) == 1, sql
            ((text, (union,)),) = runs
            (stmt,) = outcome.statements
            assert isinstance(union, SetOp) and union.op == "UNION", sql
            assert union.all, sql
            false_camp, null_camp = union.left, union.right
            assert isinstance(false_camp, Select), sql
            assert isinstance(null_camp, Select), sql
            assert false_camp.where == UnaryOp("NOT", stmt.where), sql
            assert null_camp.where == IsNullExpr(stmt.where), sql
            assert stmt.where not in (false_camp.where, null_camp.where), sql
            assert text == tlp_camps_statement(
                BASE_QUERY[:-1],
                sql[len(PREDICATE_PREFIX):].strip().rstrip(";").rstrip(),
            )
        assert tlp.compared > 50
        assert len(built) == 1 and bases == 1  # one server, one base run

    @pytest.mark.parametrize("faults", [None, "default"])
    @pytest.mark.parametrize(
        "dialect_cls", all_dialect_classes(), ids=lambda cls: cls.name
    )
    def test_partition_equals_the_three_camp_union(
        self, dialect_cls, faults, monkeypatch
    ):
        # the premise of reusing the runner's rows: on every compared
        # statement, clean or under injected faults, the runner's rows
        # plus the two-camp union fingerprint like the three-camp union
        # on a fresh optimizing server
        compared = []
        fresh = {}
        check = TLPOracle._check

        def checking(self, outcome):
            pair = check(self, outcome)
            if pair is not None:
                server = fresh.setdefault(id(self), TLPOracle(self.dialect))
                (stmt,) = outcome.statements
                predicate = outcome.sql[len(PREDICATE_PREFIX):]
                predicate = predicate.strip().rstrip(";").rstrip()
                three = server._fingerprint(
                    tlp_partition_statement(BASE_QUERY[:-1], predicate),
                    [tlp_union(stmt)],
                )
                compared.append((outcome.sql, pair[1] == three))
            return pair

        monkeypatch.setattr(TLPOracle, "_check", checking)
        seeds = SeedCollector(dialect_cls()).collect()
        run_campaign(config=CampaignConfig(
            dialect=dialect_cls.name, budget=len(seeds) + 500,
            oracles=("crash", "tlp", "norec"), statement_family="predicate",
            faults=faults, fault_seed=1,
        ))
        print(f"{dialect_cls.name} faults={faults}: "
              f"{len(compared)} partitions compared")
        assert [sql for sql, same in compared if not same] == []
        assert len(compared) >= 200


# ---------------------------------------------------------------------------
# campaign-level recall and the zero-false-positive guard
# ---------------------------------------------------------------------------
class TestMetamorphicCampaign:
    def test_combined_campaign_finds_both_flaws_attributed(self):
        config = CampaignConfig(
            dialect="duckdb", budget=1_500, seed=3,
            oracles=("crash", "tlp", "norec"),
            statement_family="predicate",
        )
        result = Campaign(dialect_by_name("duckdb"), config=config).run()
        found = {f.attribution.flaw_id for f in result.findings
                 if getattr(f, "attribution", None) is not None}
        expected = {
            find_predicate_flaw("duckdb", "tlp").flaw_id,
            find_predicate_flaw("duckdb", "norec").flaw_id,
        }
        assert expected <= found
        assert all(f.attribution is not None for f in result.findings)

    def test_clean_predicate_stream_has_zero_findings(self):
        # build_pipeline would install the seeded flaws, so drive the
        # oracles by hand over a flaw-free predicate campaign: every
        # comparison must come back quiet
        dialect = dialect_by_name("duckdb")
        pipeline = OraclePipeline(
            [TLPOracle(dialect), NoRECOracle(dialect)]
        )
        seeds = SeedCollector(dialect).collect()
        engine = PatternEngine(
            seeds, statement_family="predicate"
        )
        runner = _table_runner(dialect)
        for index, case in enumerate(engine.generate_all()):
            if index >= 400:
                break
            outcome = runner.run(case.sql)
            info = CaseInfo(case.pattern, case.seed_function, case.seed_family)
            assert pipeline.observe(outcome, info, index) == []
        for oracle in pipeline.oracles:
            assert oracle.findings() == []
            # the guard must not skip everything, for either law
            assert oracle.compared > 0, oracle.name

    def test_checkpoint_resume_reproduces_findings(self, tmp_path):
        path = str(tmp_path / "cp.json")
        config = CampaignConfig(
            dialect="duckdb", budget=1_500, seed=3,
            oracles=("crash", "tlp", "norec"),
            statement_family="predicate",
            checkpoint_path=path, checkpoint_every=400,
        )
        full = run_campaign(config=config)
        assert full.findings  # premise: this budget finds the flaws
        resumed = run_campaign(config=config, resume=True)
        assert resumed.signature() == full.signature()
        assert [f.signature_tuple() for f in resumed.findings] == \
            [f.signature_tuple() for f in full.findings]

    def test_expression_family_ignores_metamorphic_oracles(self):
        # the metamorphic oracles only understand the table workload; on
        # the default expression stream they observe nothing and the
        # campaign reports no findings
        result = run_campaign("duckdb", budget=300, seed=3,
                              oracles=METAMORPHIC)
        assert result.findings == []

    def test_config_validates_statement_family(self):
        with pytest.raises(ValueError, match="statement_family"):
            CampaignConfig(dialect="duckdb", statement_family="join")
        with pytest.raises(ValueError, match="sandbox"):
            CampaignConfig(
                dialect="duckdb", statement_family="predicate", sandbox=True
            )


# ---------------------------------------------------------------------------
# bug-repository replay of metamorphic records (repro bugs replay)
# ---------------------------------------------------------------------------
class TestMetamorphicReplay:
    @pytest.mark.parametrize("kind", ["tlp", "norec"])
    def test_replay_fires_against_seeded_ground_truth(self, tmp_path, kind):
        repo = BugRepository(str(tmp_path / "bugs.sqlite"))
        flaw = find_predicate_flaw("duckdb", kind)
        repo.record_finding(
            {
                "kind": kind, "label": "WRONGCARD", "dialect": "duckdb",
                "function": flaw.function, "sql": flaw.poc,
                "pattern": flaw.pattern,
            },
            minimize=False,
        )
        report = repo.replay(dialect="duckdb")
        (outcome,) = report.outcomes
        assert outcome.observed == f"{kind}:cardinality"
        assert outcome.fires and not outcome.flipped
