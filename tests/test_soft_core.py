"""Tests for SOFT's core: collection, boundary pool, the ten patterns."""

import dataclasses
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import collect
from repro.core.campaign import run_campaign
from repro.core.collect import Seed, SeedCollector
from repro.core.literals import boundary_literals, boundary_repeat_counts
from repro.core.patterns import MAX_FUNCTION_CALLS, PatternEngine
from repro.dialects import dialect_by_name
from repro.sqlast import (
    FuncCall,
    NullLit,
    Star,
    StringLit,
    parse_expression,
    parse_statement,
    to_sql,
)
from repro.service import signature_digest
from repro.sqlast.visitor import count_function_calls, find_function_calls


@pytest.fixture(scope="module")
def mariadb():
    return dialect_by_name("mariadb")


@pytest.fixture(scope="module")
def seeds(mariadb):
    return SeedCollector(mariadb).collect()


def make_seed(sql, family="string"):
    expr = parse_expression(sql)
    return Seed(expr.name.lower(), family, expr, source="test")


def engine_for(*seed_sqls):
    seeds = [make_seed(s) for s in seed_sqls]
    return PatternEngine(seeds), seeds


class TestCollection:
    def test_collects_most_functions(self, mariadb, seeds):
        collected = {s.function for s in seeds}
        known = set(mariadb.registry.names())
        # every function gets at least a synthetic seed
        assert known <= collected | {"count"} or len(known - collected) < 5

    def test_seed_expressions_parse_back(self, seeds):
        for seed in seeds[:50]:
            assert isinstance(parse_statement(f"SELECT {seed.sql};"), object)

    def test_paren_scan_lifts_known_calls(self, mariadb):
        collector = SeedCollector(mariadb)
        calls = collector.scan_query(
            "SELECT UPPER(c0), nope(1) FROM t WHERE LENGTH(c1) > 2;",
            {"upper", "length"},
        )
        assert sorted(c.name.lower() for c in calls) == ["length", "upper"]

    def test_paren_scan_survives_garbage(self, mariadb):
        collector = SeedCollector(mariadb)
        assert collector.scan_query("SELECT 'unterminated", {"upper"}) == []

    def test_paren_scan_nested_expression(self, mariadb):
        collector = SeedCollector(mariadb)
        calls = collector.scan_query(
            "SELECT CONCAT(UPPER('a'), 'b');", {"concat", "upper"}
        )
        names = sorted(c.name.lower() for c in calls)
        assert names == ["concat", "upper"]

    def test_max_seeds_per_function(self, mariadb):
        collector = SeedCollector(mariadb, max_seeds_per_function=1)
        seeds = collector.collect()
        from collections import Counter

        counts = Counter(s.function for s in seeds)
        assert max(counts.values()) == 1

    def test_synthetic_seed_for_undocumented_function(self, mariadb):
        collector = SeedCollector(mariadb)
        seed = collector._synthetic_seed("upper")
        assert seed is not None
        assert seed.source == "documentation"


class TestSeedMemo:
    """Each process collects a dialect's seeds once per distinct input."""

    def test_repeat_collection_shares_seeds_in_a_fresh_list(self, mariadb):
        first = SeedCollector(mariadb).collect()
        second = SeedCollector(mariadb).collect()
        assert second == first and second is not first
        assert all(a is b for a, b in zip(first, second))

    def test_seeds_are_frozen(self, seeds):
        with pytest.raises(dataclasses.FrozenInstanceError):
            seeds[0].function = "other"

    def test_a_different_suite_gets_different_seeds(self):
        plain = dialect_by_name("mariadb")
        edited = dialect_by_name("mariadb")
        edited.test_suite = lambda: ["SELECT UPPER('zzz');"]
        before = [s.sql for s in SeedCollector(plain).collect()]
        after = [s.sql for s in SeedCollector(edited).collect()]
        assert "UPPER('zzz')" in after and "UPPER('zzz')" not in before
        # the edited instance did not replace the plain one's entry
        assert [s.sql for s in SeedCollector(plain).collect()] == before

    def test_a_different_min_args_gets_a_different_synthetic_seed(self):
        plain, edited = dialect_by_name("mariadb"), dialect_by_name("mariadb")
        for dialect in (plain, edited):
            dialect.test_suite = lambda: []
        upper = edited.registry.lookup("upper")
        edited.registry.register(dataclasses.replace(upper, min_args=2))

        def upper_seed(dialect):
            seeds = SeedCollector(dialect).collect()
            return next(s.sql for s in seeds if s.function == "upper")

        assert upper_seed(plain) == "UPPER('abc')"
        assert upper_seed(edited) == "UPPER('abc', 'abc')"

    def test_memo_holds_at_most_eight_entries(self, mariadb):
        collect._MEMO.clear()
        first = {}
        for cap in range(1, 11):
            first[cap] = SeedCollector(mariadb, max_seeds_per_function=cap).collect()
            assert len(collect._MEMO) <= 8
        assert len(collect._MEMO) == 8

        def remembered(cap):
            again = SeedCollector(mariadb, max_seeds_per_function=cap).collect()
            return all(a is b for a, b in zip(again, first[cap]))

        # the two least recently used went; the newest eight are hits
        assert [remembered(cap) for cap in (10, 3, 2)] == [True, True, False]

    def test_threads_racing_on_the_memo(self):
        """Service workers are threads; evictions racing with hits must
        neither raise nor hand out another cap's seeds."""
        def dialect():
            d = dialect_by_name("mariadb")
            d.test_suite = lambda: ["SELECT UPPER('a'), UPPER('b');"]
            return d

        caps = range(1, 10)  # one key more than the memo holds
        expected = {
            cap: [s.sql for s in SeedCollector(dialect(), cap).collect()]
            for cap in caps
        }
        errors = []

        def worker(seed):
            subject, rng = dialect(), random.Random(seed)
            try:
                for _ in range(150):
                    cap = rng.choice(caps)
                    seeds = SeedCollector(subject, cap).collect()
                    assert [s.sql for s in seeds] == expected[cap]
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(collect._MEMO) <= 8

    def test_campaigns_sign_like_a_fresh_process(self):
        collect._MEMO.clear()
        digests = [
            signature_digest(run_campaign("duckdb", budget=400))
            for _ in range(2)
        ]
        script = (
            "from repro.core.campaign import run_campaign\n"
            "from repro.service import signature_digest\n"
            "print(signature_digest(run_campaign('duckdb', budget=400)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300, check=True,
        ).stdout.strip()
        assert digests == [fresh, fresh]


class TestBoundaryPool:
    def test_contains_paper_families(self):
        pool = boundary_literals()
        rendered = [to_sql(e) for e in pool]
        assert "''" in rendered
        assert "NULL" in rendered
        assert "*" in rendered
        assert "99999" in rendered
        assert "-(99999)" in rendered or any("-" in r and "99999" in r for r in rendered)
        assert "0.99999" in rendered

    def test_enumerates_digit_lengths(self):
        pool = boundary_literals()
        lengths = set()
        for expr in pool:
            text = to_sql(expr)
            if set(text) == {"9"}:
                lengths.add(len(text))
        assert len(lengths) >= 8  # many digit lengths, per §6

    def test_repeat_counts_include_oom_bound(self):
        assert 9999999999 in boundary_repeat_counts()


class TestPatternShapes:
    def test_p1_2_substitutes_pool(self):
        engine, seeds = engine_for("F('abc', 1)")
        cases = list(engine.p1_2(seeds[0]))
        sqls = [c.sql for c in cases]
        assert "SELECT F(NULL, 1);" in sqls
        assert "SELECT F('abc', NULL);" in sqls
        assert "SELECT F(*, 1);" in sqls
        assert any("99999" in s for s in sqls)
        assert all(c.pattern == "P1.2" for c in cases)

    def test_p1_3_injects_digit_runs(self):
        engine, seeds = engine_for("F('hello')")
        sqls = [c.sql for c in engine.p1_3(seeds[0])]
        assert any("99999" in s for s in sqls)
        # the run replaces one character at sampled positions (start/mid/end)
        assert any("99999ello" in s for s in sqls)
        assert any("he99999lo" in s for s in sqls)

    def test_p1_3_widens_numbers(self):
        engine, seeds = engine_for("F(1.5)")
        sqls = [c.sql for c in engine.p1_3(seeds[0])]
        assert any(s.count("9") >= 20 for s in sqls)

    def test_p1_4_duplicates_characters(self):
        engine, seeds = engine_for("F('{\"k\": 0}')")
        sqls = [c.sql for c in engine.p1_4(seeds[0])]
        assert any("{{{{" in s for s in sqls)

    def test_p1_4_malformed_array_becomes_string(self):
        engine, seeds = engine_for("F([1, 2])")
        sqls = [c.sql for c in engine.p1_4(seeds[0])]
        assert any("'[[1, 2]'" in s for s in sqls)

    def test_p2_1_casts_args(self):
        engine, seeds = engine_for("F('abc')")
        sqls = [c.sql for c in engine.p2_1(seeds[0])]
        assert any("CAST('abc' AS BINARY)" in s for s in sqls)
        assert any("AS DECIMAL(30, 28)" in s for s in sqls)
        assert any("AS UNSIGNED" in s for s in sqls)

    def test_p2_2_builds_unions(self):
        engine, seeds = engine_for("F(1)")
        sqls = [c.sql for c in engine.p2_2(seeds[0])]
        assert any("UNION SELECT NULL" in s for s in sqls)
        assert any("UNION ALL SELECT 1" in s for s in sqls)

    def test_p2_3_transplants_donor_args(self):
        engine, _ = engine_for("F('abc')", "G('$[0]', 1)")
        seed = engine.seeds[0]
        sqls = [c.sql for c in engine.p2_3(seed)]
        assert any("F('$[0]')" in s for s in sqls)

    def test_p3_1_builds_repeats(self):
        engine, seeds = engine_for("F('[1,]')")
        sqls = [c.sql for c in engine.p3_1(seeds[0])]
        assert any("REPEAT('[', 999)" in s for s in sqls)
        assert any("REPEAT('[1,', 99999)" in s for s in sqls)

    def test_p3_1_handles_numeric_literal(self):
        engine, seeds = engine_for("F(0)")
        sqls = [c.sql for c in engine.p3_1(seeds[0])]
        assert any("REPEAT('0'" in s for s in sqls)

    def test_p3_2_wraps_argument(self):
        engine, _ = engine_for("F('abc')", "G('x', 2)")
        seed = engine.seeds[0]
        sqls = [c.sql for c in engine.p3_2(seed)]
        assert any("F(G('abc', 2))" in s for s in sqls)

    def test_p3_3_substitutes_whole_call(self):
        engine, _ = engine_for("F('abc')", "G('x', 2)")
        seed = engine.seeds[0]
        sqls = [c.sql for c in engine.p3_3(seed)]
        assert any("F(G('x', 2))" in s for s in sqls)

    def test_nesting_cap_respected(self):
        """Finding 3: seeds already holding two calls are not nested further."""
        engine, _ = engine_for("F(G('x'))", "H('y')")
        seed = engine.seeds[0]
        assert list(engine.p3_2(seed)) == []
        assert list(engine.p3_3(seed)) == []
        assert list(engine.p3_1(seed)) == []

    def test_generated_cases_never_exceed_two_calls_from_nesting(self):
        engine, _ = engine_for("F('abc')", "G('x')", "H('y')")
        for case in engine.generate_for_seed(engine.seeds[0]):
            stmt = parse_statement(case.sql)
            if case.pattern in ("P3.1", "P3.2", "P3.3"):
                assert count_function_calls(stmt) <= MAX_FUNCTION_CALLS

    def test_all_generated_cases_parse(self):
        engine, _ = engine_for("F('abc', 1)", "G('$[0]')", "H(2, 'b')")
        count = 0
        for case in engine.generate_for_seed(engine.seeds[0]):
            parse_statement(case.sql)  # must not raise
            count += 1
        assert count > 100

    def test_interleaving_reaches_every_pattern_early(self):
        engine, _ = engine_for("F('abc', 1)", "G('$[0]')")
        first = [c.pattern for c in list(engine.generate_for_seed(engine.seeds[0]))[:18]]
        assert len(set(first)) == 9  # all nine streams sampled

    def test_seed_clone_isolation(self):
        """Pattern application must never mutate the seed expression."""
        engine, seeds = engine_for("F('abc')")
        before = seeds[0].sql
        for _ in engine.generate_for_seed(seeds[0]):
            pass
        assert seeds[0].sql == before


class TestPartnerOrdering:
    def test_exotic_producers_come_first(self):
        seeds = [
            make_seed("A('x')", family="string"),
            make_seed("B('y')", family="string"),
            make_seed("PROD('z')", family="inet"),
        ]
        engine = PatternEngine(seeds, return_types={"prod": "bytes"})
        partners = engine.partners_for(seeds[0])
        assert partners[0].function == "prod"

    def test_partners_exclude_self_and_dedupe(self):
        seeds = [make_seed("A('x')"), make_seed("A('y')"), make_seed("B('z')")]
        engine = PatternEngine(seeds)
        partners = engine.partners_for(seeds[0])
        names = [p.function for p in partners]
        assert "a" not in names
        assert names.count("b") == 1

    def test_donors_prefer_symbol_prefixes(self):
        engine, _ = engine_for("F('abc')", "G('$[0]')", "H('/a/b')", "I('zz')")
        heads = [to_sql(d)[1] for d in engine._donors if to_sql(d).startswith("'")]
        # symbols appear before alphanumerics
        symbol_positions = [i for i, h in enumerate(heads) if h in "$/"]
        alnum_positions = [i for i, h in enumerate(heads) if h.isalnum()]
        assert symbol_positions and max(symbol_positions) < min(alnum_positions)
