"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

D1 boundary pool vs uniform random literals
D2 the Finding-3 nesting cap (1 vs 2)
D3 seed sources: documentation-only vs documentation + regression suite
D4 pattern families in isolation (P1 / P2 / P3)
D5 result-type-aware partner ordering vs naive ordering
"""

import itertools
import random

import pytest

from repro.core.collect import SeedCollector
from repro.core.oracles import CrashOracle
from repro.core.patterns import PatternEngine
from repro.core.runner import Runner
from repro.dialects import bugs_for, dialect_by_name
from repro.sqlast import IntegerLit, StringLit

from _shared import SCALE, emit, shape_line

ABLATION_BUDGET = max(int(25_000 * SCALE), 1_000)
DIALECT = "mariadb"   # the densest bug population among the studied DBMSs


def run_variant(configure=None, patterns=None, seeds_filter=None, budget=None):
    """Run a reduced campaign with a modified generation pipeline and
    return the number of attributed bugs discovered."""
    dialect = dialect_by_name(DIALECT)
    runner = Runner(dialect)
    oracle = CrashOracle(DIALECT)
    seeds = SeedCollector(dialect).collect()
    if seeds_filter is not None:
        seeds = seeds_filter(seeds)
    return_types = {}
    for seed in seeds:
        outcome = runner.run(f"SELECT {seed.sql};")
        if outcome.kind == "crash" and outcome.crash:
            oracle.observe_crash(outcome.crash, outcome.sql, "seed", runner.executed)
        if outcome.result_type and seed.function not in return_types:
            return_types[seed.function] = outcome.result_type
    engine = PatternEngine(seeds, return_types=return_types)
    if configure is not None:
        configure(engine)

    def stream():
        if patterns is None:
            yield from engine.generate_all()
            return
        per_seed = [
            [getattr(engine, p)(seed) for p in patterns] for seed in engine.seeds
        ]
        iterators = [it for group in per_seed for it in group]
        pending = list(iterators)
        while pending:
            still = []
            for iterator in pending:
                batch = list(itertools.islice(iterator, 2))
                if batch:
                    still.append(iterator)
                    for case in batch:
                        yield case
            pending = still

    limit = budget or ABLATION_BUDGET
    for case in stream():
        if runner.executed >= limit:
            break
        outcome = runner.run(case.sql)
        if outcome.kind == "crash" and outcome.crash:
            oracle.observe_crash(outcome.crash, case.sql, case.pattern, runner.executed)
    return len(oracle.attributed), oracle


def test_ablation_d1_boundary_pool(benchmark):
    """Replacing the boundary pool with small random literals guts the
    P1.x patterns (isolated to the P1 streams so the effect is visible)."""
    p1 = ["p1_2", "p1_3", "p1_4"]

    def run_both():
        full, _ = run_variant(patterns=p1)

        def neuter_pool(engine):
            rng = random.Random(1)
            engine.pool = [
                IntegerLit(str(rng.randint(1, 100))) for _ in range(20)
            ] + [StringLit("abc"), StringLit("xy")]

        gutted, _ = run_variant(configure=neuter_pool, patterns=["p1_2"])
        return full, gutted

    full, gutted = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = ["Ablation D1 — boundary literal pool vs uniform random literals "
             "(P1 patterns only)",
             shape_line("P1 bugs with boundary pool", "(more)", full, True),
             shape_line("P1 bugs with random literals", "(fewer)", gutted,
                        gutted < full)]
    emit("ablation_d1_literal_pool", "\n".join(lines))
    assert gutted < full


def test_ablation_d2_nesting_cap(benchmark):
    """Dropping the nesting patterns (cap=1) loses the P3-class bugs."""

    def run_both():
        full, _ = run_variant()
        no_nesting, _ = run_variant(
            patterns=["p1_2", "p1_3", "p1_4", "p2_1", "p2_2", "p2_3"]
        )
        return full, no_nesting

    full, no_nesting = benchmark.pedantic(run_both, rounds=1, iterations=1)
    p3_bugs = sum(1 for b in bugs_for(DIALECT) if b.pattern.startswith("P3"))
    lines = ["Ablation D2 — nesting patterns disabled (Finding 3 cap = 1)",
             shape_line("bugs with all patterns", "(more)", full, True),
             shape_line("bugs without P3.x", f"(loses up to {p3_bugs})",
                        no_nesting, no_nesting < full)]
    emit("ablation_d2_nesting", "\n".join(lines))
    assert no_nesting < full


def test_ablation_d3_seed_sources(benchmark):
    """Documentation-only seeds (no regression-suite scan) lose the
    format-rich argument corpus that P2.3/P1.3/P1.4 feed on."""

    def synthetic_only(seeds):
        # rebuild the corpus as documentation-derived minimal seeds
        dialect = dialect_by_name(DIALECT)
        collector = SeedCollector(dialect)
        out = []
        for name in dialect.registry.names():
            seed = collector._synthetic_seed(name)
            if seed is not None:
                out.append(seed)
        return out

    def run_both():
        full, full_oracle = run_variant(budget=int(ABLATION_BUDGET * 1.6))
        docs_only, docs_oracle = run_variant(
            seeds_filter=synthetic_only, budget=int(ABLATION_BUDGET * 1.6)
        )
        full_ids = {b.injected.bug_id for b in full_oracle.attributed}
        docs_ids = {b.injected.bug_id for b in docs_oracle.attributed}
        return full, docs_only, full_ids, docs_ids

    full, docs_only, full_ids, docs_ids = benchmark.pedantic(
        run_both,
        rounds=1, iterations=1,
    )
    # the suite-derived corpus carries format-rich arguments (JSON paths,
    # XPaths, format strings); without it the P2.3 format-transplant bugs
    # are unreachable no matter how deep the enumeration goes
    format_bugs = {b.bug_id for b in bugs_for(DIALECT)
                   if b.pattern == "P2.3"}
    missed_formats = format_bugs - docs_ids
    lines = ["Ablation D3 — seeds from documentation only vs docs + test suite",
             shape_line("bugs with both sources", "(baseline)", full, True),
             shape_line("bugs with docs-only seeds", "(different mix)",
                        docs_only, True),
             shape_line("format-transplant (P2.3) bugs missed docs-only",
                        f">= 1 of {sorted(format_bugs)}",
                        sorted(missed_formats), bool(missed_formats)),
             shape_line("bugs only the suite-derived corpus found",
                        ">= 1", len(full_ids - docs_ids),
                        bool(full_ids - docs_ids))]
    emit("ablation_d3_seed_sources", "\n".join(lines))
    assert missed_formats, "docs-only seeds unexpectedly reached P2.3 format bugs"
    assert full_ids - docs_ids


def test_ablation_d4_pattern_families(benchmark):
    """Each pattern family finds (roughly) its own bug population."""

    def run_families():
        out = {}
        out["P1"], o1 = run_variant(patterns=["p1_2", "p1_3", "p1_4"])
        out["P2"], o2 = run_variant(patterns=["p2_1", "p2_2", "p2_3"])
        out["P3"], o3 = run_variant(patterns=["p3_1", "p3_2", "p3_3"])
        return out

    counts = benchmark.pedantic(run_families, rounds=1, iterations=1)
    expected = {
        fam: sum(1 for b in bugs_for(DIALECT) if b.pattern.startswith(fam))
        for fam in ("P1", "P2", "P3")
    }
    lines = [f"Ablation D4 — pattern families in isolation ({DIALECT})"]
    for fam in ("P1", "P2", "P3"):
        lines.append(shape_line(
            f"{fam}.x alone finds", f"<= {expected[fam]} ({fam} population)",
            counts[fam], counts[fam] >= 1,
        ))
    emit("ablation_d4_pattern_families", "\n".join(lines))
    assert all(counts[f] >= 1 for f in counts)
    # no single family finds everything: the mix is what gets to 24
    assert max(counts.values()) < sum(expected.values())


def test_ablation_d5_partner_ordering(benchmark):
    """Type-aware partner ordering discovers the nested-type bugs within a
    small budget; naive ordering needs more queries."""
    small = max(int(8_000 * SCALE), 500)

    def run_both():
        smart, _ = run_variant(budget=small)

        def naive(engine):
            ordered = sorted(
                {p.function: p for p in engine.seeds}.values(),
                key=lambda s: s.function,
            )
            engine._partners = list(ordered)

        dumb, _ = run_variant(configure=naive, budget=small)
        return smart, dumb

    smart, dumb = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = ["Ablation D5 — result-type-aware partner ordering",
             shape_line("bugs with type-aware ordering", "(more)", smart, True),
             shape_line("bugs with alphabetical ordering", "(fewer or equal)",
                        dumb, dumb <= smart)]
    emit("ablation_d5_partner_order", "\n".join(lines))
    assert dumb <= smart
