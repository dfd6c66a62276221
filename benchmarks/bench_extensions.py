"""Benchmarks for the post-paper extensions (§8 discussion items):

* PoC minimisation quality across the full injected-bug population;
* the metamorphic oracles' soundness on all seven engines (and their
  recall of the seeded predicate flaws, with attribution).
"""

from repro.core.campaign import run_campaign
from repro.core.minimize import minimize_poc
from repro.dialects import all_bugs, all_dialect_classes, dialect_names
from repro.dialects.bugs import find_predicate_flaw

from _shared import emit, shape_line

#: a short predicate-family campaign with both metamorphic oracles on
METAMORPHIC = dict(
    budget=1_500, seed=3, statement_family="predicate",
    oracles=("crash", "tlp", "norec"),
)


def test_minimization_quality(benchmark):
    """Every injected PoC minimises without losing its crash identity, and
    the corpus-wide reduction is substantial."""

    def minimize_all():
        dialects = {cls.name: cls() for cls in all_dialect_classes()}
        total_before = total_after = 0
        worst = ("", 0.0)
        for bug in all_bugs():
            result = minimize_poc(dialects[bug.dbms], bug.poc, max_attempts=250)
            total_before += len(result.original)
            total_after += len(result.minimized)
            if result.reduction < worst[1]:
                worst = (bug.bug_id, result.reduction)
        return total_before, total_after, worst

    before, after, worst = benchmark.pedantic(
        minimize_all, rounds=1, iterations=1)
    reduction = 1 - after / before
    lines = ["Extension — PoC minimisation over all 132 injected bugs",
             shape_line("total PoC characters before", "-", before, True),
             shape_line("total PoC characters after", "-", after, True),
             shape_line("aggregate reduction", "> 0%", f"{reduction:.1%}",
                        reduction > 0),
             shape_line("no PoC grew", ">= 0", worst, worst[1] >= 0)]
    emit("extension_minimization", "\n".join(lines))
    assert reduction > 0
    assert worst[1] >= 0


def test_logic_oracles_on_all_engines(benchmark):
    """TLP + NoREC are silent on every engine without seeded predicate
    flaws, and find and attribute each seeded flaw where there is one."""

    def run_all():
        return {name: run_campaign(name, **METAMORPHIC).findings
                for name in dialect_names()}

    findings = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = ["Extension — metamorphic oracles (TLP + NoREC, §8 discussion)"]
    ok = True
    for name, found in findings.items():
        seeded = {kind for kind in ("tlp", "norec")
                  if find_predicate_flaw(name, kind) is not None}
        attributed = {f.oracle for f in found if f.attribution is not None}
        expected = ",".join(sorted(seeded)) or "none"
        measured = ",".join(sorted({f.oracle for f in found})) or "none"
        row_ok = attributed == seeded and len(found) == len(seeded)
        ok = ok and row_ok
        lines.append(shape_line(f"{name} laws broken", expected, measured,
                                row_ok))
    emit("extension_logic_oracles", "\n".join(lines))
    assert ok
