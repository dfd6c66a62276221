"""Table 3: literal examples generated by Patterns 1.3 and 1.4.

The paper's Table 3 shows how the two string-mutation patterns turn
ordinary literals into boundary literals (digit runs, duplicated format
characters).  This benchmark regenerates the examples from the shipped
pattern engine and checks the shapes the paper's prose calls out —
``JSON('{"key": 999990}')`` and ``JSON('{{{{{"key": 0}')``.
"""

from repro.core.collect import Seed
from repro.core.patterns import PatternEngine
from repro.sqlast import parse_expression

from _shared import emit, shape_line


def _engine(seed_sql):
    expr = parse_expression(seed_sql)
    seed = Seed(expr.name.lower(), "json", expr, source="bench")
    return PatternEngine([seed]), seed


def generate_examples():
    engine, seed = _engine('JSON(\'{"key": 0}\')')
    p13 = [case.sql for case in engine.p1_3(seed)]
    p14 = [case.sql for case in engine.p1_4(seed)]
    return p13, p14


def test_table3_pattern_literal_examples(benchmark):
    p13, p14 = benchmark(generate_examples)
    digit_run_examples = [s for s in p13 if "99999" in s]
    duplicated_brace = [s for s in p14 if "{{{{" in s]
    duplicated_quote = [s for s in p14 if '""' in s or "keey" in s or "kkey" in s]

    lines = ["Table 3 — literal examples from Patterns 1.3 and 1.4 "
             "(seed: JSON('{\"key\": 0}'))"]
    lines.append(shape_line("P1.3 digit-run variants generated",
                            ">= 1 (e.g. {\"key\": 999990})",
                            len(digit_run_examples), bool(digit_run_examples)))
    for example in digit_run_examples[:3]:
        lines.append(f"      {example}")
    lines.append(shape_line("P1.4 duplicated-character variants",
                            ">= 1 (e.g. {{{{{\"key\": 0})",
                            len(duplicated_brace) + len(duplicated_quote),
                            bool(duplicated_brace)))
    for example in (duplicated_brace + duplicated_quote)[:3]:
        lines.append(f"      {example}")
    emit("table3_pattern_examples", "\n".join(lines))

    assert digit_run_examples
    assert duplicated_brace
