"""Injected-bug registry: the ground truth behind Table 4.

Every injected bug is declared as an :class:`InjectedBug` row: which dialect
and function it lives in, its crash class, the boundary-value-generation
pattern expected to find it (Table 4's "Patterns" column), its disclosure
status (confirmed/fixed), and a proof-of-concept statement.  The dialect
modules install the corresponding flawed implementation via
:mod:`repro.dialects.flaws`.

The registry doubles as the oracle's attribution table: a crash is matched
to a bug by ``(dbms, function, crash_class)``, which is unique by
construction (asserted in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.functions.registry import FunctionRegistry
from . import flaws


@dataclass(frozen=True)
class InjectedBug:
    """One injected bug (one row's worth of Table 4)."""

    bug_id: str          # e.g. "MYSQL-AGG-001"
    dbms: str            # dialect name
    function: str        # flawed built-in function (lower-case)
    family: str          # function type (Table 4 column 2)
    crash: str           # NPD | SEGV | UAF | HBOF | GBOF | AF | SO | DBZ
    pattern: str         # P1.1..P3.3 — pattern expected to trigger it
    fixed: bool          # Table 4 status column
    poc: str             # proof-of-concept SQL statement
    description: str     # one-line root-cause description
    trigger_spec: Tuple = ()  # flaw-kind spec used to build the trigger

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.dbms, self.function, self.crash)

    @property
    def pattern_family(self) -> str:
        """"P1", "P2", or "P3" — the §7.3 roll-up granularity."""
        return self.pattern.split(".")[0]


# ---------------------------------------------------------------------------
# trigger-spec mini-language → flaw trigger
# ---------------------------------------------------------------------------
def make_trigger(spec: Tuple) -> flaws.Trigger:
    """Build a trigger predicate from a compact spec tuple.

    Specs: ("empty", i) ("null", i) ("star",) ("wide", digits, i)
    ("digitrun", run, i) ("double", char, n, i) ("castdec", frac, i)
    ("castuns", i) ("castbin", i) ("unionarr", i) ("foreign", prefixes, i)
    ("long", n, i) ("deep", chars, n, i) ("nbytes", i) ("ngeom", i)
    ("njson", i) ("narr", i) ("ndate", i) ("row",) ("zdiv", i) ("neg", i)
    """
    kind = spec[0]
    rest = spec[1:]
    if kind == "empty":
        return flaws.trig_empty_string(*rest)
    if kind == "null":
        return flaws.trig_null_arg(*rest)
    if kind == "star":
        return flaws.trig_star_arg()
    if kind == "wide":
        return flaws.trig_wide_number(*rest)
    if kind == "digitrun":
        return flaws.trig_digit_run(*rest)
    if kind == "double":
        return flaws.trig_char_doubling(*rest)
    if kind == "castdec":
        return flaws.trig_cast_decimal(*rest)
    if kind == "castuns":
        return flaws.trig_cast_unsigned(*rest)
    if kind == "castbin":
        return flaws.trig_cast_binary(*rest)
    if kind == "unionarr":
        return flaws.trig_union_array(*rest)
    if kind == "foreign":
        return flaws.trig_foreign_text(*rest)
    if kind == "long":
        return flaws.trig_long_text(*rest)
    if kind == "deep":
        return flaws.trig_deep_nesting(*rest)
    if kind == "nbytes":
        return flaws.trig_nested_bytes(*rest)
    if kind == "ngeom":
        return flaws.trig_nested_geom(*rest)
    if kind == "njson":
        return flaws.trig_nested_json(*rest)
    if kind == "narr":
        return flaws.trig_nested_array(*rest)
    if kind == "ndate":
        return flaws.trig_nested_date(*rest)
    if kind == "row":
        return flaws.trig_row_arg(*rest)
    if kind == "zdiv":
        return flaws.trig_zero_div(*rest)
    if kind == "neg":
        return flaws.trig_negative(*rest)
    if kind == "big":
        return flaws.trig_big_value(*rest)
    if kind == "arrarr":
        return flaws.trig_array_of_arrays(*rest)
    raise ValueError(f"unknown trigger spec {spec!r}")


# ---------------------------------------------------------------------------
# global registry
# ---------------------------------------------------------------------------
#: every declared bug by id, in declaration order
_ALL_BUGS: Dict[str, InjectedBug] = {}
_dialects_declared = False


def _declare_all_dialects() -> None:
    """Instantiate each dialect once per process: construction declares
    its injected bugs and logic flaws, and repeats would only re-declare
    the same rows."""
    global _dialects_declared
    if _dialects_declared:
        return
    from . import all_dialect_classes

    for cls in all_dialect_classes():
        cls()
    _dialects_declared = True


def register_bugs(
    dbms: str,
    registry: FunctionRegistry,
    rows: Sequence[Tuple],
) -> List[InjectedBug]:
    """Declare and install a dialect's bugs.

    Each row: (function, family, crash, pattern, trigger_spec, poc,
    description[, fixed]) — ``fixed`` defaults to True (the paper's default
    outcome; MySQL/MariaDB rows override it per Table 4's status column).
    """
    installed: List[InjectedBug] = []
    counters: Dict[str, int] = {}
    for row in rows:
        function, family, crash, pattern, trigger_spec, poc, description = row[:7]
        fixed = row[7] if len(row) > 7 else True
        counters[family] = counters.get(family, 0) + 1
        bug = InjectedBug(
            bug_id=f"{dbms.upper()}-{family.upper()[:4]}-{counters[family]:03d}",
            dbms=dbms,
            function=function.lower(),
            family=family,
            crash=crash,
            pattern=pattern,
            fixed=fixed,
            poc=poc,
            description=description,
            trigger_spec=tuple(trigger_spec),
        )
        flaws.install_flaw(registry, bug.function, make_trigger(bug.trigger_spec), crash)
        installed.append(bug)
        _register_global(bug)
    return installed


def _register_global(bug: InjectedBug) -> None:
    # dialects may be instantiated repeatedly (fresh servers); keep one
    # registry entry per bug identity
    _ALL_BUGS.setdefault(bug.bug_id, bug)


def all_bugs() -> List[InjectedBug]:
    """Every injected bug across all dialects (imports the dialects)."""
    _declare_all_dialects()
    return list(_ALL_BUGS.values())


def bugs_for(dbms: str) -> List[InjectedBug]:
    return [b for b in all_bugs() if b.dbms == dbms]


def find_bug(dbms: str, function: str, crash: str) -> Optional[InjectedBug]:
    for bug in all_bugs():
        if bug.key == (dbms, function.lower(), crash):
            return bug
    return None


# ---------------------------------------------------------------------------
# logic flaws: the wrong-result / over-strict ground truth
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LogicFlaw:
    """One seeded non-crashing defect (the logic-bug oracles' ground truth).

    Unlike :class:`InjectedBug`, a logic flaw is *declared* at dialect
    construction but only *installed* on demand
    (:meth:`~repro.dialects.base.Dialect.install_logic_flaws`): the default
    crash-only pipeline must keep every campaign byte-identical to the
    pre-pipeline code, which a permanently miscomputing function would not.
    """

    flaw_id: str         # e.g. "MYSQL-LOGIC-001"
    dbms: str            # dialect name
    function: str        # flawed built-in function (lower-case)
    family: str          # function type
    kind: str            # "wrong" (miscomputes) | "strict" (spurious error)
    pattern: str         # P1.1..P3.3 — pattern expected to trigger it
    poc: str             # proof-of-concept SQL statement
    description: str     # one-line root-cause description
    trigger_spec: Tuple = ()

    #: logic flaws have no upstream fix cycle in the simulation
    fixed: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.dbms, self.function, self.kind)


#: every declared logic flaw by id, in declaration order
_ALL_LOGIC_FLAWS: Dict[str, LogicFlaw] = {}


def register_logic_flaws(dbms: str, rows: Sequence[Tuple]) -> List[LogicFlaw]:
    """Declare a dialect's logic flaws (without installing them).

    Each row: (function, family, kind, pattern, trigger_spec, poc,
    description).  Installation happens lazily via
    :meth:`Dialect.install_logic_flaws` when a logic-bug oracle is enabled.
    """
    declared: List[LogicFlaw] = []
    for index, row in enumerate(rows, start=1):
        function, family, kind, pattern, trigger_spec, poc, description = row
        if kind not in flaws.LOGIC_KINDS + flaws.PREDICATE_KINDS:
            raise ValueError(f"unknown logic-flaw kind {kind!r}")
        flaw = LogicFlaw(
            flaw_id=f"{dbms.upper()}-LOGIC-{index:03d}",
            dbms=dbms,
            function=function.lower(),
            family=family,
            kind=kind,
            pattern=pattern,
            poc=poc,
            description=description,
            trigger_spec=tuple(trigger_spec),
        )
        declared.append(flaw)
        _ALL_LOGIC_FLAWS.setdefault(flaw.flaw_id, flaw)
    return declared


def all_logic_flaws() -> List[LogicFlaw]:
    """Every declared logic flaw across all dialects."""
    _declare_all_dialects()
    return list(_ALL_LOGIC_FLAWS.values())


def logic_flaws_for(dbms: str) -> List[LogicFlaw]:
    return [f for f in all_logic_flaws() if f.dbms == dbms]


def find_logic_flaw(
    dbms: str, function: str, kind: Optional[str] = None
) -> Optional[LogicFlaw]:
    for flaw in all_logic_flaws():
        if flaw.dbms != dbms or flaw.function != function.lower():
            continue
        if kind is None or flaw.kind == kind:
            return flaw
    return None


def find_predicate_flaw(dbms: str, kind: str) -> Optional[LogicFlaw]:
    """The dialect's seeded predicate-level flaw of *kind* ("tlp"/"norec").

    Predicate flaws are engine-wide knobs, not per-function patches, so a
    metamorphic finding attributes by (dialect, kind) alone — whatever
    statement exposed the broken law, the root cause is the same defect.
    """
    for flaw in all_logic_flaws():
        if flaw.dbms == dbms and flaw.kind == kind:
            return flaw
    return None


def table4_totals() -> Dict[str, int]:
    """Aggregates used by the Table 4 benchmark and the tests."""
    bugs = all_bugs()
    out: Dict[str, int] = {"total": len(bugs), "fixed": sum(b.fixed for b in bugs)}
    for bug in bugs:
        out[f"dbms:{bug.dbms}"] = out.get(f"dbms:{bug.dbms}", 0) + 1
        out[f"crash:{bug.crash}"] = out.get(f"crash:{bug.crash}", 0) + 1
        out[f"patfam:{bug.pattern_family}"] = out.get(f"patfam:{bug.pattern_family}", 0) + 1
    return out
