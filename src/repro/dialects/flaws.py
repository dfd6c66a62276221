"""Flawed-implementation building blocks for bug injection.

Each *flaw kind* below is a realistic defect written against the simulated
memory model (:mod:`repro.engine.memory`): the crash **emerges** from a
miscomputed allocation, a missing NULL check, an unchecked recursion — it is
never a bare ``raise``.  A dialect instantiates a flaw kind for a specific
function; the flawed wrapper runs the defective code path when the boundary
condition holds and defers to the original implementation otherwise, exactly
how a real bug hides behind a branch that ordinary inputs never take.

The triggering boundary conditions are aligned with the paper's ten
boundary-value-generation patterns (§6):

=============  ===========================================================
flaw kind      boundary condition (pattern that reaches it)
=============  ===========================================================
empty_string   '' argument (P1.1/P1.2 boundary pool)
null_arg       NULL argument slipping past a missing check (P1.2)
star_arg       the ``*`` marker as an argument (P1.2; Virtuoso CONTAINS)
wide_number    numeric literal with ≥ threshold digits (P1.2)
digit_run      string containing a long inserted digit run (P1.3)
char_doubling  string with a format character doubled/repeated (P1.4)
cast_decimal   high-precision DECIMAL instance from an explicit cast (P2.1)
cast_unsigned  reinterpreted unsigned/huge integer from a cast (P2.1)
cast_binary    BINARY/BLOB instance from an explicit cast (P2.1)
union_array    multi-row subquery value from a UNION branch (P2.2)
foreign_text   text in another function's argument format (P2.3)
long_text      argument of extreme length from REPEAT (P3.1)
deep_nesting   deeply nested structured text from REPEAT (P3.1)
nested_bytes   binary value returned by a nested function (P3.2/P3.3)
nested_geom    geometry value returned by a nested function (P3.2/P3.3)
nested_json    JSON/map document returned by a nested function (P3.2/P3.3)
nested_array   array value returned by a nested function (P3.2/P3.3)
nested_date    temporal value returned by a nested function (P3.2/P3.3)
row_arg        ROW value reaching a comparison (P1.2/P3.x; MDEV-14596)
zero_div       divisor of exactly zero on an unchecked path (P1.2/P2.x)
=============  ===========================================================
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..engine.context import ExecutionContext
from ..engine.errors import AssertionFailure, DivideByZeroCrash, ValueError_
from ..engine.functions.registry import FunctionDef, FunctionRegistry
from ..engine.memory import GlobalBuffer, Pointer, sql_assert
from ..engine.values import (
    SQLArray,
    SQLBoolean,
    SQLBytes,
    SQLDate,
    SQLDateTime,
    SQLDecimal,
    SQLGeometry,
    SQLInteger,
    SQLJson,
    SQLMap,
    SQLRow,
    SQLStarMarker,
    SQLString,
    SQLValue,
    is_numeric,
    numeric_value,
)

Trigger = Callable[[ExecutionContext, List[SQLValue]], bool]
CrashAction = Callable[[ExecutionContext, str, List[SQLValue]], SQLValue]


# ---------------------------------------------------------------------------
# trigger predicates (one per flaw kind)
# ---------------------------------------------------------------------------
def _arg(args: List[SQLValue], index: int) -> Optional[SQLValue]:
    if index < len(args):
        return args[index]
    return None


def trig_empty_string(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return isinstance(value, SQLString) and value.value == ""

    return trigger


def trig_null_arg(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return value is not None and value.is_null

    return trigger


def trig_star_arg() -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return any(isinstance(a, SQLStarMarker) for a in args)

    return trigger


def trig_wide_number(digits: int = 15, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if isinstance(value, SQLDecimal):
            return value.total_digits >= digits
        if isinstance(value, SQLInteger):
            return len(str(abs(value.value))) >= digits
        return False

    return trigger


def trig_digit_run(run: int = 5, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if not isinstance(value, SQLString):
            return False
        return "9" * run in value.value

    return trigger


def trig_char_doubling(char: str, repeats: int = 2, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if not isinstance(value, SQLString):
            return False
        return char * repeats in value.value

    return trigger


def trig_cast_decimal(precision: int = 31, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return isinstance(value, SQLDecimal) and value.fraction_digits >= precision

    return trigger


def trig_cast_unsigned(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return isinstance(value, SQLInteger) and value.value > 2**63 - 1

    return trigger


def trig_cast_binary(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), SQLBytes)

    return trigger


def trig_union_array(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), SQLArray)

    return trigger


def trig_foreign_text(prefixes: tuple, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if not isinstance(value, SQLString):
            return False
        return value.value.startswith(prefixes)

    return trigger


def trig_long_text(length: int = 512, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return isinstance(value, SQLString) and len(value.value) >= length

    return trigger


def trig_deep_nesting(char_set: str = "[{(", depth: int = 64, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if not isinstance(value, SQLString):
            return False
        return any(ch * depth in value.value for ch in char_set)

    return trigger


def trig_nested_bytes(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), SQLBytes)

    return trigger


def trig_nested_geom(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), SQLGeometry)

    return trigger


def trig_nested_json(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), (SQLJson, SQLMap))

    return trigger


def trig_nested_array(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), SQLArray)

    return trigger


def trig_nested_date(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return isinstance(_arg(args, index), (SQLDate, SQLDateTime))

    return trigger


def trig_row_arg(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        return any(isinstance(a, SQLRow) for a in args)

    return trigger


def trig_zero_div(index: int = 1) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if value is None or not is_numeric(value):
            return False
        return numeric_value(value) == 0

    return trigger


def trig_negative(index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if value is None or not is_numeric(value):
            return False
        return numeric_value(value) < 0

    return trigger


def trig_big_value(threshold: int, index: int = 0) -> Trigger:
    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        if value is None or not is_numeric(value):
            return False
        return numeric_value(value) >= threshold

    return trigger


def trig_array_of_arrays(index: int = 0) -> Trigger:
    """An array whose elements are themselves arrays — the shape a UNION of
    mismatched branches (Pattern 2.2) produces for array-typed columns."""

    def trigger(ctx: ExecutionContext, args: List[SQLValue]) -> bool:
        value = _arg(args, index)
        return isinstance(value, SQLArray) and any(
            isinstance(item, SQLArray) for item in value.items
        )

    return trigger


# ---------------------------------------------------------------------------
# crash actions: defective code paths over the memory model
# ---------------------------------------------------------------------------
def crash_npd(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """Missing NULL check: look up an internal descriptor that does not
    exist for this input and dereference the resulting NULL pointer."""
    descriptor: Pointer = Pointer.null(label=f"{name}_arg_descriptor")
    payload = descriptor.deref(function=name)  # crashes
    return payload  # pragma: no cover


def crash_segv(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """Pointer arithmetic on a bogus offset walks into unmapped memory."""
    wild: Pointer = Pointer.wild(label=f"{name}_cursor+0x7ffe")
    return wild.deref(function=name)  # pragma: no cover


def crash_uaf(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """A temporary is freed on the error path but used afterwards."""
    temp = ctx.heap.alloc(32, label=f"{name}_tmp")
    holder: Pointer = Pointer.to(temp, label=f"{name}_tmp_ptr")
    ctx.heap.free(temp)
    holder.free()
    return holder.deref(function=name)  # pragma: no cover


def crash_hbof(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """MDEV-8407-style: the length of the textual form is *miscalculated*
    (as if the value were short), the buffer is allocated with the wrong
    size, and writing the true rendering overflows it."""
    rendering = args[0].render() if args else ""
    miscalculated = min(len(rendering), 24)  # "cannot be longer than 24"
    buffer = ctx.heap.alloc(miscalculated, label=f"{name}_result")
    buffer.write(0, rendering + "\0", function=name)  # crashes when longer
    return SQLString(buffer.contents())  # pragma: no cover


_STATIC_FMT_BUFFERS = {}


def crash_gbof(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """MDEV-23415-style: a fixed static format buffer receives a rendering
    whose length the caller never validated."""
    static = _STATIC_FMT_BUFFERS.setdefault(name, GlobalBuffer(8, label=f"{name}_static_fmt"))
    rendering = "".join(a.render() for a in args if not a.is_null)
    static.write(0, rendering + "\0", function=name)  # crashes when > 8
    return SQLString(rendering)  # pragma: no cover


def crash_so(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """CVE-2015-5289-style: recursive descent whose termination check is
    wrong for this boundary input — the parser re-enters on the same
    position forever and the thread stack overflows."""
    while True:  # the simulated stack bounds this loop
        ctx.stack.push(f"{name}_parse_recursive", function=name)


def crash_af(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """A debug assertion about the argument's internal representation is
    simply wrong for this boundary input."""
    sql_assert(False, f"{name}: argument vector in canonical form", function=name)
    raise AssertionFailure("unreachable", function=name)  # pragma: no cover


def crash_dbz(ctx: ExecutionContext, name: str, args: List[SQLValue]) -> SQLValue:
    """An unchecked division: scale factor of zero reaches the divide."""
    raise DivideByZeroCrash(
        f"{name}: division by zero scale factor", function=name
    )


CRASH_ACTIONS = {
    "NPD": crash_npd,
    "SEGV": crash_segv,
    "UAF": crash_uaf,
    "HBOF": crash_hbof,
    "GBOF": crash_gbof,
    "SO": crash_so,
    "AF": crash_af,
    "DBZ": crash_dbz,
}


# ---------------------------------------------------------------------------
# logic flaws: defects that miscompute instead of crashing
# ---------------------------------------------------------------------------
#: recognised logic-flaw kinds — "wrong" silently returns a corrupted
#: result, "strict" rejects documented-valid arguments with an SQL error
LOGIC_KINDS = ("wrong", "strict")

#: predicate-level defect kinds — seeded as engine config knobs rather
#: than function wrappers, because the defect lives in clause evaluation
#: (the executor's null test, the optimizer's constant folder), not in any
#: one built-in.  "tlp" breaks the three-valued IS NULL test; "norec"
#: breaks the optimizer's NULL-comparison fold.  Each is ground truth for
#: the same-named metamorphic oracle (:mod:`repro.core.oracles.metamorphic`)
#: and invisible to the other one.
PREDICATE_KINDS = ("tlp", "norec")

#: engine knob flipped on (via Dialect.config_defaults) per predicate kind
PREDICATE_KNOBS = {
    "tlp": "faulty_is_null_propagates",
    "norec": "faulty_fold_null_compare",
}


def miscompute(value: SQLValue) -> SQLValue:
    """Deterministically corrupt a correct scalar result.

    The corruption is small and type-preserving — an off-by-one, a
    truncated byte — the shape real wrong-result bugs take (a misplaced
    boundary comparison, a length field measured before the last write).
    NULL and exotic types pass through untouched: a logic flaw that turned
    NULL into a value would be caught by trivial type checks, not by a
    differential oracle.
    """
    if isinstance(value, SQLBoolean):
        return SQLBoolean(not value.value)
    if isinstance(value, SQLInteger):
        return SQLInteger(value.value + 1)
    if isinstance(value, SQLDecimal):
        return SQLDecimal(value.value + 1)
    if isinstance(value, SQLString):
        if value.value:
            return SQLString(value.value[:-1])
        return SQLString("?")
    return value


def install_logic_flaw(
    registry: FunctionRegistry,
    function: str,
    trigger: Trigger,
    kind: str,
) -> None:
    """Wrap *function*'s implementation with a non-crashing defect.

    ``wrong`` computes the correct result and corrupts it when the boundary
    condition holds (the function's metadata — documentation, signature —
    stays untouched, which is exactly why cross-dialect differential
    comparison remains sound).  ``strict`` raises an ordinary SQL error for
    arguments the documentation declares valid.
    """
    definition = registry.lookup(function)
    if definition.is_aggregate:
        raise ValueError(
            f"logic flaws are scalar-only; {function!r} is an aggregate"
        )
    original = definition.impl
    if kind == "wrong":
        def flawed(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            result = original(ctx, args)
            if trigger(ctx, args):
                return miscompute(result)
            return result
    elif kind == "strict":
        def flawed(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            if trigger(ctx, args):
                raise ValueError_(
                    f"{function.upper()}: argument out of supported range"
                )
            return original(ctx, args)
    else:
        raise ValueError(f"unknown logic-flaw kind {kind!r}")

    flawed.__name__ = f"logic_flawed_{function}"
    flawed.__qualname__ = f"logic_flawed_{function}"
    registry.patch(function, flawed)


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
def install_flaw(
    registry: FunctionRegistry,
    function: str,
    trigger: Trigger,
    crash: str,
) -> None:
    """Wrap *function*'s implementation with a flawed fast path.

    The wrapper mirrors how the original defects sit on rarely-taken
    branches: ordinary arguments flow to the correct implementation, the
    boundary condition diverts into the defective code path.
    """
    definition = registry.lookup(function)
    original = definition.impl
    action = CRASH_ACTIONS[crash]
    is_aggregate = definition.is_aggregate

    if is_aggregate:
        def flawed(ctx: ExecutionContext, columns):  # type: ignore[no-redef]
            probe = [col[0] for col in columns if col]
            if trigger(ctx, probe):
                return action(ctx, function, probe)
            return original(ctx, columns)
    else:
        def flawed(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
            if trigger(ctx, args):
                return action(ctx, function, args)
            return original(ctx, args)

    flawed.__name__ = f"flawed_{function}"
    flawed.__qualname__ = f"flawed_{function}"
    registry.patch(function, flawed)
