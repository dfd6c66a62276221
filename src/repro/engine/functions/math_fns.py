"""Reference implementations of the math function family."""

from __future__ import annotations

import decimal
import math
from typing import List

from ..context import ExecutionContext
from ..errors import DivisionByZeroError_, TypeError_, ValueError_
from ..values import (
    NULL,
    SQLDecimal,
    SQLDouble,
    SQLInteger,
    SQLValue,
    decimal_to_int,
    is_numeric,
)
from .helpers import (
    need_decimal,
    need_double,
    need_int,
    null_propagating,
    out_decimal,
    out_double,
    out_int,
    reject_star,
)
from .registry import FunctionRegistry


def _check_finite(value: float, name: str) -> float:
    if math.isinf(value) or math.isnan(value):
        raise ValueError_(f"{name.upper()} result is not finite")
    return value


def register_math(reg: FunctionRegistry) -> None:
    define = reg.define

    @define("abs", "math", min_args=1, max_args=1, signature="ABS(x)",
            doc="Absolute value.", examples=["ABS(-5)"])
    @null_propagating("abs")
    def fn_abs(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = args[0]
        if isinstance(value, SQLInteger):
            return out_int(abs(value.value))
        if isinstance(value, SQLDouble):
            return out_double(abs(value.value))
        return out_decimal(abs(need_decimal(value, "abs")))

    @define("sign", "math", min_args=1, max_args=1, signature="SIGN(x)",
            doc="Sign of x as -1, 0, or 1.", examples=["SIGN(-2.5)"])
    @null_propagating("sign")
    def fn_sign(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_decimal(args[0], "sign")
        return out_int((value > 0) - (value < 0))

    @define("ceil", "math", min_args=1, max_args=1, signature="CEIL(x)",
            doc="Smallest integer >= x.", examples=["CEIL(1.2)"])
    @null_propagating("ceil")
    def fn_ceil(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_decimal(args[0], "ceil")
        return out_int(decimal_to_int(value.to_integral_value(decimal.ROUND_CEILING)))

    reg.alias("ceil", "ceiling")

    @define("floor", "math", min_args=1, max_args=1, signature="FLOOR(x)",
            doc="Largest integer <= x.", examples=["FLOOR(1.8)"])
    @null_propagating("floor")
    def fn_floor(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_decimal(args[0], "floor")
        return out_int(decimal_to_int(value.to_integral_value(decimal.ROUND_FLOOR)))

    @define("round", "math", min_args=1, max_args=2, signature="ROUND(x[, d])",
            doc="Round to d decimal places.", examples=["ROUND(1.256, 2)"])
    @null_propagating("round")
    def fn_round(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_decimal(args[0], "round")
        places = need_int(args[1], "round") if len(args) > 1 else 0
        if abs(places) > 100:
            raise ValueError_(f"ROUND precision {places} out of range")
        quant = decimal.Decimal(1).scaleb(-places)
        try:
            result = value.quantize(quant, rounding=decimal.ROUND_HALF_UP,
                                    context=decimal.Context(prec=200))
        except decimal.InvalidOperation:
            raise ValueError_("ROUND result out of range")
        if places <= 0:
            return out_int(decimal_to_int(result))
        return out_decimal(result)

    @define("truncate", "math", min_args=2, max_args=2,
            signature="TRUNCATE(x, d)", doc="Truncate toward zero to d places.",
            examples=["TRUNCATE(1.999, 1)"])
    @null_propagating("truncate")
    def fn_truncate(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_decimal(args[0], "truncate")
        places = need_int(args[1], "truncate")
        if abs(places) > 100:
            raise ValueError_(f"TRUNCATE precision {places} out of range")
        quant = decimal.Decimal(1).scaleb(-places)
        result = value.quantize(quant, rounding=decimal.ROUND_DOWN,
                                context=decimal.Context(prec=200))
        return out_decimal(result)

    reg.alias("truncate", "trunc")

    @define("sqrt", "math", min_args=1, max_args=1, signature="SQRT(x)",
            doc="Square root.", examples=["SQRT(2)"])
    @null_propagating("sqrt")
    def fn_sqrt(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_double(args[0], "sqrt")
        if value < 0:
            return NULL
        return out_double(math.sqrt(value))

    @define("exp", "math", min_args=1, max_args=1, signature="EXP(x)",
            doc="e raised to x.", examples=["EXP(1)"])
    @null_propagating("exp")
    def fn_exp(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        try:
            return out_double(math.exp(need_double(args[0], "exp")))
        except OverflowError:
            raise ValueError_("EXP result out of range")

    @define("ln", "math", min_args=1, max_args=1, signature="LN(x)",
            doc="Natural logarithm.", examples=["LN(2.718)"])
    @null_propagating("ln")
    def fn_ln(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_double(args[0], "ln")
        if value <= 0:
            return NULL
        return out_double(math.log(value))

    @define("log", "math", min_args=1, max_args=2, signature="LOG([base,] x)",
            doc="Logarithm (natural or given base).", examples=["LOG(2, 8)"])
    @null_propagating("log")
    def fn_log(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        if len(args) == 1:
            value = need_double(args[0], "log")
            if value <= 0:
                return NULL
            return out_double(math.log(value))
        base = need_double(args[0], "log")
        value = need_double(args[1], "log")
        if base <= 0 or base == 1 or value <= 0:
            return NULL
        return out_double(math.log(value, base))

    @define("log10", "math", min_args=1, max_args=1, signature="LOG10(x)",
            doc="Base-10 logarithm.", examples=["LOG10(100)"])
    @null_propagating("log10")
    def fn_log10(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_double(args[0], "log10")
        if value <= 0:
            return NULL
        return out_double(math.log10(value))

    @define("log2", "math", min_args=1, max_args=1, signature="LOG2(x)",
            doc="Base-2 logarithm.", examples=["LOG2(8)"])
    @null_propagating("log2")
    def fn_log2(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_double(args[0], "log2")
        if value <= 0:
            return NULL
        return out_double(math.log2(value))

    @define("power", "math", min_args=2, max_args=2, signature="POWER(x, y)",
            doc="x raised to y.", examples=["POWER(2, 10)"])
    @null_propagating("power")
    def fn_power(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        base = need_double(args[0], "power")
        exponent = need_double(args[1], "power")
        try:
            result = base ** exponent
        except (OverflowError, ZeroDivisionError):
            raise ValueError_("POWER result out of range")
        if isinstance(result, complex):
            return NULL
        return out_double(_check_finite(result, "power"))

    reg.alias("power", "pow")

    @define("mod", "math", min_args=2, max_args=2, signature="MOD(a, b)",
            doc="Remainder of a / b.", examples=["MOD(10, 3)"])
    @null_propagating("mod")
    def fn_mod(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        a = need_decimal(args[0], "mod")
        b = need_decimal(args[1], "mod")
        if b == 0:
            raise DivisionByZeroError_("MOD by zero")
        result = a - b * (a / b).to_integral_value(decimal.ROUND_DOWN)
        if result == result.to_integral_value():
            return out_int(decimal_to_int(result))
        return out_decimal(result)

    @define("pi", "math", min_args=0, max_args=0, signature="PI()",
            doc="The constant pi.", examples=["PI()"])
    def fn_pi(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_double(math.pi)

    @define("degrees", "math", min_args=1, max_args=1, signature="DEGREES(x)",
            doc="Radians to degrees.", examples=["DEGREES(3.14159)"])
    @null_propagating("degrees")
    def fn_degrees(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_double(math.degrees(need_double(args[0], "degrees")))

    @define("radians", "math", min_args=1, max_args=1, signature="RADIANS(x)",
            doc="Degrees to radians.", examples=["RADIANS(180)"])
    @null_propagating("radians")
    def fn_radians(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_double(math.radians(need_double(args[0], "radians")))

    for trig_name, trig_fn in (("sin", math.sin), ("cos", math.cos),
                               ("tan", math.tan), ("asin", math.asin),
                               ("acos", math.acos), ("atan", math.atan),
                               ("sinh", math.sinh), ("cosh", math.cosh),
                               ("tanh", math.tanh)):
        def make_trig(fname: str, fun) -> None:
            @define(fname, "math", min_args=1, max_args=1,
                    signature=f"{fname.upper()}(x)",
                    doc=f"Trigonometric {fname}.",
                    examples=[f"{fname.upper()}(0.5)"])
            @null_propagating(fname)
            def fn_trig(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
                value = need_double(args[0], fname)
                try:
                    return out_double(fun(value))
                except (ValueError, OverflowError):
                    return NULL

        make_trig(trig_name, trig_fn)

    @define("atan2", "math", min_args=2, max_args=2, signature="ATAN2(y, x)",
            doc="Two-argument arctangent.", examples=["ATAN2(1, 1)"])
    @null_propagating("atan2")
    def fn_atan2(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_double(
            math.atan2(need_double(args[0], "atan2"), need_double(args[1], "atan2"))
        )

    @define("cot", "math", min_args=1, max_args=1, signature="COT(x)",
            doc="Cotangent.", examples=["COT(1)"])
    @null_propagating("cot")
    def fn_cot(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        value = need_double(args[0], "cot")
        tangent = math.tan(value)
        if tangent == 0:
            raise DivisionByZeroError_("COT of a multiple of pi")
        return out_double(1.0 / tangent)

    @define("greatest", "math", min_args=1, signature="GREATEST(a, b, ...)",
            doc="Largest argument.", examples=["GREATEST(1, 5, 3)"])
    def fn_greatest(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "greatest")
        if any(a.is_null for a in args):
            return NULL
        from ..evaluator import compare_values

        best = args[0]
        for candidate in args[1:]:
            if compare_values(ctx, candidate, best) > 0:
                best = candidate
        return best

    @define("least", "math", min_args=1, signature="LEAST(a, b, ...)",
            doc="Smallest argument.", examples=["LEAST(1, 5, 3)"])
    def fn_least(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "least")
        if any(a.is_null for a in args):
            return NULL
        from ..evaluator import compare_values

        best = args[0]
        for candidate in args[1:]:
            if compare_values(ctx, candidate, best) < 0:
                best = candidate
        return best

    @define("gcd", "math", min_args=2, max_args=2, signature="GCD(a, b)",
            doc="Greatest common divisor.", examples=["GCD(12, 18)"])
    @null_propagating("gcd")
    def fn_gcd(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        return out_int(math.gcd(need_int(args[0], "gcd"), need_int(args[1], "gcd")))

    @define("lcm", "math", min_args=2, max_args=2, signature="LCM(a, b)",
            doc="Least common multiple.", examples=["LCM(4, 6)"])
    @null_propagating("lcm")
    def fn_lcm(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        a = need_int(args[0], "lcm")
        b = need_int(args[1], "lcm")
        if a == 0 or b == 0:
            return out_int(0)
        return out_int(abs(a * b) // math.gcd(a, b))

    @define("factorial", "math", min_args=1, max_args=1,
            signature="FACTORIAL(n)", doc="n!.", examples=["FACTORIAL(5)"])
    @null_propagating("factorial")
    def fn_factorial(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        n = need_int(args[0], "factorial")
        if n < 0:
            raise ValueError_("FACTORIAL of a negative number")
        if n > 20:
            raise ValueError_("FACTORIAL argument too large for BIGINT")
        return out_int(math.factorial(n))

    @define("bit_count", "math", min_args=1, max_args=1,
            signature="BIT_COUNT(n)", doc="Number of set bits.",
            examples=["BIT_COUNT(7)"])
    @null_propagating("bit_count")
    def fn_bit_count(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        n = need_int(args[0], "bit_count")
        return out_int(bin(n & (2**64 - 1)).count("1"))

    @define("rand", "math", min_args=0, max_args=1, pure=False,
            signature="RAND([seed])", doc="Pseudo-random double in [0, 1).",
            examples=["RAND(42)"])
    def fn_rand(ctx: ExecutionContext, args: List[SQLValue]) -> SQLValue:
        reject_star(args, "rand")
        if args and not args[0].is_null:
            import random

            return out_double(random.Random(need_int(args[0], "rand")).random())
        return out_double(ctx.rng.random())

    reg.alias("rand", "random")
