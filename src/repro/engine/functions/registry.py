"""Built-in function registry.

Each simulated dialect owns a :class:`FunctionRegistry` populated from the
shared reference implementations (the other modules in this package) and
then *patched* with that dialect's flawed implementations (the injected
bugs).  The registry also carries the metadata SOFT's collection step
consumes: a documentation entry and example expressions per function —
standing in for the real DBMS's docs and regression suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..errors import NameError_, TypeError_

if TYPE_CHECKING:  # pragma: no cover
    from ..context import ExecutionContext
    from ..values import SQLValue

ScalarImpl = Callable[["ExecutionContext", List["SQLValue"]], "SQLValue"]
#: aggregates receive one list per argument, each holding that argument's
#: value for every row in the group
AggregateImpl = Callable[["ExecutionContext", List[List["SQLValue"]]], "SQLValue"]

#: function families used across the study, Table 4, and Figure 1
FAMILIES = (
    "string", "math", "aggregate", "date", "json", "xml", "array", "map",
    "spatial", "inet", "condition", "casting", "system", "sequence",
)


@dataclass
class FunctionDef:
    """Definition and metadata of one built-in SQL function."""

    name: str                    # canonical lower-case name
    family: str                  # one of FAMILIES
    impl: Callable               # ScalarImpl or AggregateImpl
    min_args: int = 0
    max_args: Optional[int] = None  # None = variadic
    is_aggregate: bool = False
    pure: bool = True            # safe to constant-fold at optimization
    doc: str = ""                # documentation sentence
    signature: str = ""          # e.g. "REPEAT(str, count)"
    examples: List[str] = field(default_factory=list)  # expression texts

    def check_arity(self, count: int) -> None:
        if count < self.min_args or (self.max_args is not None and count > self.max_args):
            expected = (
                f"{self.min_args}"
                if self.max_args == self.min_args
                else f"{self.min_args}..{'*' if self.max_args is None else self.max_args}"
            )
            raise TypeError_(
                f"{self.name.upper()} expects {expected} arguments, got {count}"
            )


class FunctionRegistry:
    """Name → definition mapping with dialect patch support."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionDef] = {}

    # -- registration ----------------------------------------------------
    def register(self, definition: FunctionDef) -> None:
        self._functions[definition.name.lower()] = definition

    def define(
        self,
        name: str,
        family: str,
        *,
        min_args: int = 0,
        max_args: Optional[int] = None,
        is_aggregate: bool = False,
        pure: bool = True,
        doc: str = "",
        signature: str = "",
        examples: Optional[List[str]] = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator-style registration used by the implementation modules."""

        def wrap(impl: Callable) -> Callable:
            self.register(
                FunctionDef(
                    name=name.lower(),
                    family=family,
                    impl=impl,
                    min_args=min_args,
                    max_args=max_args,
                    is_aggregate=is_aggregate,
                    pure=pure,
                    doc=doc or f"The {name.upper()} function.",
                    signature=signature or f"{name.upper()}(...)",
                    examples=list(examples or []),
                )
            )
            return impl

        return wrap

    def alias(self, existing: str, *names: str) -> None:
        """Register *names* as aliases of an existing function."""
        base = self.lookup(existing)
        for name in names:
            self.register(replace(base, name=name.lower()))

    def patch(self, name: str, impl: Callable) -> None:
        """Replace a function's implementation (dialect bug injection or
        fix), keeping metadata."""
        base = self.lookup(name)
        self.register(replace(base, impl=impl))

    def remove(self, name: str) -> None:
        self._functions.pop(name.lower(), None)

    # -- lookup ------------------------------------------------------------
    def lookup(self, name: str) -> FunctionDef:
        definition = self._functions.get(name.lower())
        if definition is None:
            raise NameError_(f"unknown function {name.upper()}")
        return definition

    def contains(self, name: str) -> bool:
        return name.lower() in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterable[FunctionDef]:
        return iter(sorted(self._functions.values(), key=lambda d: d.name))

    def copy(self) -> "FunctionRegistry":
        """Shallow copy: dialects copy the shared base then patch."""
        out = FunctionRegistry()
        out._functions = dict(self._functions)
        return out
