"""Error and crash taxonomy for the simulated DBMS engines.

Two disjoint families model the two outcomes the paper distinguishes:

* :class:`SQLError` — a *handled* error.  The real DBMS would return an
  error message to the client and keep serving; our engines raise it and the
  connection catches it.  These are never bugs.

* :class:`CrashSignal` — a *memory-safety violation*.  The real DBMS process
  would abort (SIGSEGV, SIGABRT, ...); our engines let it propagate out of
  the executor, the connection marks the simulated server process dead, and
  the harness must "restart" it.  Crash classes mirror the paper's Table 4
  legend: NPD, SEGV, UAF, HBOF, GBOF, AF, SO, DBZ.

Each crash captures the processing *stage* (parse / optimize / execute) and
a backtrace of engine frames, which the corpus analysis (§4.1 / Finding 1)
classifies the same way the paper classifies real backtraces.
"""

from __future__ import annotations

import sys
from typing import List, Optional


class SQLError(Exception):
    """A handled SQL-level error (syntax, type, out-of-range, ...)."""

    code = "ERROR"

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message


class SyntaxError_(SQLError):
    """Statement rejected by the parser."""

    code = "SYNTAX"


class TypeError_(SQLError):
    """Argument or cast type mismatch."""

    code = "TYPE"


class NameError_(SQLError):
    """Unknown table, column, or function."""

    code = "NAME"


class ValueError_(SQLError):
    """A value is out of the accepted range or malformed."""

    code = "VALUE"


class DivisionByZeroError_(SQLError):
    """Handled division by zero (most dialects report this cleanly)."""

    code = "DIV0"


class ResourceError(SQLError):
    """Query exceeded a resource limit (memory, string length, rows).

    The paper notes SOFT's 7 false positives came from queries that hit
    memory limits and were *forcibly terminated* — in our model those
    surface as ResourceError, and the runner's false-positive filter keys
    on this class.
    """

    code = "RESOURCE"


class FeatureError(SQLError):
    """Statement uses a feature this dialect does not implement."""

    code = "FEATURE"


class ResourceExhausted(SQLError):
    """A harness-configured resource budget was exceeded (the governor).

    Distinct from :class:`ResourceError`: that class models the *DBMS's own*
    limits (the paper's false-positive source), while this one is raised by
    the harness-side :class:`~repro.robustness.governor.ResourceGovernor`
    when an opt-in budget (eval depth, rows, cells, bytes, wall deadline)
    trips.  The runner classifies it as the ``resource_exhausted`` outcome
    rather than a false-positive candidate.
    """

    code = "EXHAUSTED"

    def __init__(self, budget: str, used: int, limit: int) -> None:
        super().__init__(
            f"resource budget {budget!r} exhausted: used {used}, limit {limit}"
        )
        self.budget = budget
        self.used = used
        self.limit = limit


# ---------------------------------------------------------------------------
# crash signals
# ---------------------------------------------------------------------------
class CrashSignal(BaseException):
    """Base class for simulated memory-safety crashes.

    Derives from BaseException so that engine-level ``except Exception``
    error handling can never accidentally swallow a crash — exactly like a
    SIGSEGV cannot be caught by a C++ ``catch``.
    """

    #: short code used in Table 4 (overridden by subclasses)
    code = "CRASH"
    #: human-readable crash class name
    label = "crash"

    def __init__(
        self,
        message: str,
        function: Optional[str] = None,
        stage: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.function = function
        self.stage = stage
        self.backtrace = self._capture_backtrace()

    @staticmethod
    def _capture_backtrace() -> List[str]:
        """Record the engine-side call chain (innermost last), mimicking the
        symbolised backtraces bug reports carry: the innermost 25
        functions under ``/repro/``, below this method and ``__init__``.

        Walks the frame objects directly; ``traceback.extract_stack``
        would also look up every frame's source line.
        """
        names: List[str] = []
        frame = sys._getframe(2)
        while frame is not None and len(names) < 25:
            code = frame.f_code
            if "/repro/" in code.co_filename.replace("\\", "/"):
                names.append(code.co_name)
            frame = frame.f_back
        names.reverse()
        return names

    def describe(self) -> str:
        where = f" in {self.function}" if self.function else ""
        return f"{self.label}{where}: {self.message}"


class NullPointerDereference(CrashSignal):
    code = "NPD"
    label = "null pointer dereference"


class SegmentationViolation(CrashSignal):
    code = "SEGV"
    label = "segmentation violation"


class UseAfterFree(CrashSignal):
    code = "UAF"
    label = "use-after-free"


class HeapBufferOverflow(CrashSignal):
    code = "HBOF"
    label = "heap buffer overflow"


class GlobalBufferOverflow(CrashSignal):
    code = "GBOF"
    label = "global buffer overflow"


class StackOverflow(CrashSignal):
    code = "SO"
    label = "stack overflow"


class AssertionFailure(CrashSignal):
    code = "AF"
    label = "assertion failure"


class DivideByZeroCrash(CrashSignal):
    code = "DBZ"
    label = "divide by zero"


#: Crash classes by code, used by the oracle and the reporting pipeline.
CRASH_CLASSES = {
    cls.code: cls
    for cls in (
        NullPointerDereference,
        SegmentationViolation,
        UseAfterFree,
        HeapBufferOverflow,
        GlobalBufferOverflow,
        StackOverflow,
        AssertionFailure,
        DivideByZeroCrash,
    )
}
