"""From-scratch JSON implementation used by the engines' JSON functions.

A hand-rolled recursive-descent parser (not :mod:`json`) because the paper's
JSON bugs live in exactly this code: CVE-2015-5289 is PostgreSQL's
``parse_array`` recursing once per ``[`` until the stack dies.  The parser
therefore recurses *through the engine's simulated call stack* — a
:class:`repro.engine.memory.CallStack` passed by the caller — so dialects
that forget a depth check crash with :class:`StackOverflow`, and dialects
that add one (as PostgreSQL did in the fix) raise a clean ``ValueError_``.

Also provides JSON-path evaluation for ``$.a[0].b``-style paths used by
JSON_LENGTH / JSON_EXTRACT and friends.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from .errors import ValueError_
from .values import render_int
from .memory import CallStack

#: depth guard used by dialects that *did* fix the recursion bug
DEFAULT_MAX_DEPTH = 128

_WHITESPACE = " \t\r\n"


class JsonParser:
    """Recursive-descent JSON parser over a simulated call stack."""

    def __init__(
        self,
        text: str,
        stack: Optional[CallStack] = None,
        max_depth: Optional[int] = DEFAULT_MAX_DEPTH,
        function: Optional[str] = None,
    ) -> None:
        self.text = text
        self.pos = 0
        self.stack = stack if stack is not None else CallStack()
        self.max_depth = max_depth
        self.depth = 0
        self.function = function

    # ------------------------------------------------------------------
    def parse(self) -> Any:
        value = self._parse_value()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ValueError_(f"trailing characters in JSON at offset {self.pos}")
        return value

    # ------------------------------------------------------------------
    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WHITESPACE:
            self.pos += 1

    def _fail(self, message: str) -> ValueError_:
        return ValueError_(f"invalid JSON: {message} at offset {self.pos}")

    def _enter(self, what: str) -> None:
        """One recursion step.  The depth check is the *fix* for the
        CVE-2015-5289 class of bug; callers who pass ``max_depth=None``
        reproduce the unfixed behaviour and rely on the simulated stack."""
        self.depth += 1
        if self.max_depth is not None and self.depth > self.max_depth:
            raise ValueError_(f"JSON nested too deeply (> {self.max_depth})")
        self.stack.push(f"json_parse_{what}", function=self.function)

    def _leave(self) -> None:
        self.depth -= 1
        self.stack.pop()

    # ------------------------------------------------------------------
    def _parse_value(self) -> Any:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise self._fail("unexpected end of input")
        ch = self.text[self.pos]
        if ch == "{":
            return self._parse_object()
        if ch == "[":
            return self._parse_array()
        if ch == '"':
            return self._parse_string()
        if ch in "-0123456789":
            return self._parse_number()
        for word, value in (("true", True), ("false", False), ("null", None)):
            if self.text.startswith(word, self.pos):
                self.pos += len(word)
                return value
        raise self._fail(f"unexpected character {ch!r}")

    def _parse_object(self) -> dict:
        self._enter("object")
        try:
            self.pos += 1  # '{'
            obj: dict = {}
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "}":
                self.pos += 1
                return obj
            while True:
                self._skip_ws()
                if self.pos >= len(self.text) or self.text[self.pos] != '"':
                    raise self._fail("expected object key")
                key = self._parse_string()
                self._skip_ws()
                if self.pos >= len(self.text) or self.text[self.pos] != ":":
                    raise self._fail("expected ':'")
                self.pos += 1
                obj[key] = self._parse_value()
                self._skip_ws()
                if self.pos >= len(self.text):
                    raise self._fail("unterminated object")
                if self.text[self.pos] == ",":
                    self.pos += 1
                    continue
                if self.text[self.pos] == "}":
                    self.pos += 1
                    return obj
                raise self._fail("expected ',' or '}'")
        finally:
            self._leave()

    def _parse_array(self) -> list:
        self._enter("array")
        try:
            self.pos += 1  # '['
            arr: list = []
            self._skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "]":
                self.pos += 1
                return arr
            while True:
                arr.append(self._parse_value())
                self._skip_ws()
                if self.pos >= len(self.text):
                    raise self._fail("unterminated array")
                if self.text[self.pos] == ",":
                    self.pos += 1
                    continue
                if self.text[self.pos] == "]":
                    self.pos += 1
                    return arr
                raise self._fail("expected ',' or ']'")
        finally:
            self._leave()

    def _parse_string(self) -> str:
        assert self.text[self.pos] == '"'
        self.pos += 1
        out: List[str] = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    break
                esc = self.text[self.pos]
                simple = {'"': '"', "\\": "\\", "/": "/", "b": "\b",
                          "f": "\f", "n": "\n", "r": "\r", "t": "\t"}
                if esc in simple:
                    out.append(simple[esc])
                    self.pos += 1
                elif esc == "u":
                    hex_digits = self.text[self.pos + 1 : self.pos + 5]
                    if len(hex_digits) != 4:
                        raise self._fail("truncated \\u escape")
                    try:
                        out.append(chr(int(hex_digits, 16)))
                    except ValueError:
                        raise self._fail("invalid \\u escape")
                    self.pos += 5
                else:
                    raise self._fail(f"invalid escape \\{esc}")
            else:
                out.append(ch)
                self.pos += 1
        raise self._fail("unterminated string")

    def _parse_number(self) -> Union[int, float]:
        start = self.pos
        if self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        is_float = False
        if self.pos < len(self.text) and self.text[self.pos] == ".":
            is_float = True
            self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            is_float = True
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
        literal = self.text[start : self.pos]
        if literal in ("", "-"):
            raise self._fail("invalid number")
        try:
            return float(literal) if is_float else int(literal)
        except (ValueError, OverflowError):
            raise self._fail(f"invalid number {literal!r}")


def json_parse(
    text: str,
    stack: Optional[CallStack] = None,
    max_depth: Optional[int] = DEFAULT_MAX_DEPTH,
    function: Optional[str] = None,
) -> Any:
    """Parse JSON text into a Python structure.  See :class:`JsonParser`."""
    return JsonParser(text, stack=stack, max_depth=max_depth, function=function).parse()


def json_serialize(document: Any) -> str:
    """Serialise a document back to compact JSON text."""
    if document is None:
        return "null"
    if document is True:
        return "true"
    if document is False:
        return "false"
    if isinstance(document, (int, float)):
        if isinstance(document, float) and document == int(document) and abs(document) < 1e15:
            return str(document)
        return repr(document) if isinstance(document, float) else render_int(document)
    if isinstance(document, str):
        out = ['"']
        for ch in document:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ch == "\r":
                out.append("\\r")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(document, list):
        return "[" + ", ".join(json_serialize(v) for v in document) + "]"
    if isinstance(document, dict):
        pairs = ", ".join(
            f"{json_serialize(str(k))}: {json_serialize(v)}" for k, v in document.items()
        )
        return "{" + pairs + "}"
    raise ValueError_(f"cannot serialise {type(document).__name__} to JSON")


# ---------------------------------------------------------------------------
# JSON path  ($, .key, [index], [*])
# ---------------------------------------------------------------------------
PathStep = Union[str, int, None]  # None encodes the wildcard '*'


def parse_json_path(path: str) -> List[PathStep]:
    """Parse a ``$.a.b[0][*]`` path into a list of steps."""
    if not path.startswith("$"):
        raise ValueError_(f"JSON path must start with '$': {path!r}")
    steps: List[PathStep] = []
    pos = 1
    while pos < len(path):
        ch = path[pos]
        if ch == ".":
            pos += 1
            start = pos
            if pos < len(path) and path[pos] == '"':
                pos += 1
                start = pos
                while pos < len(path) and path[pos] != '"':
                    pos += 1
                if pos >= len(path):
                    raise ValueError_("unterminated quoted member in JSON path")
                steps.append(path[start:pos])
                pos += 1
                continue
            if pos < len(path) and path[pos] == "*":
                steps.append(None)
                pos += 1
                continue
            while pos < len(path) and (path[pos].isalnum() or path[pos] == "_"):
                pos += 1
            if pos == start:
                raise ValueError_(f"empty member name in JSON path at {pos}")
            steps.append(path[start:pos])
        elif ch == "[":
            end = path.find("]", pos)
            if end == -1:
                raise ValueError_("unterminated '[' in JSON path")
            inner = path[pos + 1 : end].strip()
            if inner == "*":
                steps.append(None)
            else:
                try:
                    steps.append(int(inner))
                except ValueError:
                    raise ValueError_(f"invalid array index {inner!r} in JSON path")
            pos = end + 1
        else:
            raise ValueError_(f"unexpected character {ch!r} in JSON path")
    return steps


def eval_json_path(document: Any, steps: List[PathStep]) -> List[Any]:
    """Evaluate parsed path steps; returns all matches (wildcards fan out)."""
    current = [document]
    for step in steps:
        next_values: List[Any] = []
        for value in current:
            if step is None:  # wildcard
                if isinstance(value, list):
                    next_values.extend(value)
                elif isinstance(value, dict):
                    next_values.extend(value.values())
            elif isinstance(step, int):
                if isinstance(value, list) and -len(value) <= step < len(value):
                    next_values.append(value[step])
            else:
                if isinstance(value, dict) and step in value:
                    next_values.append(value[step])
        current = next_values
    return current


def json_depth(document: Any) -> int:
    """Nesting depth (scalars are depth 1, like MySQL's JSON_DEPTH)."""
    if isinstance(document, dict):
        if not document:
            return 1
        return 1 + max(json_depth(v) for v in document.values())
    if isinstance(document, list):
        if not document:
            return 1
        return 1 + max(json_depth(v) for v in document)
    return 1
