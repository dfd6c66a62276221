"""Token definitions for the SQL lexer.

The lexer produces a flat stream of :class:`Token` objects which the
recursive-descent parser (:mod:`repro.sqlast.parser`) consumes.  Token kinds
are deliberately coarse — keyword recognition happens in the parser so that
dialects may treat most keywords as ordinary identifiers (real DBMSs differ
wildly in their reserved-word lists, and SOFT must parse queries from seven
dialects' regression suites).
"""

from __future__ import annotations

import enum
from typing import Tuple


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"            # bare or quoted identifier / keyword
    INTEGER = "integer"        # integer literal (digits only)
    DECIMAL = "decimal"        # decimal literal with '.' or exponent
    STRING = "string"          # single-quoted string literal
    OPERATOR = "operator"      # punctuation / operator symbol
    EOF = "eof"                # end of input sentinel


class Token:
    """A single lexed token.

    Attributes:
        kind: lexical category.
        text: the token text.  For ``STRING`` tokens this is the *decoded*
            value (quotes stripped, escapes resolved); for quoted identifiers
            the quotes are stripped as well.
        pos: byte offset of the first character in the source text.
        quoted: True when the token was written with quoting (string
            literals are always quoted; identifiers may be).
        kw: the upper-cased text of an unquoted ``IDENT`` token, None for
            every other token.  The parser matches keywords by membership
            of ``kw`` in a set of upper-case words, so a quoted identifier
            never matches one.

    Tokens compare and hash by value.  A plain ``__slots__`` class rather
    than a dataclass: the parser reads these attributes for every token it
    looks at, and ``dataclass(slots=True)`` needs Python 3.10.
    """

    __slots__ = ("kind", "text", "pos", "quoted", "kw")

    def __init__(
        self, kind: TokenKind, text: str, pos: int, quoted: bool = False
    ) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos
        self.quoted = quoted
        self.kw = text.upper() if kind is TokenKind.IDENT and not quoted else None

    def _key(self) -> Tuple[TokenKind, str, int, bool]:
        return (self.kind, self.text, self.pos, self.quoted)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._key())

    def is_keyword(self, word: str) -> bool:
        """Return True when this token is the (unquoted) keyword *word*."""
        return self.kw is not None and self.kw == word.upper()

    def is_op(self, symbol: str) -> bool:
        """Return True when this token is the operator *symbol*."""
        return self.kind is TokenKind.OPERATOR and self.text == symbol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.value}, {self.text!r}@{self.pos})"


#: Multi-character operator symbols, longest first so the lexer can
#: greedily match (e.g. ``::`` before ``:``, ``<=`` before ``<``).
MULTI_CHAR_OPERATORS = (
    "::",
    "<=>",
    "<=",
    ">=",
    "<>",
    "!=",
    "||",
    "->>",
    "->",
    "#>>",
    "#>",
    "@>",
    "<@",
    "**",
    "<<",
    ">>",
    ":=",
)

#: Single-character operator symbols.
SINGLE_CHAR_OPERATORS = set("+-*/%^=<>(),.;[]{}:&|~#@!?")
