"""A permissive SQL lexer.

Built to tokenize queries from seven different dialects' regression suites,
so it accepts a superset of common SQL lexical syntax:

* single-quoted strings with ``''`` and backslash escapes,
* dollar-quoted strings (PostgreSQL ``$tag$ ... $tag$``),
* double-quoted and backtick-quoted identifiers,
* ``--`` line comments and ``/* ... */`` block comments (nested),
* integer / decimal / exponent numeric literals of arbitrary length
  (SOFT deliberately produces numbers far wider than any machine type),
* hex literals ``0x1F`` and PostgreSQL-style ``x'1F'``.

:func:`tokenize` makes one match of a compiled master pattern per token
(leading whitespace included) and dispatches on the alternative that
matched (``lastgroup``).  Only three bodies are scanned on their own:
strings and quoted identifiers by one regex match plus an end check, and
nested block comments by a walk over their ``/*`` and ``*/`` marks.  No
pattern can backtrack, and none needs atomic groups (Python 3.9).
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .tokens import MULTI_CHAR_OPERATORS, SINGLE_CHAR_OPERATORS, Token, TokenKind

# Alternatives are tried in order, so comments and numbers precede the
# operators ``-``, ``/`` and ``.``; multi-char operators keep their
# longest-first order.  ``\w`` is ``str.isalnum()`` or ``_`` and ``\d`` is
# ``str.isdecimal()``.  ``[^\W\d]`` also admits non-decimal digits and
# numerals (``²``, ``½``, ``Ⅳ``), which may continue an identifier but not
# start one; :func:`tokenize` rejects them as a start.  ``\Z`` ends the
# input after trailing whitespace.
_MASTER = re.compile(
    r"[ \t\r\n\f\v]*(?:(?P<ident>[^\W\d][\w$]*)"
    r"|(?P<decimal>(?:\d+\.(?!\.)\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
    r"|(?P<integer>0[xX][0-9a-fA-F]*|\d+)"
    r"|(?P<line>--[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<string>')"
    r"|(?P<quoted>[\"`])"
    r"|(?P<dollar>\$\w*\$)"
    r"|(?P<op>"
    + "|".join(map(re.escape, MULTI_CHAR_OPERATORS))
    + "|["
    + "".join(map(re.escape, sorted(SINGLE_CHAR_OPERATORS)))
    + "])"
    r"|(?P<bad>.)|(?P<end>\Z))",
    re.S,
)

_STRING_BODY = re.compile(r"(?:[^'\\]+|''|\\.)*", re.S)
_STRING_ESCAPE = re.compile(r"''|\\(.)", re.S)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
            "\\": "\\", "'": "'", '"': '"'}
_QUOTED_BODY = {q: re.compile(f"(?:[^{q}]+|{q}{q})*") for q in '"`'}
_COMMENT_MARK = re.compile(r"/\*|\*/")

_SIMPLE_KINDS = {"op": TokenKind.OPERATOR, "integer": TokenKind.INTEGER,
                 "decimal": TokenKind.DECIMAL}


class LexError(ValueError):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


def _unescape(match: "re.Match[str]") -> str:
    char = match.group(1)
    if char is None:  # a doubled quote
        return "'"
    return _ESCAPES.get(char, "\\" + char)


def _string_at(source: str, start: int) -> Tuple[str, int]:
    """Decode the string literal opening at *start*; return (text, end)."""
    end = _STRING_BODY.match(source, start + 1).end()
    if not source.startswith("'", end):
        raise LexError("unterminated string literal", start)
    body = source[start + 1 : end]
    if "'" in body or "\\" in body:
        body = _STRING_ESCAPE.sub(_unescape, body)
    return body, end + 1


def _block_comment_end(source: str, start: int) -> int:
    depth = 0
    for mark in _COMMENT_MARK.finditer(source, start):
        depth += 1 if mark.group() == "/*" else -1
        if depth == 0:
            return mark.end()
    raise LexError("unterminated block comment", start)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* into a list (EOF token included)."""
    tokens: List[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos, length = 0, len(source)
    while pos < length:
        m = match(source, pos)
        group = m.lastgroup
        pos, end = m.span(group)
        kind = _SIMPLE_KINDS.get(group)
        if kind is not None:
            append(Token(kind, source[pos:end], pos))
        elif group == "ident":
            first = source[pos]
            if not (first.isalpha() or first == "_"):  # e.g. '²', '½', 'Ⅳ'
                raise LexError(f"unexpected character {first!r}", pos)
            text = source[pos:end]
            # MySQL-ish x'ab' / b'101' literals: treat as strings.
            if source.startswith("'", end) and text.lower() in ("x", "b"):
                text, end = _string_at(source, end)
                append(Token(TokenKind.STRING, text, pos, quoted=True))
            else:
                append(Token(TokenKind.IDENT, text, pos))
        elif group == "string":
            text, end = _string_at(source, pos)
            append(Token(TokenKind.STRING, text, pos, quoted=True))
        elif group == "quoted":
            quote = source[pos]
            end = _QUOTED_BODY[quote].match(source, end).end()
            if not source.startswith(quote, end):
                raise LexError("unterminated quoted identifier", pos)
            text = source[pos + 1 : end].replace(quote + quote, quote)
            append(Token(TokenKind.IDENT, text, pos, quoted=True))
            end += 1
        elif group == "dollar":
            tag = source[pos:end]
            close = source.find(tag, end)
            if close == -1:
                raise LexError("unterminated dollar-quoted string", pos)
            append(Token(TokenKind.STRING, source[end:close], pos, quoted=True))
            end = close + len(tag)
        elif group == "block":
            end = _block_comment_end(source, pos)
        elif group == "bad":
            raise LexError(f"unexpected character {source[pos]!r}", pos)
        pos = end
    append(Token(TokenKind.EOF, "", length))
    return tokens
