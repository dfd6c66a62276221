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
"""

from __future__ import annotations

from typing import Iterator, List

from .tokens import (
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)


#: multi-char operators indexed by first character so the operator lexer
#: only tries candidates that can match (source order — longest-first
#: within a bucket — is preserved for greedy matching); the common
#: punctuation tokens ``( ) , ;`` have no bucket and skip the scan entirely
_MULTI_BY_FIRST = {}
for _sym in MULTI_CHAR_OPERATORS:
    _MULTI_BY_FIRST.setdefault(_sym[0], []).append(_sym)
_MULTI_BY_FIRST = {k: tuple(v) for k, v in _MULTI_BY_FIRST.items()}
del _sym


class LexError(ValueError):
    """Raised when the input cannot be tokenized."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class Lexer:
    """Streaming tokenizer over a SQL source string."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def tokens(self) -> Iterator[Token]:
        """Yield tokens until EOF (the EOF token itself is yielded last)."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return

    def next_token(self) -> Token:
        """Return the next token, skipping whitespace and comments."""
        self._skip_trivia()
        if self.pos >= self.length:
            return Token(TokenKind.EOF, "", self.pos)

        ch = self.source[self.pos]
        if ch == "'":
            return self._lex_string()
        if ch == "$" and self._looks_like_dollar_quote():
            return self._lex_dollar_string()
        if ch in '"`':
            return self._lex_quoted_ident(ch)
        if ch.isdecimal() or (ch == "." and self._peek_is_digit(1)):
            return self._lex_number()
        if ch.isalpha() or ch == "_":
            return self._lex_ident()
        return self._lex_operator()

    # ------------------------------------------------------------------
    # trivia
    # ------------------------------------------------------------------
    def _skip_trivia(self) -> None:
        src, n = self.source, self.length
        while self.pos < n:
            ch = src[self.pos]
            if ch in " \t\r\n\f\v":
                self.pos += 1
            elif ch == "-" and src.startswith("--", self.pos):
                end = src.find("\n", self.pos)
                self.pos = n if end == -1 else end + 1
            elif ch == "/" and src.startswith("/*", self.pos):
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        start = self.pos
        depth = 0
        src, n = self.source, self.length
        while self.pos < n:
            if src.startswith("/*", self.pos):
                depth += 1
                self.pos += 2
            elif src.startswith("*/", self.pos):
                depth -= 1
                self.pos += 2
                if depth == 0:
                    return
            else:
                self.pos += 1
        raise LexError("unterminated block comment", start)

    # ------------------------------------------------------------------
    # literals and identifiers
    # ------------------------------------------------------------------
    def _peek_is_digit(self, offset: int) -> bool:
        idx = self.pos + offset
        return idx < self.length and self.source[idx].isdecimal()

    def _lex_string(self) -> Token:
        start = self.pos
        self.pos += 1  # opening quote
        out: List[str] = []
        src, n = self.source, self.length
        while self.pos < n:
            ch = src[self.pos]
            if ch == "'":
                if self.pos + 1 < n and src[self.pos + 1] == "'":
                    out.append("'")
                    self.pos += 2
                    continue
                self.pos += 1
                return Token(TokenKind.STRING, "".join(out), start, quoted=True)
            if ch == "\\" and self.pos + 1 < n:
                nxt = src[self.pos + 1]
                mapped = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
                          "\\": "\\", "'": "'", '"': '"'}.get(nxt)
                if mapped is not None:
                    out.append(mapped)
                    self.pos += 2
                    continue
            out.append(ch)
            self.pos += 1
        raise LexError("unterminated string literal", start)

    def _looks_like_dollar_quote(self) -> bool:
        # $tag$ where tag is alphanumeric-or-empty, e.g. $$ or $body$
        idx = self.pos + 1
        while idx < self.length and (self.source[idx].isalnum() or self.source[idx] == "_"):
            idx += 1
        return idx < self.length and self.source[idx] == "$"

    def _lex_dollar_string(self) -> Token:
        start = self.pos
        end_tag = self.source.index("$", self.pos + 1)
        tag = self.source[self.pos : end_tag + 1]  # includes both $ chars
        body_start = end_tag + 1
        close = self.source.find(tag, body_start)
        if close == -1:
            raise LexError("unterminated dollar-quoted string", start)
        self.pos = close + len(tag)
        return Token(TokenKind.STRING, self.source[body_start:close], start, quoted=True)

    def _lex_quoted_ident(self, quote: str) -> Token:
        start = self.pos
        self.pos += 1
        out: List[str] = []
        src, n = self.source, self.length
        while self.pos < n:
            ch = src[self.pos]
            if ch == quote:
                if self.pos + 1 < n and src[self.pos + 1] == quote:
                    out.append(quote)
                    self.pos += 2
                    continue
                self.pos += 1
                return Token(TokenKind.IDENT, "".join(out), start, quoted=True)
            out.append(ch)
            self.pos += 1
        raise LexError("unterminated quoted identifier", start)

    def _lex_number(self) -> Token:
        start = self.pos
        src, n = self.source, self.length
        if src.startswith(("0x", "0X"), self.pos):
            self.pos += 2
            while self.pos < n and src[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            return Token(TokenKind.INTEGER, src[start : self.pos], start)
        is_decimal = False
        while self.pos < n and src[self.pos].isdecimal():
            self.pos += 1
        if self.pos < n and src[self.pos] == ".":
            # Do not consume '..' (range operator in some dialects).
            if not src.startswith("..", self.pos):
                is_decimal = True
                self.pos += 1
                while self.pos < n and src[self.pos].isdecimal():
                    self.pos += 1
        if self.pos < n and src[self.pos] in "eE":
            save = self.pos
            self.pos += 1
            if self.pos < n and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and src[self.pos].isdecimal():
                is_decimal = True
                while self.pos < n and src[self.pos].isdecimal():
                    self.pos += 1
            else:
                self.pos = save  # 'e' starts an identifier, not an exponent
        kind = TokenKind.DECIMAL if is_decimal else TokenKind.INTEGER
        return Token(kind, src[start : self.pos], start)

    def _lex_ident(self) -> Token:
        start = self.pos
        src, n = self.source, self.length
        while self.pos < n and (src[self.pos].isalnum() or src[self.pos] in "_$"):
            self.pos += 1
        text = src[start : self.pos]
        # MySQL-ish x'ab' / b'101' literals: treat as strings.
        if text.lower() in ("x", "b") and self.pos < n and src[self.pos] == "'":
            inner = self._lex_string()
            return Token(TokenKind.STRING, inner.text, start, quoted=True)
        return Token(TokenKind.IDENT, text, start)

    def _lex_operator(self) -> Token:
        start = self.pos
        src = self.source
        ch = src[start]
        bucket = _MULTI_BY_FIRST.get(ch)
        if bucket is not None:
            for sym in bucket:
                if src.startswith(sym, start):
                    self.pos += len(sym)
                    return Token(TokenKind.OPERATOR, sym, start)
        if ch in SINGLE_CHAR_OPERATORS:
            self.pos += 1
            return Token(TokenKind.OPERATOR, ch, start)
        raise LexError(f"unexpected character {ch!r}", start)


def tokenize(source: str) -> List[Token]:
    """Tokenize *source* into a list (EOF token included)."""
    return list(Lexer(source).tokens())
