"""Unit tests for the SQL lexer."""

import hashlib
import random

import pytest

from repro.sqlast.lexer import LexError, tokenize
from repro.sqlast.tokens import TokenKind


def kinds(sql):
    return [t.kind for t in tokenize(sql)][:-1]  # drop EOF


def texts(sql):
    return [t.text for t in tokenize(sql)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("hello") == [TokenKind.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert texts("foo_bar42") == ["foo_bar42"]

    def test_integer(self):
        assert kinds("42") == [TokenKind.INTEGER]

    def test_decimal_with_point(self):
        assert kinds("4.2") == [TokenKind.DECIMAL]

    def test_decimal_leading_point(self):
        assert kinds(".5") == [TokenKind.DECIMAL]

    def test_exponent_literal_is_decimal(self):
        assert kinds("1e10") == [TokenKind.DECIMAL]

    def test_exponent_with_sign(self):
        assert texts("1.5e-3") == ["1.5e-3"]

    def test_e_suffix_without_digits_is_not_exponent(self):
        # "1e" must lex as number then identifier, not explode
        assert kinds("1e ") == [TokenKind.INTEGER, TokenKind.IDENT]

    def test_hex_literal(self):
        tokens = tokenize("0x1F")
        assert tokens[0].kind is TokenKind.INTEGER
        assert tokens[0].text == "0x1F"

    def test_very_long_integer_is_preserved_verbatim(self):
        digits = "9" * 200
        assert texts(digits) == [digits]


class TestNonAsciiDigits:
    """Numeric literals are made of characters ``int()`` accepts
    (``str.isdecimal``), not of every ``str.isdigit`` character."""

    @pytest.mark.parametrize(
        "sql", ["SELECT \u00b2;", "SELECT 1\u00b2;", "SELECT ABS(\u00b3);",
                "SELECT 1.\u00b2;"],
    )
    def test_superscript_digits_are_lex_errors(self, sql):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(sql)

    def test_arabic_indic_digits_lex_as_an_integer(self):
        token = tokenize("\u0661\u0662")[0]
        assert token.kind is TokenKind.INTEGER
        assert int(token.text) == 12

    def test_other_decimal_scripts_lex_as_decimals(self):
        tokens = tokenize("\u0967.\u0968e\u0969")  # Devanagari 1.2e3
        assert [t.kind for t in tokens][:-1] == [TokenKind.DECIMAL]
        assert float(tokens[0].text) == 1.2e3


class TestStrings:
    def test_simple_string(self):
        tokens = tokenize("'abc'")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "abc"

    def test_empty_string(self):
        assert tokenize("''")[0].text == ""

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].text == "it's"

    def test_backslash_escapes(self):
        assert tokenize(r"'a\nb'")[0].text == "a\nb"

    def test_backslash_unknown_escape_is_literal(self):
        assert tokenize(r"'a\qb'")[0].text == "a\\qb"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize("'abc")

    def test_dollar_quoted_string(self):
        tokens = tokenize("$$hello$$")
        assert tokens[0].kind is TokenKind.STRING
        assert tokens[0].text == "hello"

    def test_tagged_dollar_quote(self):
        assert tokenize("$tag$a$b$tag$")[0].text == "a$b"

    def test_hex_string_literal(self):
        tokens = tokenize("x'414243'")
        assert tokens[0].kind is TokenKind.STRING

    def test_quoted_identifier_double_quotes(self):
        tokens = tokenize('"my col"')
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].text == "my col"
        assert tokens[0].quoted

    def test_backtick_identifier(self):
        assert tokenize("`weird name`")[0].text == "weird name"


class TestCommentsAndWhitespace:
    def test_line_comment_skipped(self):
        assert texts("1 -- comment\n2") == ["1", "2"]

    def test_line_comment_at_eof(self):
        assert texts("1 -- trailing") == ["1"]

    def test_block_comment(self):
        assert texts("1 /* x */ 2") == ["1", "2"]

    def test_nested_block_comment(self):
        assert texts("1 /* a /* b */ c */ 2") == ["1", "2"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("1 /* oops")

    def test_all_whitespace_kinds(self):
        assert texts("1\t2\r\n3\f4") == ["1", "2", "3", "4"]


class TestOperators:
    def test_multichar_operators_greedy(self):
        assert texts("a::int") == ["a", "::", "int"]

    def test_comparison_operators(self):
        assert texts("a <= b >= c <> d != e") == [
            "a", "<=", "b", ">=", "c", "<>", "d", "!=", "e"
        ]

    def test_concat_operator(self):
        assert texts("a || b") == ["a", "||", "b"]

    def test_json_arrow_operators(self):
        assert texts("a -> b ->> c") == ["a", "->", "b", "->>", "c"]

    def test_null_safe_equals(self):
        assert texts("a <=> b") == ["a", "<=>", "b"]

    def test_keyword_helpers(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("select")
        assert token.is_keyword("SELECT")
        assert not token.is_keyword("FROM")

    def test_quoted_identifier_is_not_keyword(self):
        token = tokenize('"SELECT"')[0]
        assert not token.is_keyword("SELECT")

    def test_positions_recorded(self):
        tokens = tokenize("ab  cd")
        assert tokens[0].pos == 0
        assert tokens[1].pos == 4


# ---------------------------------------------------------------------------
# fuzz digest: a behaviour lock over texts no regression suite contains
# ---------------------------------------------------------------------------
#: sha256 of :func:`fuzz_transcript`, taken from the character-at-a-time
#: lexer before the single-pattern rewrite; regenerate
#: (``python tests/test_lexer.py``) only for a deliberate behaviour change
FUZZ_DIGEST = "242523f37f3bfc45c976cee83df5018fc56ada59d97ebbbee480ad4fdccc282d"

FUZZ_TEXTS = 200_000

#: pieces the random texts are glued from: every quote and comment opener,
#: escapes, number edges (``..``, ``0x``, exponents) and characters on which
#: ``str.isalpha``/``isdecimal``/``isalnum`` and ``\w``/``\d`` could disagree
FUZZ_ALPHABET = (
    "'", "''", '"', "`", "\\", "$", "$$", "$t$", "--", "/*", "*/", "..",
    ".", "0x", "0X", "e", "E", "+", "-", "x", "b", "_", "a", "F", "0", "1",
    "9", " ", "\n", "\t", "\u00a0", "(", ")", ",", ";", ":", "<", ">", "=",
    "!", "|", "#", "@", "*", "/", "?", "^", "\u00e9", "\u00b2", "\u00bd",
    "\u2163", "\u0661", "\u0301", "\u02b0", "\x00",
)


def fuzz_transcript():
    """One line per random text: its token tuples, or the LexError text."""
    rng = random.Random(20240419)
    for _ in range(FUZZ_TEXTS):
        text = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randrange(13)))
        try:
            tokens = tokenize(text)
        except LexError as exc:
            yield f"{text!r} ! {exc}"
            continue
        yield f"{text!r} " + repr(
            [(t.kind.value, t.text, t.pos, t.quoted) for t in tokens]
        )


def fuzz_digest():
    digest = hashlib.sha256()
    for line in fuzz_transcript():
        digest.update(line.encode("utf-8", "surrogatepass"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_fuzz_digest():
    assert fuzz_digest() == FUZZ_DIGEST


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(fuzz_digest())
