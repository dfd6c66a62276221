"""Front-end kernel tests: tokens, keyword matching, AST rewrites and copies.

The lexer, parser, optimizer and AST copy helpers are shared by every
statement a campaign runs, so they are tuned for interpreter overhead.
These tests pin what the tuning must not change: token identity, the
keyword rules for quoted identifiers, the tree-ownership rules of the
AST rewrite and copy helpers (copy-on-write rewrites that never modify
their input; deep clones), and a golden digest of lexing, parsing and
optimizing every dialect's regression suite plus the start of the duckdb
generation stream.
"""

import hashlib
import itertools

import pytest

from repro.core.collect import SeedCollector
from repro.core.patterns import PatternEngine
from repro.dialects import all_dialect_classes, dialect_by_name
from repro.engine.errors import CrashSignal
from repro.engine.optimizer import optimize_statement
from repro.sqlast import nodes as n
from repro.sqlast import parse_statement, parse_statements, to_sql
from repro.sqlast.lexer import tokenize
from repro.sqlast.parser import Parser
from repro.sqlast.tokens import Token, TokenKind
from repro.sqlast.visitor import clone, transform, walk

#: sha256 of :func:`_frontend_transcript`, generated before the front-end
#: kernels were rewritten; regenerate only for a deliberate behaviour change
GOLDEN_DIGEST = "eafbbf4d4d72455a95cef689563858ec93d028ca1fa96a5c3611ed1a4bc0e98b"

#: generated duckdb statements per statement family in the digest
GENERATED_PER_FAMILY = 2000


# ---------------------------------------------------------------------------
# tokens and keyword matching
# ---------------------------------------------------------------------------
class TestTokenValue:
    def test_equal_tokens_compare_and_hash_equal(self):
        a = Token(TokenKind.IDENT, "abs", 7)
        b = Token(TokenKind.IDENT, "abs", 7)
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize(
        "other",
        [
            Token(TokenKind.IDENT, "abs", 8),
            Token(TokenKind.IDENT, "ABS", 7),
            Token(TokenKind.IDENT, "abs", 7, quoted=True),
            Token(TokenKind.STRING, "abs", 7),
        ],
    )
    def test_any_field_difference_breaks_equality(self, other):
        assert Token(TokenKind.IDENT, "abs", 7) != other

    def test_not_equal_to_a_tuple_of_its_fields(self):
        token = Token(TokenKind.IDENT, "abs", 0)
        assert token != (TokenKind.IDENT, "abs", 0, False)

    def test_tokenize_is_deterministic_by_value(self):
        sql = "SELECT \"x\", 'y', 1.5 FROM t WHERE a <= ?;"
        assert tokenize(sql) == tokenize(sql)
        assert len(set(tokenize(sql))) == len(tokenize(sql))

    def test_kw_is_upper_cased_text_of_unquoted_identifiers_only(self):
        assert Token(TokenKind.IDENT, "sElEcT", 0).kw == "SELECT"
        assert Token(TokenKind.IDENT, "select", 0, quoted=True).kw is None
        assert Token(TokenKind.STRING, "select", 0, quoted=True).kw is None
        assert Token(TokenKind.OPERATOR, "(", 0).kw is None
        assert Token(TokenKind.EOF, "", 0).kw is None


class TestQuotedIdentifiersAreNeverKeywords:
    @pytest.mark.parametrize("sql", ['"select"', "`from`", '"NULL"', "`and`"])
    def test_quoted_token_is_not_a_keyword(self, sql):
        token = tokenize(sql)[0]
        assert token.quoted and token.kw is None
        assert not token.is_keyword(token.text)

    def test_quoted_keyword_in_select_list_is_a_column(self):
        stmt = parse_statement('SELECT "select", `from` FROM t')
        assert [item.expr for item in stmt.items] == [
            n.ColumnRef(["select"]),
            n.ColumnRef(["from"]),
        ]
        assert stmt.from_ == [n.TableRef("t")]

    @pytest.mark.parametrize(
        "sql, expected",
        [
            ('"null"', n.ColumnRef(["null"])),
            ("`true`", n.ColumnRef(["true"])),
            ('"case"', n.ColumnRef(["case"])),
            ("null", n.NullLit()),
            ("TrUe", n.BooleanLit(True)),
        ],
    )
    def test_quoted_literal_keywords_are_columns(self, sql, expected):
        assert Parser(sql).parse_expression() == expected

    @pytest.mark.parametrize("sql", ['a "and" b', "a `or` b", 'a "in" (1)', 'a "is" null'])
    def test_quoted_operator_words_do_not_continue_an_expression(self, sql):
        parser = Parser(sql)
        assert parser.parse_expression() == n.ColumnRef(["a"])
        assert parser._cur.quoted

    def test_unquoted_operator_words_match_in_any_case(self):
        expr = Parser("a aNd b Or c").parse_expression()
        assert expr == n.BinaryOp(
            "OR",
            n.BinaryOp("AND", n.ColumnRef(["a"]), n.ColumnRef(["b"])),
            n.ColumnRef(["c"]),
        )

    def test_quoted_select_does_not_start_a_statement(self):
        with pytest.raises(ValueError, match="unsupported statement"):
            parse_statement('"select" 1')


# ---------------------------------------------------------------------------
# tree ownership: optimize and transform rewrite copy-on-write and never
# modify their input; clone shares no node with its input
# ---------------------------------------------------------------------------
_TREE_SQL = [
    "SELECT ABS(-5) + 1, 2 * 3, 'x' AS s FROM t WHERE c > 1 + 1 ORDER BY c LIMIT 3",
    "SELECT CASE WHEN a IN (1, 2) THEN [1, 2][1] ELSE MAP {'k': 1} END",
    "SELECT x FROM (SELECT 1 AS x UNION ALL SELECT 2) AS s JOIN u ON s.x = u.y",
    "SELECT CAST(1 AS DECIMAL(30, 2)), a BETWEEN 1 AND 2, b LIKE 'a%' IS NULL",
    "SELECT REPEAT('ab', 3) WHERE TRUE",
]


def _node_ids(tree):
    return {id(node) for node in walk(tree)}


def _container_ids(tree):
    """ids of every list attribute (child lists, name parts, type params)."""
    return {
        id(value)
        for node in walk(tree)
        for value in vars(node).values()
        if isinstance(value, list)
    }


def _optimize(sql, fold_functions="0"):
    ctx = dialect_by_name("duckdb").make_context()
    ctx.set_config("fold_functions", fold_functions)
    stmt = parse_statement(sql)
    return stmt, optimize_statement(ctx, stmt)


@pytest.mark.parametrize("sql", _TREE_SQL)
@pytest.mark.parametrize("fold_functions", ["0", "1"])
def test_optimize_statement_never_mutates_its_input(sql, fold_functions):
    ctx = dialect_by_name("duckdb").make_context()
    ctx.set_config("fold_functions", fold_functions)
    stmt = parse_statement(sql)
    before = clone(stmt)
    nodes_before = [(node, dict(vars(node))) for node in walk(stmt)]
    optimize_statement(ctx, stmt)
    assert stmt == before and to_sql(stmt) == to_sql(before)
    for node, attributes in nodes_before:
        assert vars(node) == attributes


@pytest.mark.parametrize("sql", _TREE_SQL)
def test_identity_transform_returns_its_input(sql):
    stmt = parse_statement(sql)
    assert transform(stmt, lambda node: None) is stmt


@pytest.mark.parametrize("fold_functions", ["0", "1"])
def test_statement_with_nothing_to_fold_comes_back_as_the_same_object(
    fold_functions,
):
    stmt, optimized = _optimize(
        "SELECT a, UPPER(b) FROM (SELECT a, b FROM t) AS s "
        "WHERE a > c AND b IS NOT NULL ORDER BY a LIMIT 3",
        fold_functions,
    )
    assert optimized is stmt


def test_a_fold_copies_exactly_the_path_to_the_root():
    stmt, optimized = _optimize(
        "SELECT a, 1 + 1 AS two, b FROM t WHERE a > b ORDER BY a"
    )
    assert to_sql(optimized) == "SELECT a, 2 AS two, b FROM t WHERE (a > b) ORDER BY a"
    folded_item = optimized.items[1]
    fresh = _node_ids(optimized) - _node_ids(stmt)
    assert fresh == {id(optimized), id(folded_item), id(folded_item.expr)}
    # the untouched siblings stay shared, links and all
    assert optimized.items[0] is stmt.items[0]
    assert optimized.items[2] is stmt.items[2]
    assert optimized.from_ is stmt.from_
    assert optimized.where is stmt.where
    assert optimized.order_by is stmt.order_by
    assert to_sql(stmt) == "SELECT a, (1 + 1) AS two, b FROM t WHERE (a > b) ORDER BY a"


@pytest.mark.parametrize("where", ["TRUE", "1 = 1"])
def test_where_true_elimination_leaves_the_inputs_where_alone(where):
    ctx = dialect_by_name("duckdb").make_context()
    stmt = parse_statement(f"SELECT a FROM t WHERE {where}")
    predicate, before = stmt.where, to_sql(stmt)
    optimized = optimize_statement(ctx, stmt)
    assert optimized.where is None and to_sql(optimized) == "SELECT a FROM t"
    assert stmt.where is predicate and to_sql(stmt) == before
    assert optimized.items is stmt.items and optimized.from_ is stmt.from_


@pytest.mark.parametrize("sql", _TREE_SQL)
def test_clone_is_an_equal_tree_sharing_no_node_or_list(sql):
    stmt = parse_statement(sql)
    copy = clone(stmt)
    assert copy == stmt and to_sql(copy) == to_sql(stmt)
    assert not _node_ids(stmt) & _node_ids(copy)
    assert not _container_ids(stmt) & _container_ids(copy)


def test_clone_copies_nodes_off_the_child_links():
    """``Cast.type_name`` is not a child, but a deep copy still owns it."""
    stmt = parse_statement("SELECT CAST(1 AS DECIMAL(30, 2))")
    copy = clone(stmt)
    copy.items[0].expr.type_name.params.append(9)
    assert stmt.items[0].expr.type_name.params == [30, 2]


def _describe(exc: BaseException) -> str:
    return f"!{type(exc).__name__}: {exc}"


def _lex_line(sql: str) -> str:
    try:
        tokens = tokenize(sql)
    except Exception as exc:
        return _describe(exc)
    return repr([(t.kind.value, t.text, t.pos, t.quoted) for t in tokens])


def _parse_line(sql: str):
    try:
        statements = parse_statements(sql)
    except Exception as exc:
        return _describe(exc), []
    except RecursionError as exc:  # pragma: no cover - deep nesting
        return _describe(exc), []
    return repr([to_sql(s) for s in statements]), statements


def _optimize_line(ctx, sql: str, statements) -> str:
    out = []
    for stmt in statements:
        ctx.reset_query_state()
        ctx.reseed_statement_rng(sql)
        ctx.stage = "parse"
        try:
            out.append(to_sql(optimize_statement(ctx, stmt)))
        except (Exception, CrashSignal) as exc:
            out.append(_describe(exc))
    return repr(out)


def _generated(dialect_name: str, family: str):
    seeds = SeedCollector(dialect_by_name(dialect_name)).collect()
    engine = PatternEngine(seeds, statement_family=family)
    cases = itertools.islice(engine.generate_all(), GENERATED_PER_FAMILY)
    return [case.sql for case in cases]


def _frontend_transcript():
    """Yield one line per lexed, parsed and optimized statement.

    Covers every dialect's ``test_suite()`` and the first
    :data:`GENERATED_PER_FAMILY` generated duckdb statements of both
    statement families.  Optimization runs under the dialect's default
    config and again with ``fold_functions`` on, so function folding is
    covered too.
    """
    corpora = [
        (cls.name, cls().test_suite()) for cls in all_dialect_classes()
    ]
    corpora += [
        (f"duckdb/{family}", _generated("duckdb", family))
        for family in ("expression", "predicate")
    ]
    for label, queries in corpora:
        dialect = dialect_by_name(label.split("/")[0])
        plain = dialect.make_context()
        folding = dialect.make_context()
        folding.set_config("fold_functions", "1")
        for sql in queries:
            yield f"{label}\t{sql}"
            yield _lex_line(sql)
            parsed, statements = _parse_line(sql)
            yield parsed
            yield _optimize_line(plain, sql, statements)
            yield _optimize_line(folding, sql, statements)


def frontend_digest() -> str:
    digest = hashlib.sha256()
    for line in _frontend_transcript():
        digest.update(line.encode("utf-8", "surrogatepass"))
        digest.update(b"\n")
    return digest.hexdigest()


def test_golden_frontend_digest():
    assert frontend_digest() == GOLDEN_DIGEST


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print(frontend_digest())
