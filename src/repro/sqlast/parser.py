"""Recursive-descent SQL parser.

Parses the dialect-superset grammar SOFT needs: full scalar-expression
syntax (function calls, casts in three spellings, CASE, IN/BETWEEN/LIKE,
row/array/map constructors, subqueries) plus the statement forms that appear
in DBMS regression suites and bug PoCs (SELECT with set operations,
CREATE TABLE, INSERT, DROP TABLE, SET).

The parser is deliberately permissive about keywords: anything not consumed
as a keyword in context is an identifier, matching how SOFT must digest
seven dialects' test suites.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .lexer import tokenize
from .nodes import (
    ArrayExpr,
    BetweenExpr,
    BinaryOp,
    BooleanLit,
    CaseExpr,
    Cast,
    ColumnDef,
    ColumnRef,
    CreateTable,
    DecimalLit,
    Delete,
    DropTable,
    ExistsExpr,
    Expr,
    FuncCall,
    InExpr,
    IndexExpr,
    Insert,
    IntegerLit,
    IntervalExpr,
    IsNullExpr,
    JoinRef,
    LikeExpr,
    MapExpr,
    Node,
    NullLit,
    OrderItem,
    ParamRef,
    RowExpr,
    Select,
    SelectItem,
    SelectLike,
    SetOp,
    SetStmt,
    Star,
    Statement,
    StringLit,
    SubqueryExpr,
    SubqueryRef,
    TableRef,
    TypeName,
    UnaryOp,
    Update,
)
from .tokens import Token, TokenKind


class ParseError(ValueError):
    """Raised when the source text cannot be parsed."""

    def __init__(self, message: str, token: Optional[Token] = None) -> None:
        loc = f" near {token.text!r} (offset {token.pos})" if token else ""
        super().__init__(message + loc)
        self.token = token


#: Binary operator precedence (higher binds tighter).  NOT/unary handled
#: separately; comparison suffixes (IN/BETWEEN/LIKE/IS) sit at COMPARE level.
_PRECEDENCE = {
    "OR": 1,
    "XOR": 1,
    "AND": 2,
    "=": 4, "<": 4, ">": 4, "<=": 4, ">=": 4, "<>": 4, "!=": 4, "<=>": 4,
    "||": 5,
    "|": 6, "&": 6, "<<": 6, ">>": 6, "#": 6,
    "+": 7, "-": 7,
    "*": 8, "/": 8, "%": 8, "DIV": 8, "MOD": 8,
    "^": 9, "**": 9,
    "->": 10, "->>": 10, "#>": 10, "#>>": 10, "@>": 10, "<@": 10,
}

_INTERVAL_UNITS = {
    "YEAR", "MONTH", "DAY", "HOUR", "MINUTE", "SECOND", "WEEK", "QUARTER",
    "MICROSECOND", "MILLISECOND",
}

#: Word-spelled binary operators (matched on the token's upper-cased ``kw``).
_WORD_OPERATORS = frozenset(("AND", "OR", "XOR", "DIV", "MOD"))

#: Keywords that can start a comparison-level suffix (IN, BETWEEN, LIKE
#: family, IS, and NOT before the first three); any other token ends the
#: suffix check at once.
_SUFFIX_STARTERS = frozenset((
    "NOT", "IN", "BETWEEN", "LIKE", "ILIKE", "REGEXP", "RLIKE", "SIMILAR", "IS",
))

#: Prefix operator symbols.
_UNARY_OPERATORS = frozenset(("-", "+", "~", "!"))

#: Keywords that terminate an expression when met at top level.
_EXPR_TERMINATORS = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "UNION",
    "EXCEPT", "INTERSECT", "AS", "ASC", "DESC", "ON", "JOIN", "INNER",
    "LEFT", "RIGHT", "FULL", "CROSS", "WHEN", "THEN", "ELSE", "END",
}


class Parser:
    """Token-stream parser producing :mod:`repro.sqlast.nodes` trees."""

    def __init__(self, source: str, tokens: Optional[List[Token]] = None) -> None:
        self.source = source
        self._tokens = tokenize(source) if tokens is None else tokens
        self._index = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._index]

    def _peek(self, offset: int = 1) -> Token:
        idx = min(self._index + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind is not TokenKind.EOF:
            self._index += 1
        return tok

    def _accept_kw(self, *words: str) -> Optional[Token]:
        # *words* are upper-case; ``kw`` is None for anything but an
        # unquoted identifier, so quoted names never match a keyword
        tok = self._tokens[self._index]
        if tok.kw in words:
            self._index += 1
            return tok
        return None

    def _expect_kw(self, word: str) -> Token:
        tok = self._accept_kw(word)
        if tok is None:
            raise ParseError(f"expected keyword {word}", self._cur)
        return tok

    def _accept_op(self, *symbols: str) -> Optional[Token]:
        tok = self._tokens[self._index]
        if tok.kind is TokenKind.OPERATOR and tok.text in symbols:
            self._index += 1
            return tok
        return None

    def _expect_op(self, symbol: str) -> Token:
        tok = self._accept_op(symbol)
        if tok is None:
            raise ParseError(f"expected {symbol!r}", self._cur)
        return tok

    def _at_eof(self) -> bool:
        return self._cur.kind is TokenKind.EOF

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def parse_statements(self) -> List[Statement]:
        """Parse a ``;``-separated script into a list of statements."""
        statements: List[Statement] = []
        while not self._at_eof():
            if self._accept_op(";"):
                continue
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        tok = self._cur
        kw = tok.kw
        if kw == "SELECT" or tok.is_op("("):
            stmt = self._parse_select_like()
            self._accept_op(";")
            return stmt
        if kw == "CREATE":
            return self._finish(self._parse_create())
        if kw == "INSERT":
            return self._finish(self._parse_insert())
        if kw == "DROP":
            return self._finish(self._parse_drop())
        if kw == "SET":
            return self._finish(self._parse_set())
        if kw == "UPDATE":
            return self._finish(self._parse_update())
        if kw == "DELETE":
            return self._finish(self._parse_delete())
        if kw == "VALUES":
            return self._finish(self._parse_values_select())
        if kw == "EXPLAIN":
            self._advance()
            from .nodes import Explain

            return self._finish(Explain(self.parse_statement()))
        raise ParseError("unsupported statement", tok)

    def _finish(self, stmt: Statement) -> Statement:
        self._accept_op(";")
        return stmt

    def parse_expression(self) -> Expr:
        return self._parse_expr(0)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------
    def _parse_select_like(self) -> SelectLike:
        left = self._parse_select_atom()
        while True:
            op_tok = self._accept_kw("UNION", "EXCEPT", "INTERSECT")
            if op_tok is None:
                return left
            all_flag = self._accept_kw("ALL") is not None
            self._accept_kw("DISTINCT")
            right = self._parse_select_atom()
            left = SetOp(op_tok.kw, left, right, all=all_flag)

    def _parse_select_atom(self) -> SelectLike:
        if self._accept_op("("):
            inner = self._parse_select_like()
            self._expect_op(")")
            return inner
        if self._cur.kw == "VALUES":
            return self._parse_values_select()
        self._expect_kw("SELECT")
        select = Select()
        if self._accept_kw("DISTINCT"):
            select.distinct = True
        else:
            self._accept_kw("ALL")
        select.items.append(self._parse_select_item())
        while self._accept_op(","):
            select.items.append(self._parse_select_item())
        if self._accept_kw("FROM"):
            select.from_.append(self._parse_table_expr())
            while self._accept_op(","):
                select.from_.append(self._parse_table_expr())
        if self._accept_kw("WHERE"):
            select.where = self.parse_expression()
        if self._accept_kw("GROUP"):
            self._expect_kw("BY")
            select.group_by.append(self.parse_expression())
            while self._accept_op(","):
                select.group_by.append(self.parse_expression())
        if self._accept_kw("HAVING"):
            select.having = self.parse_expression()
        if self._accept_kw("ORDER"):
            self._expect_kw("BY")
            select.order_by.append(self._parse_order_item())
            while self._accept_op(","):
                select.order_by.append(self._parse_order_item())
        if self._accept_kw("LIMIT"):
            select.limit = self.parse_expression()
            if self._accept_op(","):  # MySQL LIMIT off, count
                select.offset = select.limit
                select.limit = self.parse_expression()
        if self._accept_kw("OFFSET"):
            select.offset = self.parse_expression()
        return select

    def _parse_values_select(self) -> Select:
        """Model ``VALUES (1, 2), (3, 4)`` as a SELECT of row literals."""
        self._expect_kw("VALUES")
        select = Select()
        rows: List[Expr] = []
        while True:
            self._expect_op("(")
            items = [self.parse_expression()]
            while self._accept_op(","):
                items.append(self.parse_expression())
            self._expect_op(")")
            rows.append(RowExpr(items, explicit=False))
            if not self._accept_op(","):
                break
        select.items = [SelectItem(row) for row in rows]
        return select

    def _parse_select_item(self) -> SelectItem:
        expr = self.parse_expression()
        alias = None
        if self._accept_kw("AS"):
            alias = self._advance().text
        elif (
            self._cur.kind is TokenKind.IDENT
            and self._cur.text.upper() not in _EXPR_TERMINATORS
        ):
            alias = self._advance().text
        return SelectItem(expr, alias)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self._accept_kw("DESC"):
            descending = True
        else:
            self._accept_kw("ASC")
        self._accept_kw("NULLS") and (self._accept_kw("FIRST") or self._accept_kw("LAST"))
        return OrderItem(expr, descending)

    def _parse_table_expr(self) -> Node:
        left = self._parse_table_primary()
        while True:
            kind = None
            if self._accept_kw("CROSS"):
                kind = "CROSS"
            elif self._accept_kw("INNER"):
                kind = "INNER"
            elif self._accept_kw("LEFT"):
                self._accept_kw("OUTER")
                kind = "LEFT"
            elif self._accept_kw("RIGHT"):
                self._accept_kw("OUTER")
                kind = "RIGHT"
            elif self._accept_kw("FULL"):
                self._accept_kw("OUTER")
                kind = "FULL"
            elif self._cur.kw == "JOIN":
                kind = "INNER"
            if kind is None:
                return left
            self._expect_kw("JOIN")
            right = self._parse_table_primary()
            on = None
            if self._accept_kw("ON"):
                on = self.parse_expression()
            left = JoinRef(left, right, kind, on)

    def _parse_table_primary(self) -> Node:
        if self._cur.is_op("("):
            self._advance()
            query = self._parse_select_like()
            self._expect_op(")")
            alias = self._parse_opt_alias()
            return SubqueryRef(query, alias)
        name_tok = self._advance()
        if name_tok.kind is not TokenKind.IDENT:
            raise ParseError("expected table name", name_tok)
        name = name_tok.text
        while self._accept_op("."):
            name = f"{name}.{self._advance().text}"
        return TableRef(name, self._parse_opt_alias())

    def _parse_opt_alias(self) -> Optional[str]:
        if self._accept_kw("AS"):
            return self._advance().text
        if (
            self._cur.kind is TokenKind.IDENT
            and self._cur.text.upper() not in _EXPR_TERMINATORS
            and self._cur.kw != "SET"
        ):
            return self._advance().text
        return None

    # ------------------------------------------------------------------
    # DDL / DML
    # ------------------------------------------------------------------
    def _parse_create(self) -> CreateTable:
        self._expect_kw("CREATE")
        self._accept_kw("TEMPORARY") or self._accept_kw("TEMP")
        self._expect_kw("TABLE")
        if_not_exists = False
        if self._accept_kw("IF"):
            self._expect_kw("NOT")
            self._expect_kw("EXISTS")
            if_not_exists = True
        name = self._advance().text
        table = CreateTable(name, if_not_exists=if_not_exists)
        self._expect_op("(")
        while True:
            table.columns.append(self._parse_column_def())
            if not self._accept_op(","):
                break
        self._expect_op(")")
        # Swallow trailing engine/charset options (MySQL-ism).
        while not self._at_eof() and not self._cur.is_op(";"):
            self._advance()
        return table

    def _parse_column_def(self) -> ColumnDef:
        name = self._advance().text
        type_name = self._parse_type_name()
        constraints: List[str] = []
        while True:
            if self._accept_kw("NOT"):
                self._expect_kw("NULL")
                constraints.append("NOT NULL")
            elif self._accept_kw("NULL"):
                constraints.append("NULL")
            elif self._accept_kw("PRIMARY"):
                self._expect_kw("KEY")
                constraints.append("PRIMARY KEY")
            elif self._accept_kw("UNIQUE"):
                constraints.append("UNIQUE")
            elif self._accept_kw("DEFAULT"):
                self._parse_expr(3)  # value discarded; catalog ignores defaults
                constraints.append("DEFAULT")
            else:
                return ColumnDef(name, type_name, constraints)

    def _parse_type_name(self) -> TypeName:
        tok = self._advance()
        if tok.kind is not TokenKind.IDENT:
            raise ParseError("expected type name", tok)
        name = tok.text
        # Multi-word types: DOUBLE PRECISION, CHARACTER VARYING, etc.
        if tok.text.upper() == "DOUBLE" and self._cur.kw == "PRECISION":
            self._advance()
            name = "DOUBLE PRECISION"
        elif tok.text.upper() == "CHARACTER" and self._cur.kw == "VARYING":
            self._advance()
            name = "VARCHAR"
        params: List[int] = []
        if self._accept_op("("):
            while not self._cur.is_op(")"):
                ptok = self._advance()
                if ptok.kind in (TokenKind.INTEGER, TokenKind.DECIMAL):
                    params.append(self._type_param(ptok))
                self._accept_op(",")
            self._expect_op(")")
        type_name = TypeName(name, params)
        while self._accept_op("["):  # array suffix  int[]
            self._expect_op("]")
            type_name = TypeName("ARRAY", [])
        return type_name

    @staticmethod
    def _type_param(tok: Token) -> int:
        """A type parameter's value: ``DECIMAL(10.5)`` means 10.  A hex
        literal, or a number too large for a float (``1e999``), is a
        syntax error rather than a Python exception."""
        try:
            value = float(tok.text)
        except ValueError:
            raise ParseError("invalid type parameter", tok) from None
        if not math.isfinite(value):
            raise ParseError("type parameter out of range", tok)
        return int(value)

    def _parse_insert(self) -> Insert:
        self._expect_kw("INSERT")
        self._accept_kw("IGNORE")
        self._expect_kw("INTO")
        table = self._advance().text
        columns: List[str] = []
        if self._cur.is_op("(") and self._peek().kw != "SELECT":
            self._advance()
            while not self._cur.is_op(")"):
                columns.append(self._advance().text)
                self._accept_op(",")
            self._expect_op(")")
        self._expect_kw("VALUES")
        rows: List[List[Expr]] = []
        while True:
            self._expect_op("(")
            row: List[Expr] = []
            if not self._cur.is_op(")"):
                row.append(self.parse_expression())
                while self._accept_op(","):
                    row.append(self.parse_expression())
            self._expect_op(")")
            rows.append(row)
            if not self._accept_op(","):
                break
        return Insert(table, columns, rows)

    def _parse_drop(self) -> DropTable:
        self._expect_kw("DROP")
        self._expect_kw("TABLE")
        if_exists = False
        if self._accept_kw("IF"):
            self._expect_kw("EXISTS")
            if_exists = True
        return DropTable(self._advance().text, if_exists)

    def _parse_update(self) -> Update:
        self._expect_kw("UPDATE")
        table = self._advance().text
        self._expect_kw("SET")
        assignments = []
        while True:
            column = self._advance().text
            if not self._accept_op("="):
                raise ParseError("expected '=' in UPDATE assignment", self._cur)
            assignments.append((column, self.parse_expression()))
            if not self._accept_op(","):
                break
        where = None
        if self._accept_kw("WHERE"):
            where = self.parse_expression()
        return Update(table, assignments, where)

    def _parse_delete(self) -> Delete:
        self._expect_kw("DELETE")
        self._expect_kw("FROM")
        table = self._advance().text
        where = None
        if self._accept_kw("WHERE"):
            where = self.parse_expression()
        return Delete(table, where)

    def _parse_set(self) -> SetStmt:
        self._expect_kw("SET")
        self._accept_kw("SESSION") or self._accept_kw("GLOBAL")
        name = self._advance().text
        while self._accept_op("."):
            name = f"{name}.{self._advance().text}"
        if not self._accept_op("=") and not self._accept_op(":="):
            raise ParseError("expected '=' in SET", self._cur)
        return SetStmt(name, self.parse_expression())

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def _parse_expr(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            op = self._current_binary_op()
            if op is None:
                suffix = self._try_parse_suffix(left, min_prec)
                if suffix is not None:
                    left = suffix
                    continue
                return left
            prec = _PRECEDENCE[op]
            if prec < min_prec:
                return left
            self._index += 1
            right = self._parse_expr(prec + 1)
            left = BinaryOp(op, left, right)

    def _current_binary_op(self) -> Optional[str]:
        tok = self._tokens[self._index]
        if tok.kind is TokenKind.OPERATOR:
            return tok.text if tok.text in _PRECEDENCE else None
        return tok.kw if tok.kw in _WORD_OPERATORS else None

    def _try_parse_suffix(self, left: Expr, min_prec: int) -> Optional[Expr]:
        """Parse comparison-level suffixes: IN, BETWEEN, LIKE, IS NULL."""
        if min_prec > 3 or self._tokens[self._index].kw not in _SUFFIX_STARTERS:
            return None
        negated = False
        save = self._index
        if self._accept_kw("NOT"):
            negated = True
        if self._accept_kw("IN"):
            self._expect_op("(")
            if self._cur.kw in ("SELECT", "VALUES"):
                sub = self._parse_select_like()
                self._expect_op(")")
                return InExpr(left, [SubqueryExpr(sub)], negated)
            items = [self.parse_expression()]
            while self._accept_op(","):
                items.append(self.parse_expression())
            self._expect_op(")")
            return InExpr(left, items, negated)
        if self._accept_kw("BETWEEN"):
            low = self._parse_expr(5)
            self._expect_kw("AND")
            high = self._parse_expr(5)
            return BetweenExpr(left, low, high, negated)
        like_tok = self._accept_kw("LIKE", "ILIKE", "REGEXP", "RLIKE", "SIMILAR")
        if like_tok is not None:
            op = like_tok.kw
            if op == "SIMILAR":
                self._expect_kw("TO")
                op = "SIMILAR TO"
            pattern = self._parse_expr(5)
            if self._accept_kw("ESCAPE"):
                self._parse_expr(5)
            return LikeExpr(left, pattern, negated, op)
        if negated:
            self._index = save  # NOT belonged to something else
            return None
        if self._accept_kw("IS"):
            neg = self._accept_kw("NOT") is not None
            if self._accept_kw("NULL"):
                return IsNullExpr(left, neg)
            if self._accept_kw("TRUE"):
                return BinaryOp("=", left, BooleanLit(not neg))
            if self._accept_kw("FALSE"):
                return BinaryOp("=", left, BooleanLit(neg))
            if self._accept_kw("DISTINCT"):
                self._expect_kw("FROM")
                other = self._parse_expr(5)
                return BinaryOp("IS DISTINCT FROM" if not neg else "IS NOT DISTINCT FROM", left, other)
            raise ParseError("unsupported IS expression", self._cur)
        return None

    def _parse_unary(self) -> Expr:
        if self._accept_kw("NOT"):
            return UnaryOp("NOT", self._parse_expr(3))
        tok = self._tokens[self._index]
        if tok.kind is TokenKind.OPERATOR and tok.text in _UNARY_OPERATORS:
            self._index += 1
            return UnaryOp(tok.text, self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            tok = self._tokens[self._index]
            if tok.kind is not TokenKind.OPERATOR:
                return expr
            if tok.text == "::":
                self._index += 1
                expr = Cast(expr, self._parse_type_name(), style="colons")
            elif tok.text == "[":
                self._index += 1
                index = self.parse_expression()
                self._expect_op("]")
                expr = IndexExpr(expr, index)
            else:
                return expr

    # -- primary --------------------------------------------------------
    def _parse_primary(self) -> Expr:
        tok = self._tokens[self._index]
        kind = tok.kind
        if kind is TokenKind.IDENT:
            return self._parse_ident_expr()
        if kind is TokenKind.INTEGER:
            self._index += 1
            return IntegerLit(tok.text)
        if kind is TokenKind.DECIMAL:
            self._index += 1
            return DecimalLit(tok.text)
        if kind is TokenKind.STRING:
            self._index += 1
            return StringLit(tok.text)
        if kind is TokenKind.OPERATOR:
            text = tok.text
            if text == "(":
                return self._parse_parenthesised()
            if text == "*":
                self._index += 1
                return Star()
            if text == "?":
                self._index += 1
                return ParamRef(0)
            if text == "[":
                return self._parse_bracket_array()
            if text == "{":
                return self._parse_brace_map()
        raise ParseError("unexpected token in expression", tok)

    def _parse_parenthesised(self) -> Expr:
        self._expect_op("(")
        if self._cur.kw in ("SELECT", "VALUES"):
            sub = self._parse_select_like()
            self._expect_op(")")
            return SubqueryExpr(sub)
        items = [self.parse_expression()]
        while self._accept_op(","):
            items.append(self.parse_expression())
        self._expect_op(")")
        if len(items) == 1:
            return items[0]
        return RowExpr(items, explicit=False)

    def _parse_bracket_array(self) -> Expr:
        self._expect_op("[")
        items: List[Expr] = []
        if not self._cur.is_op("]"):
            items.append(self.parse_expression())
            while self._accept_op(","):
                items.append(self.parse_expression())
        self._expect_op("]")
        return ArrayExpr(items)

    def _parse_brace_map(self) -> Expr:
        self._expect_op("{")
        keys: List[Expr] = []
        values: List[Expr] = []
        if not self._cur.is_op("}"):
            while True:
                keys.append(self.parse_expression())
                self._expect_op(":")
                values.append(self.parse_expression())
                if not self._accept_op(","):
                    break
        self._expect_op("}")
        return MapExpr(keys, values)

    def _parse_ident_expr(self) -> Expr:
        tok = self._advance()
        word = tok.kw
        if word == "NULL":
            return NullLit()
        if word == "TRUE":
            return BooleanLit(True)
        if word == "FALSE":
            return BooleanLit(False)
        if word == "CASE":
            return self._parse_case()
        if word == "CAST" and self._cur.is_op("("):
            return self._parse_cast_call()
        if word == "CONVERT" and self._cur.is_op("("):
            return self._parse_convert_call(tok.text)
        if word == "EXISTS" and self._cur.is_op("("):
            self._advance()
            sub = self._parse_select_like()
            self._expect_op(")")
            return ExistsExpr(sub)
        if word == "INTERVAL" and not self._cur.is_op("("):
            value = self._parse_primary()
            unit = "DAY"
            if self._cur.kind is TokenKind.IDENT and self._cur.text.upper() in _INTERVAL_UNITS:
                unit = self._advance().text.upper()
            return IntervalExpr(value, unit)
        if word == "ROW" and self._cur.is_op("("):
            self._advance()
            items: List[Expr] = []
            if not self._cur.is_op(")"):
                items.append(self.parse_expression())
                while self._accept_op(","):
                    items.append(self.parse_expression())
            self._expect_op(")")
            return RowExpr(items, explicit=True)
        if word == "ARRAY" and self._cur.is_op("["):
            return self._parse_bracket_array()
        if word == "MAP" and self._cur.is_op("{"):
            return self._parse_brace_map()
        if word == "DATE" and self._cur.kind is TokenKind.STRING:
            return FuncCall("DATE", [StringLit(self._advance().text)])
        if word == "TIMESTAMP" and self._cur.kind is TokenKind.STRING:
            return FuncCall("TIMESTAMP", [StringLit(self._advance().text)])
        if self._cur.is_op("("):
            return self._parse_func_call(tok.text)
        # qualified reference a.b.c or a.*
        parts = [tok.text]
        while self._accept_op("."):
            if self._accept_op("*"):
                return Star(qualifier=".".join(parts))
            nxt = self._advance()
            if nxt.kind is TokenKind.IDENT:
                parts.append(nxt.text)
            elif nxt.kind is TokenKind.INTEGER:
                parts.append(nxt.text)
            else:
                raise ParseError("expected identifier after '.'", nxt)
            if self._cur.is_op("("):
                return self._parse_func_call(".".join(parts))
        return ColumnRef(parts)

    def _parse_func_call(self, name: str) -> Expr:
        self._expect_op("(")
        call = FuncCall(name)
        if self._accept_kw("DISTINCT"):
            call.distinct = True
        if not self._cur.is_op(")"):
            call.args.append(self._parse_func_arg())
            while self._accept_op(","):
                call.args.append(self._parse_func_arg())
        self._expect_op(")")
        # Swallow aggregate suffixes: FILTER (WHERE ...), OVER (...)
        if self._cur.kw == "FILTER" and self._peek().is_op("("):
            self._advance()
            self._skip_balanced_parens()
        if self._cur.kw == "OVER" and self._peek().is_op("("):
            self._advance()
            self._skip_balanced_parens()
        return call

    def _parse_func_arg(self) -> Expr:
        if self._cur.is_op("*") :
            # lone star argument, or star followed by ')' / ','
            nxt = self._peek()
            if nxt.is_op(")") or nxt.is_op(","):
                self._advance()
                return Star()
        if self._cur.kw == "SELECT":
            return SubqueryExpr(self._parse_select_like())
        expr = self.parse_expression()
        # "expr AS type" inside CAST-like calls handled by caller;
        # some funcs use "x FROM y" (EXTRACT / SUBSTRING / TRIM): normalise.
        if self._accept_kw("FROM"):
            rest = self.parse_expression()
            extra: List[Expr] = [expr, rest]
            if self._accept_kw("FOR"):
                extra.append(self.parse_expression())
            return RowExpr(extra, explicit=False)
        return expr

    def _skip_balanced_parens(self) -> None:
        self._expect_op("(")
        depth = 1
        while depth and not self._at_eof():
            if self._cur.is_op("("):
                depth += 1
            elif self._cur.is_op(")"):
                depth -= 1
            self._advance()

    def _parse_cast_call(self) -> Cast:
        self._expect_op("(")
        operand = self.parse_expression()
        self._expect_kw("AS")
        type_name = self._parse_type_name()
        self._expect_op(")")
        return Cast(operand, type_name, style="cast")

    def _parse_convert_call(self, name: str) -> Expr:
        self._expect_op("(")
        operand = self.parse_expression()
        if self._accept_op(","):
            tn = self._parse_type_name()
            self._expect_op(")")
            return Cast(operand, tn, style="convert")
        if self._accept_kw("USING"):
            self._advance()  # charset name
            self._expect_op(")")
            return Cast(operand, TypeName("VARCHAR"), style="convert")
        self._expect_op(")")
        return FuncCall(name, [operand])

    def _parse_case(self) -> CaseExpr:
        operand: Optional[Expr] = None
        if self._cur.kw != "WHEN":
            operand = self.parse_expression()
        whens: List[Tuple[Expr, Expr]] = []
        while self._accept_kw("WHEN"):
            cond = self.parse_expression()
            self._expect_kw("THEN")
            whens.append((cond, self.parse_expression()))
        else_: Optional[Expr] = None
        if self._accept_kw("ELSE"):
            else_ = self.parse_expression()
        self._expect_kw("END")
        return CaseExpr(operand, whens, else_)


# ---------------------------------------------------------------------------
# convenience wrappers
# ---------------------------------------------------------------------------
def parse_statements(
    source: str, tokens: Optional[List[Token]] = None
) -> List[Statement]:
    """Parse *source* as a ``;``-separated script.

    *tokens* lets a caller that already lexed *source* skip the second
    tokenize pass.
    """
    return Parser(source, tokens=tokens).parse_statements()


def parse_statement(source: str) -> Statement:
    """Parse a single statement, rejecting trailing content."""
    parser = Parser(source)
    stmt = parser.parse_statement()
    parser._accept_op(";")
    if not parser._at_eof():
        raise ParseError("trailing input after statement", parser._cur)
    return stmt


def parse_expression(source: str) -> Expr:
    """Parse a standalone scalar expression."""
    parser = Parser(source)
    expr = parser.parse_expression()
    if not parser._at_eof():
        raise ParseError("trailing input after expression", parser._cur)
    return expr
