"""SQL lexing, parsing, printing, and AST utilities.

This package is the shared language layer: the simulated DBMS engines parse
queries with it, SOFT's pattern transformations rewrite its trees, and the
baseline fuzzers generate queries as trees and print them.
"""

from .lexer import LexError, tokenize
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
    Explain,
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
    RawStatement,
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
from .parser import ParseError, Parser, parse_expression, parse_statement, parse_statements
from .printer import to_sql
from .visitor import (
    clone,
    count_function_calls,
    find_function_calls,
    find_literals,
    max_function_nesting,
    replace_node,
    transform,
    walk,
)

__all__ = [
    "ArrayExpr", "BetweenExpr", "BinaryOp", "BooleanLit", "CaseExpr", "Cast",
    "ColumnDef", "ColumnRef", "CreateTable", "DecimalLit", "DropTable",
    "ExistsExpr", "Explain", "Expr", "FuncCall", "InExpr", "IndexExpr", "Insert",
    "IntegerLit", "IntervalExpr", "IsNullExpr", "JoinRef", "LexError",
    "LikeExpr", "MapExpr", "Node", "NullLit", "OrderItem",
    "ParamRef", "ParseError", "Parser", "RawStatement", "RowExpr", "Select",
    "SelectItem", "SelectLike", "SetOp", "SetStmt", "Star", "Statement",
    "StringLit", "SubqueryExpr", "SubqueryRef", "TableRef", "TypeName",
    "UnaryOp", "Update", "Delete", "clone", "count_function_calls", "find_function_calls",
    "find_literals", "max_function_nesting", "parse_expression",
    "parse_statement", "parse_statements", "replace_node", "to_sql",
    "tokenize", "transform", "walk",
]
