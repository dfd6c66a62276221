"""Simulated PostgreSQL.

PostgreSQL's strict type system and rigorous argument checks are the reason
the paper found only one new bug there (§7.3).  We model that strictness:
this dialect keeps every reference check, enables strict string/numeric
limits, and carries a single injected bug — the JSONB_OBJECT_AGG heap
overflow (CVE-2023-5868 analogue, found via Pattern 2.3).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..engine.casting import TypeLimits
from ..engine.functions import FunctionRegistry
from .base import Dialect
from .bugs import InjectedBug, register_bugs

_BUG_ROWS = [
    (
        "jsonb_object_agg", "aggregate", "HBOF", "P2.3",
        ("foreign", ("$",), 1),
        "SELECT JSONB_OBJECT_AGG('a', '$[0]');",
        "unknown-type aggregate arguments mis-identified as NUL-terminated "
        "strings; a JSON-path-shaped value makes the length calculation "
        "read past the allocation (CVE-2023-5868 analogue)",
        True,
    ),
]


class PostgreSQLDialect(Dialect):
    name = "postgresql"
    version = "16.1"
    stack_depth = 384

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=131072,  # PostgreSQL numeric is effectively unbounded
            decimal_max_scale=16383,
            decimal_default=None,       # a bare NUMERIC is unconstrained
            json_max_depth=64,          # the CVE-2015-5289 fix
            xml_max_depth=64,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # PostgreSQL spellings and additions
        registry.alias("json_extract", "jsonb_extract_path")
        registry.alias("json_array", "jsonb_build_array", "json_build_array")
        registry.alias("json_object", "jsonb_build_object", "json_build_object")
        registry.alias("json_pretty", "jsonb_pretty")
        registry.alias("array_length", "array_upper")
        registry.alias("concat_ws", "format_with_sep")
        registry.alias("length", "pg_column_size")
        registry.alias("current_setting", "pg_settings_get")
        registry.alias("version", "pg_version")
        registry.alias("database", "pg_database")
        registry.alias("now", "transaction_timestamp", "statement_timestamp",
                       "clock_timestamp")
        registry.alias("chr", "pg_chr")
        registry.alias("md5", "pg_md5")
        registry.alias("substring", "pg_substring")
        registry.alias("array_concat", "array_cat_pg")
        registry.alias("array_append", "array_append_pg")
        registry.alias("upper", "pg_upper")
        registry.alias("lower", "pg_lower")
        registry.alias("regexp_matches", "regexp_like")
        registry.alias("split_part", "string_to_array_part")
        registry.alias("to_char", "quote_literal_text")
        registry.alias("translate", "pg_translate")
        registry.alias("ascii", "pg_ascii")
        registry.alias("trim", "btrim")
        registry.alias("extract", "date_part")
        registry.alias("coalesce", "pg_coalesce")
        registry.alias("json_arrayagg", "json_agg", "jsonb_agg")
        # MySQL-only surface does not exist in PostgreSQL
        for missing in ("updatexml", "extractvalue", "column_create",
                        "column_json", "column_get", "elt", "field",
                        "from_base64", "to_base64", "makedate", "maketime",
                        "benchmark", "get_lock" , "format_bytes",
                        "inet_aton", "inet_ntoa", "inet6_aton", "inet6_ntoa"):
            registry.remove(missing)

    def inject_bugs(self, registry: FunctionRegistry) -> None:
        self.bugs: List[InjectedBug] = register_bugs(self.name, registry, _BUG_ROWS)
