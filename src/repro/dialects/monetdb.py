"""Simulated MonetDB.

MonetDB is the smallest inventory of the seven (Table 5: SOFT triggers 171
functions; SQLsmith only 29).  Nineteen injected bugs, all confirmed and
fixed — MonetDB's developers turned fixes around quickly during the
disclosure window.
"""

from __future__ import annotations

from typing import List

from ..engine.casting import TypeLimits
from ..engine.functions import FunctionRegistry
from .base import Dialect
from .bugs import InjectedBug, register_bugs

_BUG_ROWS = [
    # -- aggregate (7): NPD(6), SEGV(1); P1.2(1), P2.1(1), P2.2(2), P2.3(2), P3.3(1)
    ("sum", "aggregate", "NPD", "P2.2", ("unionarr", 0),
     "SELECT SUM((SELECT 1 UNION SELECT 2));",
     "set-valued input reaches the BAT accumulator with a NULL tail "
     "pointer", True),
    ("avg", "aggregate", "NPD", "P2.2", ("unionarr", 0),
     "SELECT AVG((SELECT 1 UNION SELECT 2.5));",
     "mixed-type UNION coercion leaves the average state uninitialised", True),
    ("count", "aggregate", "NPD", "P2.1", ("castbin", 0),
     "SELECT COUNT(CAST('a' AS BINARY));",
     "blob candidates have no count-column image; NULL image dereferenced", True),
    ("min", "aggregate", "NPD", "P2.3", ("foreign", ("$",), 0),
     "SELECT MIN('$[0]');",
     "path-shaped strings select the dictionary-encoded comparator that "
     "this column never built", True),
    ("max", "aggregate", "NPD", "P2.3", ("foreign", ("/",), 0),
     "SELECT MAX('/a/b');",
     "same dictionary-comparator flaw as MIN, on the ascending scan", True),
    ("median", "aggregate", "NPD", "P3.3", ("ndate", 0),
     "SELECT MEDIAN(DATE('2020-01-02'));",
     "temporal values bypass the numeric partitioner and its NULL "
     "fallback is dereferenced", True),
    ("stddev", "aggregate", "SEGV", "P1.2", ("wide", 16, 0),
     "SELECT STDDEV(9999999999999999);",
     "the hugeint moment buffer is indexed by decimal digit count", True),
    # -- condition (3): NPD(2), SEGV(1); P2.2(1), P3.2(1), P3.3(1)
    ("coalesce", "condition", "NPD", "P2.2", ("unionarr", 0),
     "SELECT COALESCE((SELECT 1 UNION SELECT 2), 0);",
     "candidate-list walk over a set value dereferences a NULL candidate "
     "pointer", True),
    ("ifnull", "condition", "NPD", "P3.3", ("ngeom", 0),
     "SELECT IFNULL(POINT(1, 2), 0);",
     "geometry values have no nil-representation entry in the atom table", True),
    ("nullif", "condition", "SEGV", "P3.2", ("nbytes", 0),
     "SELECT NULLIF(UNHEX('FF'), 1);",
     "blob/int comparison reinterprets the blob header as a heap offset", True),
    # -- math (1): NPD(1); P2.2
    ("round", "math", "NPD", "P2.2", ("unionarr", 0),
     "SELECT ROUND((SELECT 1 UNION SELECT 2), 1);",
     "scale lookup for a set value returns the NULL scale descriptor", True),
    # -- string (6): NPD(5), HBOF(1); P1.2(1), P1.3(1), P1.4(1), P2.3(3)
    ("ltrim", "string", "NPD", "P1.2", ("empty", 0),
     "SELECT LTRIM('');",
     "the first-character probe of an empty varchar is a NULL byte "
     "pointer", True),
    ("locate", "string", "NPD", "P1.3", ("digitrun", 5, 1),
     "SELECT LOCATE('a', 'x99999x');",
     "digit runs trip the numeric-literal fast path that assumes a "
     "pre-parsed integer item", True),
    ("split_part", "string", "NPD", "P1.4", ("double", ",", 4, 0),
     "SELECT SPLIT_PART('a,,,,b', ',', 2);",
     "consecutive separators produce empty fields whose slice descriptor "
     "is NULL", True),
    ("replace", "string", "NPD", "P2.3", ("foreign", ("$",), 1),
     "SELECT REPLACE('abc', '$[0]', 'x');",
     "pattern precompilation for path-shaped needles is skipped; the "
     "compiled-pattern pointer stays NULL", True),
    ("instr", "string", "NPD", "P2.3", ("foreign", ("/",), 1),
     "SELECT INSTR('abc', '/a');",
     "same skipped precompilation on the position scan", True),
    ("concat_ws", "string", "HBOF", "P2.3", ("foreign", ("%",), 0),
     "SELECT CONCAT_WS('%Y', 'a', 'b');",
     "format-shaped separators are expanded in place into a buffer sized "
     "for the literal separator", True),
    # -- system (2): SEGV(1), DBZ(1); P1.2(1), P2.3(1)
    ("sleep", "system", "SEGV", "P1.2", ("neg", 0),
     "SELECT SLEEP(-99999);",
     "a negative duration underflows the timer-wheel slot index", True),
    ("benchmark", "system", "DBZ", "P2.3", ("zdiv", 0),
     "SELECT BENCHMARK(0, 1);",
     "per-iteration cost is computed as total/iterations with no zero "
     "check", True),
]


class MonetDBDialect(Dialect):
    name = "monetdb"
    version = "11.47.11"
    stack_depth = 256

    def make_limits(self) -> TypeLimits:
        return TypeLimits(
            decimal_max_digits=38,   # hugeint-backed decimals
            decimal_max_scale=38,
            decimal_default=(18, 3),
            json_max_depth=64,
            xml_max_depth=64,
        )

    def customize_registry(self, registry: FunctionRegistry) -> None:
        # a deliberately small analytical-core inventory
        for missing in (
            "updatexml", "extractvalue", "xml_valid", "xmlconcat",
            "xmlelement", "column_create", "column_json", "column_get",
            "elt", "field", "makedate", "maketime",
            "format_bytes", "name_const", "get_lock", "release_lock",
            "is_used_lock", "found_rows", "last_insert_id",
            "json_set", "json_remove", "json_merge", "json_merge_preserve",
            "json_pretty", "json_quote", "json_arrayagg", "json_objectagg",
            "json_object_agg", "json_contains", "json_insert",
            "map_keys", "map_values", "map_size", "map_contains",
            "mapcontains", "map_from_arrays", "map_entries", "map_concat",
            "array_flatten", "flatten", "array_distinct", "array_sort",
            "array_min", "array_max", "array_sum", "array_reverse",
            "array_prepend", "array_append", "array_position", "indexof",
            "list_position", "list_contains", "list_extract", "list_slice",
            "arrayelement", "array_extract", "grouparray",
            "inet_aton", "inet_ntoa", "inet6_aton", "inet6_ntoa",
            "is_ipv4", "is_ipv6", "soundex", "to_base64", "from_base64",
            "todecimalstring", "from_unixtime", "unix_timestamp",
            "date_format", "dayname", "monthname",
            "sha1", "sha2", "uuid", "bit_and",
            "bit_or", "bit_xor", "regexp_replace", "regexp_matches",
            "translate", "initcap", "quote", "crc32",
            "boundary", "st_boundary", "st_centroid", "st_equals",
            "st_distance", "st_geometrytype", "st_npoints", "st_isclosed",
        ):
            registry.remove(missing)
        registry.alias("char_length", "length_mdb")
        registry.alias("current_setting", "sys_getenv")

    def inject_bugs(self, registry: FunctionRegistry) -> None:
        self.bugs: List[InjectedBug] = register_bugs(self.name, registry, _BUG_ROWS)
