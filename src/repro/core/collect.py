"""Function-expression collection (SOFT step 1, §7.1).

SOFT acquires its initial function expressions from two sources, exactly as
the paper describes:

1. **Documentation scan** — every SQL function *name* in the dialect's
   function reference.
2. **Test-suite scan** — SQL queries from the dialect's regression suite are
   scanned for ``name(...)`` shapes: we walk all parenthesis pairs and, when
   the token before ``(`` is a known function name, lift the expression.

The paren-pair scan intentionally does not require the whole query to parse
(real regression suites contain dialect syntax our parser does not model);
each lifted expression is then parsed on its own.

Like SOFT, which collects once per DBMS, a process collects each dialect's
seeds once: :meth:`SeedCollector.collect` remembers its last eight results,
keyed by a digest of everything collection reads (the suite, the
documented names, each one's family and minimum arity, and the
per-function cap).  A dialect instance with a different suite or registry
therefore gets its own seeds, and nothing needs invalidating.  Seeds are
frozen and their trees are never mutated, so callers share them; each
call returns a fresh list.
"""

from __future__ import annotations

import hashlib
import sys
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dialects.base import Dialect
from ..engine.errors import NameError_
from ..sqlast import (
    Expr,
    FuncCall,
    IntegerLit,
    ParseError,
    StringLit,
    parse_expression,
    to_sql,
    tokenize,
)
from ..sqlast.lexer import LexError
from ..sqlast.tokens import Token, TokenKind


@dataclass(frozen=True)
class Seed:
    """One collected function expression."""

    function: str           # lower-case function name
    family: str             # function family per the dialect's docs
    expression: FuncCall    # parsed expression (never mutated; clone first)
    source: str             # originating query or "documentation"

    @property
    def sql(self) -> str:
        return to_sql(self.expression)


#: collected seeds by the digest of their sources (see
#: :meth:`SeedCollector.collect`), least recently used first; at most
#: ``_MEMO_SIZE`` entries
_MEMO: "OrderedDict[bytes, Tuple[Seed, ...]]" = OrderedDict()
_MEMO_SIZE = 8


#: the string argument of a synthetic seed, by family (others take ``1``)
_SYNTHETIC_STRINGS = {
    "string": "abc",
    "json": '{"a": 1}',
    "xml": "<a><b>x</b></a>",
    "date": "2020-05-06",
    "spatial": "POINT(1 2)",
    "inet": "127.0.0.1",
}


class SeedCollector:
    """Collects per-function seed expressions for one dialect."""

    def __init__(self, dialect: Dialect, max_seeds_per_function: int = 3) -> None:
        self.dialect = dialect
        self.max_seeds_per_function = max_seeds_per_function

    # ------------------------------------------------------------------
    def collect(self) -> List[Seed]:
        """Run both collection steps and return the deduplicated seeds
        (remembered per process; see the module docstring)."""
        suite = self.dialect.test_suite()
        functions = self._documented_functions()
        # the memo keeps a digest of what collection reads, not ~40 KB of
        # suite and registry data per entry
        key = hashlib.sha256(
            repr((suite, functions, self.max_seeds_per_function)).encode()
        ).digest()
        # no lock, so a fork can never inherit one held: each OrderedDict
        # call is atomic under the GIL; service worker threads that race
        # at worst both collect the same (equal) seeds, or find a key
        # another thread just evicted
        seeds = _MEMO.get(key)
        if seeds is None:
            known = {function[0] for function in functions}
            seeds = _MEMO[key] = tuple(self._collect(suite, known))
            while len(_MEMO) > _MEMO_SIZE:
                try:
                    _MEMO.popitem(last=False)
                except KeyError:  # emptied by another thread
                    break
        else:
            try:
                _MEMO.move_to_end(key)
            except KeyError:  # evicted by another thread meanwhile
                pass
        return list(seeds)

    def _documented_functions(self) -> List[Tuple]:
        """Every documented name with the registry family and ``min_args``
        that :meth:`_family_of` and :meth:`_synthetic_seed` look up for it
        (a name lifted from the suite is always a documented one).
        ``min_args`` is here because the free-text signature does not
        reliably encode it."""
        registry = self.dialect.registry
        functions: List[Tuple] = []
        for entry in self.dialect.documentation():
            try:
                definition = registry.lookup(entry.name)
            except NameError_:
                functions.append((entry.name,))
            else:
                functions.append(
                    (entry.name, definition.family, definition.min_args)
                )
        return functions

    def _collect(self, suite: Sequence[str], known: Set[str]) -> List[Seed]:
        # sorted: set iteration order is hash-randomized per process, and the
        # seed order feeds everything downstream (generation stream, campaign
        # results, checkpoint resume across processes)
        seeds: Dict[str, List[Seed]] = {name: [] for name in sorted(known)}
        seen_sql: Set[str] = set()
        for query in suite:
            for expr in self.scan_query(query, known):
                # interned: remembered seeds share one string per name
                name = sys.intern(expr.name.lower())
                bucket = seeds.setdefault(name, [])
                if len(bucket) >= self.max_seeds_per_function:
                    continue
                sql = to_sql(expr)
                if sql in seen_sql:
                    continue
                seen_sql.add(sql)
                bucket.append(
                    Seed(name, self._family_of(name), expr, source=query)
                )
        # documentation fallback: a function never seen in the suite still
        # gets a minimal synthetic seed so SOFT can exercise it
        for name in known:
            if not seeds.get(name):
                synthetic = self._synthetic_seed(name)
                if synthetic is not None:
                    seeds[name] = [synthetic]
        return [seed for bucket in seeds.values() for seed in bucket]

    # ------------------------------------------------------------------
    def _family_of(self, name: str) -> str:
        try:
            return self.dialect.registry.lookup(name).family
        except Exception:
            return "unknown"

    # ------------------------------------------------------------------
    def scan_query(self, query: str, known: Set[str]) -> List[FuncCall]:
        """Lift ``name(...)`` expressions from a query via paren scanning."""
        try:
            tokens = tokenize(query)
        except LexError:
            return []
        out: List[FuncCall] = []
        for idx, token in enumerate(tokens):
            if not token.is_op("("):
                continue
            if idx == 0:
                continue
            previous = tokens[idx - 1]
            if previous.kind is not TokenKind.IDENT:
                continue
            if previous.text.lower() not in known:
                continue
            close = self._matching_paren(tokens, idx)
            if close is None:
                continue
            text = query[previous.pos : self._token_end(query, tokens[close])]
            expr = self._parse_call(text)
            if expr is not None:
                out.append(expr)
        return out

    @staticmethod
    def _matching_paren(tokens: Sequence[Token], open_idx: int) -> Optional[int]:
        depth = 0
        for idx in range(open_idx, len(tokens)):
            if tokens[idx].is_op("("):
                depth += 1
            elif tokens[idx].is_op(")"):
                depth -= 1
                if depth == 0:
                    return idx
        return None

    @staticmethod
    def _token_end(query: str, token: Token) -> int:
        return token.pos + 1  # ')' is a single character

    @staticmethod
    def _parse_call(text: str) -> Optional[FuncCall]:
        try:
            expr = parse_expression(text)
        except (ParseError, LexError, RecursionError):
            return None
        return expr if isinstance(expr, FuncCall) else None

    # ------------------------------------------------------------------
    def _synthetic_seed(self, name: str) -> Optional[Seed]:
        """Build a minimal call for functions absent from the suite."""
        try:
            definition = self.dialect.registry.lookup(name)
        except Exception:
            return None
        text = _SYNTHETIC_STRINGS.get(definition.family)
        args: List[Expr] = [
            IntegerLit("1") if text is None else StringLit(text)
            for _ in range(definition.min_args)
        ]
        expr = FuncCall(name.upper(), args)
        return Seed(name, definition.family, expr, source="documentation")
