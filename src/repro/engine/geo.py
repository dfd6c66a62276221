"""Tiny geometry substrate (WKT subset) for spatial SQL functions.

Supports POINT, LINESTRING, POLYGON, MULTIPOINT, and GEOMETRYCOLLECTION —
enough surface for the spatial functions the paper's bugs touch
(``ST_ASTEXT``, ``BOUNDARY``, ``ST_X``, centroid/length/area helpers) and
for MariaDB-style crashes where non-geometry byte blobs (e.g. the output of
``INET6_ATON``) are fed into geometry code.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import ValueError_


class Geometry:
    """Base geometry class."""

    kind = "GEOMETRY"

    def to_wkt(self) -> str:
        raise NotImplementedError

    def boundary(self) -> "Geometry":
        """Topological boundary (simplified semantics)."""
        raise ValueError_(f"boundary not defined for {self.kind}")


@dataclass(frozen=True)
class Point(Geometry):
    x: float
    y: float
    kind = "POINT"

    def to_wkt(self) -> str:
        return f"POINT({_fmt(self.x)} {_fmt(self.y)})"

    def boundary(self) -> Geometry:
        return GeometryCollection(())  # a point's boundary is empty


@dataclass(frozen=True)
class LineString(Geometry):
    points: Tuple[Point, ...]
    kind = "LINESTRING"

    def to_wkt(self) -> str:
        inner = ", ".join(f"{_fmt(p.x)} {_fmt(p.y)}" for p in self.points)
        return f"LINESTRING({inner})"

    def length(self) -> float:
        total = 0.0
        for a, b in zip(self.points, self.points[1:]):
            total += math.hypot(b.x - a.x, b.y - a.y)
        return total

    @property
    def is_closed(self) -> bool:
        return len(self.points) >= 2 and self.points[0] == self.points[-1]

    def boundary(self) -> Geometry:
        if self.is_closed or not self.points:
            return GeometryCollection(())
        return MultiPoint((self.points[0], self.points[-1]))


@dataclass(frozen=True)
class Polygon(Geometry):
    rings: Tuple[Tuple[Point, ...], ...]
    kind = "POLYGON"

    def to_wkt(self) -> str:
        rings = ", ".join(
            "(" + ", ".join(f"{_fmt(p.x)} {_fmt(p.y)}" for p in ring) + ")"
            for ring in self.rings
        )
        return f"POLYGON({rings})"

    def area(self) -> float:
        """Shoelace area of the exterior ring minus interior rings."""
        def ring_area(ring: Tuple[Point, ...]) -> float:
            total = 0.0
            for a, b in zip(ring, ring[1:]):
                total += a.x * b.y - b.x * a.y
            return abs(total) / 2.0

        if not self.rings:
            return 0.0
        return ring_area(self.rings[0]) - sum(ring_area(r) for r in self.rings[1:])

    def boundary(self) -> Geometry:
        if not self.rings:
            return GeometryCollection(())
        return LineString(self.rings[0])


@dataclass(frozen=True)
class MultiPoint(Geometry):
    points: Tuple[Point, ...]
    kind = "MULTIPOINT"

    def to_wkt(self) -> str:
        inner = ", ".join(f"{_fmt(p.x)} {_fmt(p.y)}" for p in self.points)
        return f"MULTIPOINT({inner})"

    def boundary(self) -> Geometry:
        return GeometryCollection(())


@dataclass(frozen=True)
class GeometryCollection(Geometry):
    members: Tuple[Geometry, ...] = ()
    kind = "GEOMETRYCOLLECTION"

    def to_wkt(self) -> str:
        if not self.members:
            return "GEOMETRYCOLLECTION EMPTY"
        inner = ", ".join(m.to_wkt() for m in self.members)
        return f"GEOMETRYCOLLECTION({inner})"

    def boundary(self) -> Geometry:
        return GeometryCollection(())


def _fmt(value: float) -> str:
    return f"{value:g}"


# ---------------------------------------------------------------------------
# WKT parsing
# ---------------------------------------------------------------------------
#: a run of word characters that are neither digits nor ``_`` -- every
#: letter, and a few other alphanumerics (see :meth:`_WktScanner.word`)
_LETTER_RUN = re.compile(r"[^\W\d_]*")


class _WktScanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def word(self) -> str:
        """The run of letters (``str.isalpha``) at the cursor, upper-cased.

        One compiled match finds the run of word characters that are not
        digits or ``_``; when all of them are letters, that is the run.
        Such a run can also hold a word character that is not a letter
        (``²``, ``Ⅳ``); then the per-character loop decides.
        """
        self.skip_ws()
        start = self.pos
        end = _LETTER_RUN.match(self.text, start).end()
        if self.text[start:end].isalpha():
            self.pos = end
        else:
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
        return self.text[start : self.pos].upper()

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ValueError_(f"invalid WKT: expected {ch!r} at {self.pos}")
        self.pos += 1

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == ch:
            self.pos += 1
            return True
        return False

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in "+-.eE"
        ):
            self.pos += 1
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise ValueError_(f"invalid WKT number at offset {start}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def wkt_parse(text: str) -> Geometry:
    """Parse a WKT string into a :class:`Geometry`."""
    scanner = _WktScanner(text)
    geometry = _parse_geometry(scanner)
    if not scanner.at_end():
        raise ValueError_("trailing characters after WKT geometry")
    return geometry


def _parse_geometry(scanner: _WktScanner) -> Geometry:
    kind = scanner.word()
    if kind == "POINT":
        scanner.expect("(")
        point = Point(scanner.number(), scanner.number())
        scanner.expect(")")
        return point
    if kind == "LINESTRING":
        return LineString(tuple(_parse_point_list(scanner)))
    if kind == "POLYGON":
        scanner.expect("(")
        rings: List[Tuple[Point, ...]] = []
        while True:
            rings.append(tuple(_parse_point_list(scanner)))
            if not scanner.accept(","):
                break
        scanner.expect(")")
        return Polygon(tuple(rings))
    if kind == "MULTIPOINT":
        return MultiPoint(tuple(_parse_point_list(scanner)))
    if kind == "GEOMETRYCOLLECTION":
        scanner.skip_ws()
        if scanner.text[scanner.pos :].upper().startswith("EMPTY"):
            scanner.pos += len("EMPTY")
            return GeometryCollection(())
        scanner.expect("(")
        members: List[Geometry] = []
        while True:
            members.append(_parse_geometry(scanner))
            if not scanner.accept(","):
                break
        scanner.expect(")")
        return GeometryCollection(tuple(members))
    raise ValueError_(f"unknown WKT geometry type {kind!r}")


def _parse_point_list(scanner: _WktScanner) -> List[Point]:
    scanner.expect("(")
    points: List[Point] = []
    while True:
        if scanner.accept("("):
            points.append(Point(scanner.number(), scanner.number()))
            scanner.expect(")")
        else:
            points.append(Point(scanner.number(), scanner.number()))
        if not scanner.accept(","):
            break
    scanner.expect(")")
    return points


# ---------------------------------------------------------------------------
# binary (WKB-ish) form — deliberately *weakly validated*, because real
# DBMS spatial bugs (MariaDB case 6 in the paper) arise from feeding
# non-geometry byte blobs into geometry readers.
# ---------------------------------------------------------------------------
def geometry_from_bytes(blob: bytes, validate: bool = True) -> Optional[Geometry]:
    """Decode our toy binary form: 1-byte tag + 8-byte doubles.

    With ``validate=False`` (the flawed configuration several injected bugs
    use), unknown tags return ``None`` instead of raising — a NULL geometry
    pointer that downstream code may dereference.
    """
    import struct

    if len(blob) < 1:
        if validate:
            raise ValueError_("empty geometry blob")
        return None
    tag = blob[0]
    body = blob[1:]
    if tag == 1 and len(body) >= 16:
        x, y = struct.unpack("<dd", body[:16])
        return Point(x, y)
    if tag == 2 and len(body) % 16 == 0 and body:
        coords = struct.iter_unpack("<dd", body)
        return LineString(tuple(Point(x, y) for x, y in coords))
    if validate:
        raise ValueError_(f"invalid geometry blob (tag {tag})")
    return None


def geometry_to_bytes(geometry: Geometry) -> bytes:
    import struct

    if isinstance(geometry, Point):
        return bytes([1]) + struct.pack("<dd", geometry.x, geometry.y)
    if isinstance(geometry, LineString):
        body = b"".join(struct.pack("<dd", p.x, p.y) for p in geometry.points)
        return bytes([2]) + body
    raise ValueError_(f"cannot encode {geometry.kind} to binary")
