"""Unit tests for the XML and geometry substrates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import StackOverflow, ValueError_
from repro.engine.geo import (
    GeometryCollection,
    LineString,
    MultiPoint,
    Point,
    Polygon,
    _WktScanner,
    geometry_from_bytes,
    geometry_to_bytes,
    wkt_parse,
)
from repro.engine.memory import CallStack
from repro.engine.xml_impl import eval_xpath, parse_xpath, xml_parse


class TestXmlParser:
    def test_simple_element(self):
        doc = xml_parse("<a>text</a>")
        assert doc.roots[0].tag == "a"
        assert doc.roots[0].text == "text"

    def test_nested(self):
        doc = xml_parse("<a><b>x</b><c/></a>")
        assert [c.tag for c in doc.roots[0].children] == ["b", "c"]

    def test_attributes(self):
        doc = xml_parse('<a id="1" flag="y"/>')
        assert doc.roots[0].find_attr("id") == "1"
        assert doc.roots[0].find_attr("missing") is None

    def test_multiple_roots(self):
        doc = xml_parse("<a/><b/>")
        assert len(doc.roots) == 2

    def test_comment_and_pi_skipped(self):
        doc = xml_parse("<?xml version='1'?><!-- hi --><a/>")
        assert doc.roots[0].tag == "a"

    def test_serialize_round_trip(self):
        text = "<a><b>x</b><c></c></a>"
        assert xml_parse(text).serialize() == text

    @pytest.mark.parametrize("bad", [
        "", "<a>", "<a></b>", "<a", "text only", "<a attr=></a>",
        "<a><b></a></b>",
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError_):
            xml_parse(bad)

    def test_depth_guard(self):
        deep = "<a>" * 200 + "</a>" * 200
        with pytest.raises(ValueError_):
            xml_parse(deep, max_depth=64)

    def test_unguarded_depth_hits_stack(self):
        stack = CallStack(max_depth=64)
        deep = "<a>" * 100 + "</a>" * 100
        with pytest.raises(StackOverflow):
            xml_parse(deep, stack=stack, max_depth=None)

    def test_all_text_concatenates(self):
        # mixed-content ordering is not preserved: direct text first,
        # then children (sufficient for the EXTRACTVALUE-style functions)
        doc = xml_parse("<a>x<b>y</b>z</a>")
        assert doc.roots[0].all_text() == "xzy"


class TestXPath:
    def test_child_steps(self):
        doc = xml_parse("<a><b>1</b><b>2</b></a>")
        steps = parse_xpath("/a/b")
        matches = eval_xpath(doc, steps)
        assert [m.all_text() for m in matches] == ["1", "2"]

    def test_positional_predicate(self):
        doc = xml_parse("<a><b>1</b><b>2</b></a>")
        matches = eval_xpath(doc, parse_xpath("/a/b[2]"))
        assert [m.all_text() for m in matches] == ["2"]

    def test_descendant_axis(self):
        doc = xml_parse("<a><x><b>deep</b></x></a>")
        matches = eval_xpath(doc, parse_xpath("//b"))
        assert matches[0].all_text() == "deep"

    def test_attribute_step(self):
        doc = xml_parse('<a><b id="7"/></a>')
        assert eval_xpath(doc, parse_xpath("/a/b/@id")) == ["7"]

    def test_wildcard(self):
        doc = xml_parse("<a><b/><c/></a>")
        assert len(eval_xpath(doc, parse_xpath("/a/*"))) == 2

    @pytest.mark.parametrize("bad", ["a/b", "/a[", "/a[x]", "//"])
    def test_invalid_xpath(self, bad):
        with pytest.raises(ValueError_):
            parse_xpath(bad)


class TestWkt:
    def test_point(self):
        geom = wkt_parse("POINT(1 2)")
        assert geom == Point(1, 2)
        assert geom.to_wkt() == "POINT(1 2)"

    def test_linestring_length(self):
        geom = wkt_parse("LINESTRING(0 0, 3 4)")
        assert geom.length() == 5.0

    def test_polygon_area(self):
        geom = wkt_parse("POLYGON((0 0, 4 0, 4 4, 0 4, 0 0))")
        assert geom.area() == 16.0

    def test_polygon_with_hole(self):
        geom = wkt_parse(
            "POLYGON((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))"
        )
        assert geom.area() == 15.0

    def test_multipoint(self):
        geom = wkt_parse("MULTIPOINT(1 1, 2 2)")
        assert isinstance(geom, MultiPoint)

    def test_collection_empty(self):
        geom = wkt_parse("GEOMETRYCOLLECTION EMPTY")
        assert geom == GeometryCollection(())

    def test_collection_members(self):
        geom = wkt_parse("GEOMETRYCOLLECTION(POINT(1 1), POINT(2 2))")
        assert len(geom.members) == 2

    @pytest.mark.parametrize("bad", ["", "POINT()", "POINT(1)", "BLOB(1 2)",
                                     "POINT(1 2) extra"])
    def test_invalid_wkt(self, bad):
        with pytest.raises(ValueError_):
            wkt_parse(bad)

    def test_round_trip(self):
        for text in ("POINT(1 2)", "LINESTRING(0 0, 1 1, 2 0)",
                     "POLYGON((0 0, 1 0, 1 1, 0 0))"):
            assert wkt_parse(text).to_wkt() == text


def _word_by_characters(text: str, pos: int):
    """The scanner's word rule one character at a time: the run of
    ``str.isalpha`` characters at *pos* and the position after it."""
    end = pos
    while end < len(text) and text[end].isalpha():
        end += 1
    return text[pos:end].upper(), end


class TestWktWord:
    """``_WktScanner.word`` matches letter runs with one compiled pattern;
    it must accept exactly the characters the per-character loop does."""

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from("aZé²Ⅳ_9٣ ( ,ǅʰ"), st.characters()
            ),
            max_size=30,
        ),
        st.integers(0, 5),
    )
    @settings(max_examples=500)
    def test_matches_the_character_loop(self, text, skip):
        scanner = _WktScanner(text)
        scanner.pos = min(skip, len(text))
        scanner.skip_ws()
        expected = _word_by_characters(text, scanner.pos)
        assert (scanner.word(), scanner.pos) == expected

    @pytest.mark.parametrize(
        "text", ["POINT²(1 2)", "LINEⅣ", "éPOLYGON", "POINT_X", "point"]
    )
    def test_non_letters_end_a_word(self, text):
        scanner = _WktScanner(text)
        assert (scanner.word(), scanner.pos) == _word_by_characters(text, 0)

    def test_long_letter_run(self):
        text = "é" * 100_000 + "(1 2)"
        scanner = _WktScanner(text)
        assert scanner.word() == "É" * 100_000
        assert scanner.pos == 100_000


class TestBoundaries:
    def test_point_boundary_empty(self):
        assert Point(1, 2).boundary() == GeometryCollection(())

    def test_open_linestring_boundary_is_endpoints(self):
        line = LineString((Point(0, 0), Point(1, 1)))
        boundary = line.boundary()
        assert isinstance(boundary, MultiPoint)
        assert boundary.points == (Point(0, 0), Point(1, 1))

    def test_closed_linestring_boundary_empty(self):
        ring = LineString((Point(0, 0), Point(1, 1), Point(0, 0)))
        assert ring.boundary() == GeometryCollection(())

    def test_polygon_boundary_is_exterior_ring(self):
        poly = wkt_parse("POLYGON((0 0, 1 0, 1 1, 0 0))")
        assert isinstance(poly.boundary(), LineString)


class TestBinaryGeometry:
    def test_point_round_trip(self):
        blob = geometry_to_bytes(Point(1.5, -2.5))
        assert geometry_from_bytes(blob) == Point(1.5, -2.5)

    def test_linestring_round_trip(self):
        line = LineString((Point(0, 0), Point(1, 1)))
        assert geometry_from_bytes(geometry_to_bytes(line)) == line

    def test_invalid_blob_raises_when_validating(self):
        with pytest.raises(ValueError_):
            geometry_from_bytes(b"\x63junk")

    def test_invalid_blob_returns_none_unvalidated(self):
        """The flawed configuration several injected bugs rely on: a bad
        blob becomes a NULL geometry instead of an error."""
        assert geometry_from_bytes(b"\x63junk", validate=False) is None
