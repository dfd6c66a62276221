"""Unit and property tests for the from-scratch JSON implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.errors import StackOverflow, ValueError_
from repro.engine.memory import CallStack
from repro.engine.json_impl import (
    eval_json_path,
    json_depth,
    json_parse,
    json_serialize,
    parse_json_path,
)


class TestParser:
    def test_scalars(self):
        assert json_parse("null") is None
        assert json_parse("true") is True
        assert json_parse("false") is False
        assert json_parse("42") == 42
        assert json_parse("-1.5") == -1.5
        assert json_parse('"hi"') == "hi"

    def test_exponent_number(self):
        assert json_parse("1e3") == 1000.0

    def test_array(self):
        assert json_parse("[1, 2, [3]]") == [1, 2, [3]]

    def test_empty_containers(self):
        assert json_parse("[]") == []
        assert json_parse("{}") == {}

    def test_object(self):
        assert json_parse('{"a": 1, "b": [true]}') == {"a": 1, "b": [True]}

    def test_string_escapes(self):
        assert json_parse(r'"a\nb\t\"c\\"') == 'a\nb\t"c\\'

    def test_unicode_escape(self):
        assert json_parse(r'"A"') == "A"

    def test_whitespace_tolerated(self):
        assert json_parse('  { "a" : [ 1 , 2 ] }  ') == {"a": [1, 2]}

    @pytest.mark.parametrize("bad", [
        "", "{", "[1,", '{"a"}', "{'a': 1}", "[1 2]", "tru", '"unterminated',
        "01x", "{1: 2}", '{"a": }', "[,]",
    ])
    def test_invalid_inputs_rejected(self, bad):
        with pytest.raises(ValueError_):
            json_parse(bad)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError_):
            json_parse("[1] [2]")

    def test_depth_limit_raises_clean_error(self):
        deep = "[" * 200 + "]" * 200
        with pytest.raises(ValueError_):
            json_parse(deep, max_depth=128)

    def test_without_depth_guard_consumes_stack(self):
        """The CVE-2015-5289 configuration: no depth check, recursion eats
        the simulated thread stack until it overflows."""
        stack = CallStack(max_depth=64)
        deep = "[" * 100 + "]" * 100
        with pytest.raises(StackOverflow):
            json_parse(deep, stack=stack, max_depth=None)

    def test_fixed_configuration_survives(self):
        stack = CallStack(max_depth=256)
        deep = "[" * 100 + "]" * 100
        with pytest.raises(ValueError_):
            json_parse(deep, stack=stack, max_depth=64)


class TestSerialize:
    def test_scalars(self):
        assert json_serialize(None) == "null"
        assert json_serialize(True) == "true"
        assert json_serialize(12) == "12"

    def test_string_escaping(self):
        assert json_serialize('a"b\n') == '"a\\"b\\n"'

    def test_control_character(self):
        assert json_serialize("\x01") == '"\\u0001"'

    def test_nested(self):
        assert json_serialize({"a": [1, None]}) == '{"a": [1, null]}'

    @pytest.mark.parametrize("number", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_numbers_are_handled_errors(self, number):
        with pytest.raises(ValueError_, match="cannot serialise"):
            json_serialize([1, {"a": number}])

    @staticmethod
    def reference_quote(text):
        """The character loop ``json_serialize`` used before its escape table."""
        out = ['"']
        for ch in text:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ch == "\n":
                out.append("\\n")
            elif ch == "\t":
                out.append("\\t")
            elif ch == "\r":
                out.append("\\r")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)

    escaped_text = st.text(
        st.characters(min_codepoint=0, max_codepoint=0x20)
        | st.sampled_from('"\\/\x7f\xe9\u2028\ud800\udbff\udc00\udfff')
        | st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF)
        | st.characters(),
        max_size=40,
    )

    @given(escaped_text)
    @settings(max_examples=300)
    def test_string_escaping_matches_the_reference_loop(self, text):
        assert json_serialize(text) == self.reference_quote(text)

    def test_every_control_character_and_surrogate(self):
        text = "".join(map(chr, range(0x21))) + '"\\\ud800\udfff\U0001f600'
        assert json_serialize(text) == self.reference_quote(text)

    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-10**6, 10**6)
        | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=20,
    )

    @given(json_values)
    @settings(max_examples=150)
    def test_round_trip(self, document):
        assert json_parse(json_serialize(document)) == document


class TestJsonPath:
    def test_root_only(self):
        assert parse_json_path("$") == []

    def test_members_and_indexes(self):
        assert parse_json_path("$.a[0].b") == ["a", 0, "b"]

    def test_quoted_member(self):
        assert parse_json_path('$."weird key"') == ["weird key"]

    def test_wildcards(self):
        assert parse_json_path("$[*].x") == [None, "x"]
        assert parse_json_path("$.*") == [None]

    @pytest.mark.parametrize("bad", ["a.b", "$[", "$.", "$[x]", "$x"])
    def test_invalid_paths(self, bad):
        with pytest.raises(ValueError_):
            parse_json_path(bad)

    def test_eval_member(self):
        doc = {"a": {"b": 5}}
        assert eval_json_path(doc, ["a", "b"]) == [5]

    def test_eval_index(self):
        assert eval_json_path([10, 20], [1]) == [20]

    def test_eval_negative_index(self):
        assert eval_json_path([10, 20], [-1]) == [20]

    def test_eval_missing_is_empty(self):
        assert eval_json_path({"a": 1}, ["b"]) == []
        assert eval_json_path([1], [5]) == []

    def test_eval_wildcard_fans_out(self):
        doc = [{"x": 1}, {"x": 2}]
        assert eval_json_path(doc, [None, "x"]) == [1, 2]


class TestDepth:
    def test_scalar_depth_one(self):
        assert json_depth(1) == 1
        assert json_depth("x") == 1

    def test_empty_container_depth_one(self):
        assert json_depth([]) == 1
        assert json_depth({}) == 1

    def test_nested(self):
        assert json_depth([[1]]) == 3
        assert json_depth({"a": {"b": 1}}) == 3
