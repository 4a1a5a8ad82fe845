"""The report emitter against json.dumps(sort_keys=True, indent=2)."""

import enum
import json
from collections import OrderedDict
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopexp import LoopLabel
from loopexp.cli import _emit_json, main
from loopexp.jsonout import Fragment, json_chunks


class Color(enum.IntEnum):
    RED = 1


class Name(str):
    pass


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def render(value) -> str:
    return "".join(json_chunks(value))


# Text with the characters json escapes: quotes, backslashes, control
# characters, non-ASCII and the line separators U+2028/U+2029.
ESCAPED = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\u00e9\u20ac\U0001f600'
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(ESCAPED)), max_size=12)
INTS = st.one_of(st.integers(), st.integers(-10 ** 40, -10 ** 18), st.integers(10 ** 18, 10 ** 40))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
FLAT_INTS = st.lists(st.integers(-3, 3), min_size=1, max_size=4)
VALUES = st.recursive(
    st.one_of(SCALARS, FLAT_INTS),
    lambda children: st.one_of(st.lists(children, max_size=5),
                               st.lists(children, max_size=5).map(tuple),
                               st.dictionaries(TEXT, children, max_size=5)),
    max_leaves=25)


@settings(max_examples=100, deadline=None)
@given(VALUES)
def test_emitter_matches_json_dumps(value):
    assert render(value) == reference(value)


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -(10 ** 30), None, True, False, "\u2028\"\\\x01\u00e9",
    {"": [], "a": {}, "b": [[], {}], "\u2028": {"\"\\\x1f": ["\u00e9", None, True]}},
    # The same flat int list at four depths, and bool lists equal to int lists.
    {"a": [1, -2], "b": [[1, -2]], "c": [[[1, -2]], [1, -2]], "d": {"e": [1, -2]}},
    [[1, 0], [True, False], [1, 0], (1, 0), [1, True]],
    # Subclasses of int, str, tuple and dict are written like their bases.
    [Color.RED, [Color.RED, 2], Name("n\u00e9"), LoopLabel(1, -2),
     OrderedDict([("b", [1]), ("a", Name("x"))])],
])
def test_emitter_matches_json_dumps_on_edge_cases(value):
    assert render(value) == reference(value)


@pytest.mark.parametrize("value", [
    1.5, {"x": 0.0}, [1, 2.0], [Fraction(1, 2)], {"x": {1, 2}}, {1: "a"}, {"a": {2: "b"}}])
def test_emitter_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        json_chunks(value)


def test_emit_error_leaves_no_partial_file(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _emit_json({"a": list(range(1000)), "b": 0.5}, str(out))
    assert not out.exists()


def fragment_of(value, depth):
    """``value`` pre-rendered as it would sit at ``depth``."""
    return Fragment(depth, [reference(value).replace("\n", "\n" + "  " * depth)])


@pytest.mark.parametrize("value", [[[1, 2], {"b": "x", "c": []}], [], "text", {}])
def test_fragment_is_spliced_where_it_sits(value):
    assert render(fragment_of(value, 0)) == reference(value)
    assert render({"a": 1, "s": fragment_of(value, 1)}) == reference({"a": 1, "s": value})
    assert render({"a": {"b": [fragment_of(value, 3), 0]}}) == reference(
        {"a": {"b": [value, 0]}})


@pytest.mark.parametrize("depth", [0, 2])
def test_fragment_at_the_wrong_depth_raises(depth):
    with pytest.raises(ValueError, match="depth"):
        json_chunks({"series": fragment_of([1, [2]], depth)})


def test_misplaced_fragment_leaves_no_partial_file(tmp_path):
    out = tmp_path / "report.json"
    payload = {"a": list(range(1000)), "series": fragment_of([[1, 2]], 3)}
    with pytest.raises(ValueError):
        _emit_json(payload, str(out))
    assert not out.exists()


def test_stdout_and_file_reports_are_the_same_bytes(tmp_path, capsys):
    argv = ["mc", "-a", "epsilon3", "--split", "mode_parity", "-D", "3", "-M", "1"]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == out.read_text(encoding="utf-8")
    assert text == reference(json.loads(text)) + "\n"
