"""The report emitter against json.dumps(sort_keys=True, indent=2)."""

import enum
import json
import tempfile
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopexp import ExpandedAlgebra, LoopLabel, ModeWindow, SplitKind, make_splitting
from loopexp.algebra import format_rational
from loopexp.cli import _emit_json, main
from loopexp.jsonout import Fragment, report_chunks

from helpers_oracles import raw_tensors


class Color(enum.IntEnum):
    RED = 1


class Name(str):
    pass


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def render(report) -> str:
    return "".join(report_chunks(report))


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
@given(TEXT, VALUES)
def test_emitter_matches_json_dumps(key, value):
    report = {key: value, "b": 0}
    assert render(report) == reference(report)


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
    # Each value as a top-level field, beside keys that sort before and after it.
    report = {"\n": 1, "value": value, "\u00e9": [value]}
    assert render(report) == reference(report)


@pytest.mark.parametrize("value", [[Fraction(1, 2)], {"x": {1, 2}}], ids=["fraction", "set"])
def test_emitter_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        report_chunks({"value": value})


def test_emit_error_leaves_no_partial_file(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(TypeError):
        _emit_json({"a": list(range(1000)), "b": Fraction(1, 2)}, str(out))
    assert not out.exists()


def fragment_of(value):
    """``value`` pre-rendered as a top-level field."""
    return Fragment([reference(value).replace("\n", "\n  ")])


@pytest.mark.parametrize("value", [[[1, 2], {"b": "x", "c": []}], [], "text", {}])
def test_fragment_is_spliced_where_it_sits(value):
    report = {"a": 1, "s": fragment_of(value), "z": [value]}
    assert render(report) == reference({**report, "s": value})


@pytest.mark.parametrize("depth", [0, 2])
def test_fragment_at_the_wrong_depth_raises(depth):
    # A fragment stands only for a top-level field, at depth 1: as the whole
    # report or inside a field it is refused.
    fragment = fragment_of([1, [2]])
    with pytest.raises(TypeError):
        report_chunks(fragment if depth == 0 else {"series": [fragment]})


def test_misplaced_fragment_leaves_no_partial_file(tmp_path):
    out = tmp_path / "report.json"
    payload = {"a": list(range(1000)), "series": {"rows": fragment_of([[1, 2]])}}
    with pytest.raises(TypeError):
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


@pytest.mark.parametrize("name", ["\u0000series", "\u0000constants", '"series": ['])
@pytest.mark.parametrize("argv", [
    ["mc", "--split", "mode_parity", "-D", "3", "-M", "1"],
    ["expand", "--split", "mode_parity", "--n0", "2", "--n1", "1", "-M", "1"]])
def test_a_name_that_looks_like_a_field_is_written_as_text(name, argv, tmp_path):
    # The pre-rendered fields are joined by key, never found by searching the
    # rendered text, so an algebra name may hold anything.
    definition = tmp_path / "algebra.json"
    definition.write_text(json.dumps({"name": name, "dim": 3, "entries": [
        {"a": a, "b": b, "c": c, "value": "1"} for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    ]}), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([*argv, "-a", str(definition), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert json.loads(text)["algebra"] == name
    assert text == reference(json.loads(text)) + "\n"


def plain_constants(alg: ExpandedAlgebra) -> list:
    """The expand report's constants as plain lists: a [x, y, z, value] row per
    retained term of each windowed generator pair x < y."""
    def label(g):
        return [g.gen, g.mode, g.order]

    rows = []
    for i, x in enumerate(alg.generators):
        for y in alg.generators[i + 1:]:
            if abs(x.mode + y.mode) <= alg.window.max_abs_mode:
                rows += [[label(x), label(y), label(z), format_rational(v)]
                         for z, v in alg.bracket(x, y).items()]
    return rows


@settings(max_examples=25, deadline=None)
@given(raw_tensors(2, 4), st.sampled_from(list(SplitKind)), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 2))
def test_expand_report_is_json_dumps_with_plain_constants(f, kind, n0, n1, m):
    v0_gens = "1" if kind is SplitKind.GENERIC_INDEX else None
    split = make_splitting(kind, v0_gens={1} if v0_gens else None, dim=f.dim)
    alg = ExpandedAlgebra(f, split, n0, n1, ModeWindow(m))
    argv = ["expand", "-a", "raw", "--split", kind.value, "--n0", str(n0), "--n1", str(n1),
            "-M", str(m), *(["--v0-gens", v0_gens] if v0_gens else [])]
    with tempfile.TemporaryDirectory() as directory, \
            mock.patch("loopexp.cli._load_algebra_spec", return_value=f):
        out = Path(directory) / "report.json"
        assert main([*argv, "--out", str(out)]) in (0, 1)
        text = out.read_text(encoding="utf-8")
    report = {**json.loads(text), "constants": plain_constants(alg)}
    assert text == reference(report) + "\n"
