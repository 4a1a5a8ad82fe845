"""Structure-constant validation, brackets, and the definition-file loader."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from loopexp import (ContradictoryEntries, IndexOutOfRange, InvalidDegree, InvalidParams,
                     ModeWindow, SplitKind, StructureConstants, algebra_from_dict,
                     builtin_algebra, canonical_form_series, load_algebra, make_splitting,
                     validate)
from loopexp.algebra import BUILTIN_NAMES, parse_rational

from helpers_oracles import (algebra_to_dict, oracle_jacobi_clean, oracle_jacobi_defects,
                             oracle_jacobi_residual, raw_tensors)

EPS = builtin_algebra("epsilon3")
SOLV = builtin_algebra("solvable2")


def test_epsilon_validates_clean():
    report = validate(EPS)
    assert report.is_valid
    assert report.antisymmetry == []
    assert report.jacobi == []


def test_epsilon_jacobi_against_bruteforce_oracle():
    assert oracle_jacobi_clean(3, EPS.entries)


def test_solvable2_validates_clean():
    report = validate(SOLV)
    assert report.is_valid
    assert oracle_jacobi_clean(2, SOLV.entries)


def test_all_builtins_validate_clean():
    for name in BUILTIN_NAMES:
        assert validate(builtin_algebra(name)).is_valid


def test_antisymmetry_violation_reported():
    f = StructureConstants(3, {(1, 2, 3): 1, (2, 1, 3): 1})
    report = validate(f)
    assert not report.is_valid
    assert (1, 2, 3, Fraction(1), Fraction(-1)) in report.antisymmetry


def test_diagonal_entry_is_antisymmetry_violation():
    f = StructureConstants(2, {(1, 1, 2): 1})
    report = validate(f)
    assert (1, 1, 2, Fraction(1), Fraction(-1)) in report.antisymmetry


def test_out_of_range_index_rejected():
    with pytest.raises(IndexOutOfRange):
        StructureConstants(2, {(1, 2, 3): 1})
    with pytest.raises(IndexOutOfRange):
        EPS.entry(0, 1, 2)


def test_bracket_basis_pair():
    assert EPS.pair_targets(1, 2) == ((3, Fraction(1)),)


def test_bracket_of_element_with_itself_vanishes():
    # [x, x] = 0 for every element x iff the table is alternating.
    for a in range(1, 4):
        assert EPS.pair_targets(a, a) == ()
        for b in range(1, 4):
            mirrored = tuple((c, -v) for c, v in EPS.pair_targets(b, a))
            assert EPS.pair_targets(a, b) == mirrored


def test_jacobi_defect_vanishes_on_epsilon():
    assert all(oracle_jacobi_residual(3, EPS.entries, 1, 2, 3, e) == 0 for e in range(1, 4))
    assert not [row for row in validate(EPS).jacobi if row[:3] == (1, 2, 3)]


def test_jacobi_defect_repeated_index():
    for f in (EPS, SOLV):
        assert all(oracle_jacobi_residual(f.dim, f.entries, 1, 1, 2, e) == 0
                   for e in range(1, f.dim + 1))
        assert not [row for row in validate(f).jacobi if row[:3] == (1, 1, 2)]


@settings(max_examples=80, deadline=None)
@given(raw_tensors(1, 4))
@example(EPS)
@example(SOLV)
@example(builtin_algebra("abelian4"))
def test_jacobi_defect_matches_validate_everywhere(f):
    # The support walk behind validate agrees with the dense oracle, row for
    # row, also on tensors storing both orders of a pair or diagonal entries.
    assert validate(f).jacobi == oracle_jacobi_defects(f.dim, f.entries)


def test_lone_entry_is_flagged_but_nilpotent():
    # A single unmirrored entry is an antisymmetry defect; its bracket chain
    # is too short to produce any Jacobi residual.
    f = StructureConstants(3, {(1, 2, 3): 1})
    report = validate(f)
    assert oracle_jacobi_defects(f.dim, f.entries) == []
    assert report.jacobi == []
    assert report.is_valid  # the lone entry mirror-completes to Heisenberg


def test_broken_jacobi_has_nonzero_defect_somewhere():
    # Antisymmetric but non-Jacobi tensor: [T1,T2]=T1, [T1,T3]=T3.
    f = StructureConstants(3, {(1, 2, 1): 1, (1, 3, 3): 1})
    report = validate(f)
    assert report.jacobi != [] and not report.is_valid
    assert report.jacobi == oracle_jacobi_defects(f.dim, f.entries)


def test_parse_rational_rules():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    for bad in ("0.5", "1e3", "1/0", "", None, 1.5, True):
        with pytest.raises((ValueError, TypeError)):
            parse_rational(bad)


def test_loader_completes_mirrors():
    data = {"name": "demo", "dim": 3,
            "entries": [{"a": 2, "b": 1, "c": 3, "value": "-1"}]}
    f = algebra_from_dict(data)
    assert f.entry(1, 2, 3) == 1
    assert f.entry(2, 1, 3) == -1
    assert validate(f).antisymmetry == []


def test_loader_accepts_consistent_double_listing():
    data = {"dim": 2, "entries": [
        {"a": 1, "b": 2, "c": 1, "value": "1"},
        {"a": 2, "b": 1, "c": 1, "value": "-1"}]}
    f = algebra_from_dict(data)
    assert validate(f).is_valid


def test_loader_rejects_contradiction():
    data = {"dim": 3, "entries": [
        {"a": 1, "b": 2, "c": 3, "value": "1"},
        {"a": 2, "b": 1, "c": 3, "value": "1"}]}
    with pytest.raises(ContradictoryEntries) as info:
        algebra_from_dict(data)
    assert (info.value.a, info.value.b, info.value.c) == (1, 2, 3)


def test_loader_rejects_nonzero_diagonal():
    data = {"dim": 2, "entries": [{"a": 1, "b": 1, "c": 2, "value": "1"}]}
    with pytest.raises(ContradictoryEntries):
        algebra_from_dict(data)


def test_loader_skips_a_zero_diagonal_entry():
    data = {"dim": 2, "entries": [{"a": 1, "b": 1, "c": 2, "value": "0"},
                                  {"a": 1, "b": 2, "c": 1, "value": "1"}]}
    assert algebra_from_dict(data).entries == {(1, 2, 1): 1}


def test_builtin_algebra_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown built-in algebra 'epsilon4'"):
        builtin_algebra("epsilon4")


def test_loader_rejects_decimal_value():
    data = {"dim": 2, "entries": [{"a": 1, "b": 2, "c": 1, "value": "0.5"}]}
    with pytest.raises(ValueError):
        algebra_from_dict(data)


@pytest.mark.parametrize("data", [
    {"dim": True, "entries": []},
    {"dim": 3.0, "entries": []},
    {"dim": 3, "entries": [{"a": True, "b": 2, "c": 3, "value": "1"}]},
    {"dim": 3, "entries": [{"a": 1, "b": 2.0, "c": 3, "value": "1"}]},
    {"name": ["x"], "dim": 3, "entries": []},
], ids=["bool-dim", "float-dim", "bool-index", "float-index", "list-name"])
def test_loader_rejects_bool_and_non_integer_fields(data):
    with pytest.raises(ValueError):
        algebra_from_dict(data)


def test_constructor_rejects_bool_fields():
    # bool is a subclass of int; the constructor and its index check take exact ints.
    with pytest.raises(ValueError):
        StructureConstants(True, {})
    with pytest.raises(IndexOutOfRange):
        StructureConstants(2, {(True, 2, 1): 1})
    with pytest.raises(IndexOutOfRange):
        EPS.entry(True, 2, 3)


@pytest.mark.parametrize("call, error", [
    (lambda: ModeWindow(True), ValueError),
    (lambda: canonical_form_series(EPS, ModeWindow(1), True), InvalidDegree),
    (lambda: make_splitting(SplitKind.GENERIC_INDEX, v0_gens={True}, dim=3), InvalidParams),
], ids=["window", "degree", "v0_gens"])
def test_integer_arguments_refuse_bools(call, error):
    with pytest.raises(error):
        call()


def test_algebra_file_round_trip(tmp_path):
    path = tmp_path / "eps.json"
    path.write_text(json.dumps(algebra_to_dict(EPS)), encoding="utf-8")
    loaded = load_algebra(str(path))
    assert loaded.dim == EPS.dim
    rng = range(1, 4)
    assert all(loaded.entry(a, b, c) == EPS.entry(a, b, c)
               for a in rng for b in rng for c in rng)
