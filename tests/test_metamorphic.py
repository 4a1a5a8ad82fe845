"""Metamorphic relations: relabelling the generators or rescaling them changes
no verdict and no count.

A permutation p maps f_ab^c to f'_{p(a) p(b)}^{p(c)} (and V0 to p(V0)); a
rescaling T_a -> lambda_a T_a maps f_ab^c to lambda_a lambda_b f_ab^c /
lambda_c.  Both are isomorphisms of the tensor, so every Jacobi residual, every
sector pattern and every canonical-form coefficient of the image is the
original's at the mapped indices, times a nonzero factor.  Each check's
verdict and each of its row, witness and counter totals must therefore be the
same on the image.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from loopexp import (ClosureQuotient, ContractedAlgebra, ModeWindow, SplitKind,
                     StructureConstants, canonical_form_series, check_jacobi_expanded,
                     check_subalgebra, check_symmetric_coset, compare_with_expansion,
                     contracted_jacobi_residuals, iw_contract, jacobi_residuals,
                     make_splitting, rescale_and_collect, validate, verify_mc_equations)

from helpers_oracles import raw_tensors

COSET = make_splitting(SplitKind.MODE_PARITY_COSET)
ORDERS = list(product(range(3), repeat=2))


def fingerprint(f: StructureConstants, split, window: ModeWindow, orders) -> dict:
    """Every verdict and count of the checks on one tensor, splitting and
    window, with expanded Jacobi at the truncation ``orders`` if it is closed."""
    audit = validate(f)
    rows, checked = jacobi_residuals(f, window)
    masked_rows, masked_checked = contracted_jacobi_residuals(ContractedAlgebra(f, split, window))
    quotient = ClosureQuotient(f, split, window)
    cells = [tuple(quotient.cell(n0, n1)) for n0, n1 in ORDERS]
    expanded = None
    if quotient.cell(*orders).closed:
        report = check_jacobi_expanded(f, split, *orders, window)
        expanded = (report.ok, len(report.residuals), report.triples_checked,
                    report.window_skipped)
    sub, coset = check_subalgebra(f, split, window), check_symmetric_coset(f, split, window)
    match, diffs = compare_with_expansion(iw_contract(f, COSET, window))
    graded = rescale_and_collect(canonical_form_series(f, window, 3), split)
    mc = verify_mc_equations(graded, 1)
    return {
        "validate": (audit.is_valid, len(audit.antisymmetry), len(audit.jacobi)),
        "loop": (not rows, len(rows), checked),
        "contracted": (not masked_rows, len(masked_rows), masked_checked),
        "cells": cells,
        "expanded": expanded,
        "subalgebra": (sub.is_subalgebra_v0, len(sub.subalgebra_witnesses), sub.window_censored),
        "coset": (coset.is_symmetric_coset, len(coset.coset_witnesses), coset.window_censored),
        "comparison": (match, len(diffs)),
        "mc": (mc.ok, len(mc.violations), mc.terms_checked, mc.mode_censored,
               mc.degree_censored, mc.targets_checked),
    }


@st.composite
def tensor_maps(draw):
    """A raw tensor of dim 2 to 4, a splitting of any kind, a window of M in
    {0, 1}, truncation orders up to (2, 2), a permutation of the generators
    and nonzero rational scales."""
    f = draw(raw_tensors(2, 4))
    kind = draw(st.sampled_from(list(SplitKind)))
    v0 = (draw(st.sets(st.integers(1, f.dim), min_size=1, max_size=f.dim - 1))
          if kind is SplitKind.GENERIC_INDEX else None)
    perm = dict(zip(range(1, f.dim + 1), draw(st.permutations(range(1, f.dim + 1)))))
    scale = st.fractions(-3, 3, max_denominator=3).filter(bool)
    lam = dict(zip(range(1, f.dim + 1), draw(st.lists(scale, min_size=f.dim, max_size=f.dim))))
    window, orders = ModeWindow(draw(st.integers(0, 1))), draw(st.sampled_from(ORDERS))
    return f, kind, v0, window, orders, perm, lam


@settings(max_examples=12, deadline=None)
@given(tensor_maps())
def test_relabelling_and_rescaling_keep_every_verdict_and_count(case):
    f, kind, v0, window, orders, perm, lam = case
    split = make_splitting(kind, v0_gens=v0, dim=f.dim)
    expected = fingerprint(f, split, window, orders)

    relabelled = StructureConstants(f.dim, {(perm[a], perm[b], perm[c]): v
                                            for (a, b, c), v in f.entries.items()})
    moved = make_splitting(kind, v0_gens=v0 and {perm[g] for g in v0}, dim=f.dim)
    assert fingerprint(relabelled, moved, window, orders) == expected

    rescaled = StructureConstants(f.dim, {(a, b, c): lam[a] * lam[b] * v / lam[c]
                                          for (a, b, c), v in f.entries.items()})
    assert fingerprint(rescaled, split, window, orders) == expected
