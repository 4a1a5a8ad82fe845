"""The canonical-form series against g^{-1} dg computed with matrices.

The oracle takes a faithful representation rho and maps the loop generator
T_a^n to rho(T_a) t^n: the adjoint one for a centreless algebra (epsilon3,
solvable2), and the defining one, by matrix units, for gl(3), whose centre
makes its adjoint representation unfaithful.  It builds
g = exp(A) and g^{-1} = exp(-A), with A = sum x^(a,n) rho(T_a) t^n, as
truncated power series in the coordinates with exact ``Fraction`` matrix
coefficients.  The power of t of a coordinate monomial is the sum of its
modes, so a monomial alone fixes the loop mode.  Each coefficient of
g^{-1} dg/dx^(a,n) is then decomposed on the rho(T_c) basis.

Nothing here uses the package's brackets, recursion or term store; the
structure constants are written out below.  The oracle bounds only the modes
of the coordinates, not those of intermediate brackets, so it gives the true
series, and every term of ``canonical_form_series`` that
:func:`loopexp.mcforms.term_mode_safe` marks as untouched by the window must
equal it.
"""

from fractions import Fraction
from itertools import permutations, product

import pytest

from loopexp import ModeWindow, algebra_from_dict, builtin_algebra, canonical_form_series
from loopexp.mcforms import term_mode_safe

from test_golden import DEFINITIONS

# f_ab^c for each ordered pair with a nonzero bracket.
LEVI_CIVITA = {perm: (1 if perm in ((1, 2, 3), (2, 3, 1), (3, 1, 2)) else -1)
               for perm in permutations((1, 2, 3))}
CONSTANTS = {
    "epsilon3": (3, LEVI_CIVITA),
    "solvable2": (2, {(1, 2, 1): 1, (2, 1, 1): -1}),
}


def adjoint(dim: int, constants: dict) -> dict:
    """rho(T_a)[c][b] = f_ab^c, 1-based labels on 0-based rows and columns."""
    rho = {a: [[Fraction(0)] * dim for _ in range(dim)] for a in range(1, dim + 1)}
    for (a, b, c), value in constants.items():
        rho[a][c - 1][b - 1] = Fraction(value)
    return rho


def matrix_unit(i: int, j: int) -> list:
    """E_ij of gl(3), 1-based."""
    return [[Fraction(int((row, col) == (i, j))) for col in range(1, 4)] for row in range(1, 4)]


# gl(3) in its defining representation: T_a is E_ij with a = 3(i-1) + j, the
# numbering of the golden gl(3) definition.
GL3_DEFINING = {3 * (i - 1) + j: matrix_unit(i, j) for i in range(1, 4) for j in range(1, 4)}


def matmul(x: list, y: list) -> list:
    out = [[Fraction(0)] * len(y[0]) for _ in x]
    for row, out_row in zip(x, out):
        for value, y_row in zip(row, y):
            if value:
                for j, w in enumerate(y_row):
                    if w:
                        out_row[j] += value * w
    return out


def add_into(acc: dict, key, matrix: list, factor=1) -> None:
    old = acc.get(key)
    if old is None:
        acc[key] = [[factor * v for v in row] for row in matrix]
    else:
        for row, new in zip(old, matrix):
            for j, v in enumerate(new):
                row[j] += factor * v


def series_product(p: dict, q: dict, max_degree: int) -> dict:
    """The product of two matrix series keyed by sorted coordinate monomials."""
    out: dict = {}
    for (m1, x), (m2, y) in product(p.items(), q.items()):
        if len(m1) + len(m2) <= max_degree:
            add_into(out, tuple(sorted(m1 + m2)), matmul(x, y))
    return out


def exp_series(a: dict, size: int, max_degree: int) -> dict:
    """exp(a) = sum a^k / k! of ``size`` x ``size`` matrices through ``max_degree``."""
    identity = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    total, power = {(): identity}, {(): identity}
    for k in range(1, max_degree + 1):
        power = {mon: [[v / k for v in row] for row in matrix]
                 for mon, matrix in series_product(power, a, max_degree).items()}
        for mon, matrix in power.items():
            add_into(total, mon, matrix)
    return total


def decompose(matrix: list, basis: dict) -> dict:
    """The coefficients w with matrix = sum w_c basis[c], by exact elimination;
    the basis must be linearly independent and the matrix in its span."""
    gens = sorted(basis)
    size = len(matrix)
    rows = [[basis[c][i][j] for c in gens] + [matrix[i][j]]
            for i in range(size) for j in range(size)]
    for col in range(len(gens)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        lead[:] = [v / lead[col] for v in lead]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                row[:] = [v - row[col] * w for v, w in zip(row, lead)]
    assert not any(row[-1] for row in rows[len(gens):]), "not in the algebra"
    return {c: rows[i][-1] for i, c in enumerate(gens)}


def matrix_canonical_form(rho: dict, max_abs_mode: int, degree: int) -> dict:
    """{(label gen, label mode): {(monomial, differential): coefficient}} of
    g^{-1} dg in the representation ``rho`` (generator -> matrix) through
    coordinate degree ``degree - 1``, with factors as (mode, gen) pairs like
    the package's store."""
    size = len(rho[1])
    coords = [(n, a) for n in range(-max_abs_mode, max_abs_mode + 1) for a in sorted(rho)]
    a_series = {(coord,): rho[coord[1]] for coord in coords}
    g = exp_series(a_series, size, degree)
    g_inv = exp_series({mon: [[-v for v in row] for row in m] for mon, m in a_series.items()},
                       size, degree - 1)
    out: dict = {}
    for coord in coords:
        # d/dx^coord of each monomial of g: its multiplicity, one factor removed.
        dg: dict = {}
        for mon, matrix in g.items():
            if coord in mon:
                i = mon.index(coord)
                add_into(dg, mon[:i] + mon[i + 1:], matrix, mon.count(coord))
        for mon, matrix in series_product(g_inv, dg, degree - 1).items():
            mode = coord[0] + sum(n for n, _ in mon)
            for c, value in decompose(matrix, rho).items():
                if value:
                    out.setdefault((c, mode), {})[(mon, coord)] = value
    return out


def assert_series_is_the_matrix_canonical_form(f, rho: dict, max_abs_mode: int,
                                               degree: int) -> None:
    window = ModeWindow(max_abs_mode)
    series = canonical_form_series(f, window, degree)
    truth = matrix_canonical_form(rho, max_abs_mode, degree)
    compared = 0
    for label, poly in series.forms.items():
        true_terms = truth.get((label.gen, label.mode), {})
        for (mon, diff), num in poly.terms.items():
            if term_mode_safe(mon, diff, window):
                value = Fraction(num, series.denominators[len(mon)])
                assert value == true_terms.get((mon, diff), 0), (label, mon, diff)
                compared += 1
        # No true term that the window leaves untouched is missing.
        for (mon, diff), value in true_terms.items():
            if term_mode_safe(mon, diff, window):
                assert (mon, diff) in poly.terms, (label, mon, diff, value)
    assert compared > 0


@pytest.mark.parametrize("name", sorted(CONSTANTS))
@pytest.mark.parametrize("max_abs_mode, degree", [(0, 4), (1, 3)])
def test_series_is_the_matrix_canonical_form(name, max_abs_mode, degree):
    dim, constants = CONSTANTS[name]
    assert_series_is_the_matrix_canonical_form(builtin_algebra(name), adjoint(dim, constants),
                                               max_abs_mode, degree)


def test_gl3_series_is_the_defining_matrix_canonical_form():
    assert_series_is_the_matrix_canonical_form(algebra_from_dict(DEFINITIONS["gl3"]),
                                               GL3_DEFINING, 0, 3)
