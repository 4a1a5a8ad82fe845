"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately coded against dense tables and plain tuples,
not the package's sparse machinery, so a structural mistake cannot hide on
both sides of a comparison.
"""

from fractions import Fraction
from math import factorial


def dense_tensor(dim: int, raw_entries: dict) -> list:
    """Dense f[a][b][c] from a raw sparse map, completing missing mirrors by sign."""
    table = [[[Fraction(0)] * (dim + 1) for _ in range(dim + 1)] for _ in range(dim + 1)]
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                if (a, b, c) in raw_entries:
                    table[a][b][c] = Fraction(raw_entries[(a, b, c)])
                elif (b, a, c) in raw_entries:
                    table[a][b][c] = -Fraction(raw_entries[(b, a, c)])
    return table


def oracle_jacobi_residual(dim: int, raw_entries: dict, a: int, b: int, c: int,
                           e: int) -> Fraction:
    """Sum_d f_ab^d f_dc^e + f_bc^d f_da^e + f_ca^d f_db^e by dense enumeration."""
    t = dense_tensor(dim, raw_entries)
    total = Fraction(0)
    for d in range(1, dim + 1):
        total += t[a][b][d] * t[d][c][e]
        total += t[b][c][d] * t[d][a][e]
        total += t[c][a][d] * t[d][b][e]
    return total


def oracle_jacobi_defects(dim: int, raw_entries: dict) -> list:
    """Every nonzero residual as (a, b, c, e, value), in index order."""
    rng = range(1, dim + 1)
    rows = [(a, b, c, e, oracle_jacobi_residual(dim, raw_entries, a, b, c, e))
            for a in rng for b in rng for c in rng for e in rng]
    return [row for row in rows if row[4]]


def oracle_jacobi_clean(dim: int, raw_entries: dict) -> bool:
    """Every index tuple passes the Jacobi identity."""
    rng = range(1, dim + 1)
    return all(oracle_jacobi_residual(dim, raw_entries, a, b, c, e) == 0
               for a in rng for b in rng for c in rng for e in rng)


def finite_bch_series(dim: int, raw_entries: dict, degree: int) -> dict:
    """Canonical-form components of a finite-dimensional algebra,
    dA + (1/2!)[dA,A] + ... truncated at total degree ``degree``.

    Returns {target a: {(sorted coordinate tuple, differential index): Fraction}}.
    """
    t = dense_tensor(dim, raw_entries)
    rng = range(1, dim + 1)
    out = {a: {((), a): Fraction(1)} for a in rng}
    current = {a: {((), a): Fraction(1)} for a in rng}
    for k in range(1, degree):
        prefactor = Fraction(1, factorial(k + 1))
        nxt = {a: {} for a in rng}
        for source in rng:
            for coord in rng:
                for target in rng:
                    fv = t[source][coord][target]
                    if not fv:
                        continue
                    for (mono, diff), coef in current[source].items():
                        key = (tuple(sorted(mono + (coord,))), diff)
                        nxt[target][key] = nxt[target].get(key, Fraction(0)) + coef * fv
        for target in rng:
            nxt[target] = {k2: v for k2, v in nxt[target].items() if v}
            for key, value in nxt[target].items():
                bucket = out[target]
                bucket[key] = bucket.get(key, Fraction(0)) + value * prefactor
        current = nxt
    return {a: {k2: v for k2, v in terms.items() if v} for a, terms in out.items()}
