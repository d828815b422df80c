"""Dense linear algebra over a prime field F_ell, on numpy int64 arrays.

Every product here sums at most r products of two residues before it
reduces, r the number of classes of the table being built: a product of two
n x n matrices sums n <= r terms, the echelon reductions of
:func:`minimal_polynomial` sum one term per earlier power (at most n), and a
combination of the m <= n powers of a matrix sums m terms.
:func:`pblocks.chartable._common_eigenvectors` checks that r * (ell - 1)^2
stays below 2^63 before it calls these routines.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import InternalError

__all__ = ["rref", "minimal_polynomial", "lagrange_basis", "poly_roots", "inv_mod"]


def inv_mod(a: int, ell: int) -> int:
    return pow(int(a) % ell, ell - 2, ell)


def rref(mat: np.ndarray, ell: int):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = mat.astype(np.int64) % ell
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_rows = np.nonzero(m[r:, c])[0]
        if pivot_rows.size == 0:
            continue
        pr = r + int(pivot_rows[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * inv_mod(m[r, c], ell)) % ell
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % ell
        pivots.append(c)
        r += 1
    return m[:r], pivots


def minimal_polynomial(mat: np.ndarray, ell: int):
    """(coefficients, powers): the monic minimal polynomial of a square
    matrix, ascending, and its powers I, mat, ..., mat^(m-1) as an [m, n, n]
    array, m the degree.

    The powers are flattened and kept in reduced echelon form, each row with
    the combination of powers that gives it; the first power that reduces
    to zero against the earlier ones gives the polynomial.  m <= n, as the
    characteristic polynomial annihilates the matrix.
    """
    n = mat.shape[0]
    mat = mat % ell
    power = np.eye(n, dtype=np.int64)
    powers = []
    echelon = np.zeros((0, n * n), dtype=np.int64)  # rows 1 at their pivots, 0 at the others'
    combos = np.zeros((0, n + 1), dtype=np.int64)  # echelon = combos @ powers
    pivots = []
    for t in range(n + 1):
        flat = power.reshape(-1)
        weights = flat[pivots]
        residual = (flat - weights @ echelon % ell) % ell
        combo = -weights @ combos % ell
        combo[t] = 1
        nonzero = residual.nonzero()[0]
        if nonzero.size == 0:
            return [int(c) for c in combo[:t + 1]], np.array(powers)
        q = int(nonzero[0])
        scale = inv_mod(residual[q], ell)
        residual = residual * scale % ell
        combo = combo * scale % ell
        column = echelon[:, q].copy()
        echelon = np.vstack([(echelon - np.outer(column, residual)) % ell, residual])
        combos = np.vstack([(combos - np.outer(column, combo)) % ell, combo])
        pivots.append(q)
        powers.append(power)
        power = mat if t == 0 else power @ mat % ell
    raise InternalError("minimal polynomial exceeds the dimension")


def lagrange_basis(roots: list[int], ell: int) -> np.ndarray:
    """[m, m] coefficients, ascending, of the Lagrange polynomials
    L_k(x) = prod_{j != k} (x - roots[j]) / (roots[k] - roots[j]) of m
    distinct residues, one row per root."""
    m = len(roots)
    full = [1]  # prod_j (x - roots[j]), ascending
    for lam in roots:
        full = [(below - lam * c) % ell for below, c in zip([0] + full, full + [0])]
    out = np.zeros((m, m), dtype=np.int64)
    for k, lam in enumerate(roots):
        # synthetic division by x - lam, from the top
        quotient = [0] * m
        carry = 0
        for t in range(m, 0, -1):
            carry = (full[t] + lam * carry) % ell
            quotient[t - 1] = carry
        denominator = prod(lam - other for other in roots if other != lam)
        out[k] = np.array(quotient, dtype=np.int64) * inv_mod(denominator, ell) % ell
    return out


def poly_roots(coeffs: list[int], ell: int) -> list[int]:
    """All roots in F_ell, ascending, by vectorized evaluation at every residue."""
    xs = np.arange(ell, dtype=np.int64)
    acc = np.full(ell, coeffs[-1] % ell, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = (acc * xs + c) % ell
    return [int(x) for x in np.nonzero(acc == 0)[0]]
