"""Linear algebra over a prime field F_ell, on numpy int64 arrays, with
each n x n matrix M given by its nonzero entries (j, k, M[j, k]), sorted by j.

Every product here sums at most r products of two residues before it
reduces, r the number of classes of the table being built: a Krylov step
sums one term per nonzero M[j, k] of a row j, at most n <= r; the echelon
reduction of :func:`krylov_polynomial` sums one term per earlier Krylov
block (at most n), and a combination of m <= n Krylov blocks sums m terms.
:func:`pblocks.chartable._common_eigenvectors` checks that r * (ell - 1)^2
stays below 2^63 before it calls these routines.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import InternalError

__all__ = ["krylov_polynomial", "lagrange_basis", "poly_roots", "inv_mod", "times_transpose"]


def inv_mod(a: int, ell: int) -> int:
    return pow(int(a) % ell, ell - 2, ell)


def times_transpose(rows: np.ndarray, triples, ell: int) -> np.ndarray:
    """rows . M^T mod ell for an [s, n] stack of rows: a gather and a sum per j."""
    j, k, values = triples
    nonempty, starts = np.unique(j, return_index=True)
    out = np.zeros(rows.shape, dtype=np.int64)
    out[:, nonempty] = np.add.reduceat(rows[:, k] * (values % ell), starts, axis=1) % ell
    return out


def krylov_polynomial(rows: np.ndarray, triples, ell: int):
    """(coefficients, blocks): the least monic p, ascending, with
    rows . p(M^T) = 0 for an [s, n] stack of rows, and its Krylov blocks
    rows . (M^T)^t for t = 0..m as an [m + 1, s, n] array, m the degree.
    With rows = I, p is the minimal polynomial of M and the blocks are the
    powers of M^T.

    The blocks are flattened and kept in reduced echelon form, each row
    with the combination of blocks that gives it; the first block that
    reduces to zero against the earlier ones gives the polynomial.  m <= n,
    as the characteristic polynomial of M annihilates every row.
    """
    n = rows.shape[1]
    block = rows % ell
    blocks = []
    echelon = np.zeros((0, block.size), dtype=np.int64)  # rows 1 at their pivots, 0 at the others'
    combos = np.zeros((0, n + 1), dtype=np.int64)  # echelon = combos @ blocks
    pivots = []
    for t in range(n + 1):
        blocks.append(block)
        flat = block.reshape(-1)
        weights = flat[pivots]
        residual = (flat - weights @ echelon % ell) % ell
        combo = -weights @ combos % ell
        combo[t] = 1
        nonzero = residual.nonzero()[0]
        if nonzero.size == 0:
            return [int(c) for c in combo[:t + 1]], np.array(blocks)
        q = int(nonzero[0])
        scale = inv_mod(residual[q], ell)
        residual = residual * scale % ell
        combo = combo * scale % ell
        column = echelon[:, q].copy()
        echelon = np.vstack([(echelon - np.outer(column, residual)) % ell, residual])
        combos = np.vstack([(combos - np.outer(column, combo)) % ell, combo])
        pivots.append(q)
        block = times_transpose(block, triples, ell)
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
