"""Dense linear algebra over a prime field F_ell, on numpy int64 arrays.

A matrix product sums up to r products of two residues before it reduces;
:func:`pblocks.chartable._common_eigenvectors` checks that r * (ell - 1)^2
stays below 2^63 before it calls these routines.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalError

__all__ = ["rref", "nullspace", "charpoly", "poly_roots", "inv_mod"]


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


def nullspace(mat: np.ndarray, ell: int) -> np.ndarray:
    """Basis of the right nullspace, as rows, in rref."""
    m, pivots = rref(mat, ell)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[i, pc] = (-m[ri, fc]) % ell
    return basis


def charpoly(mat: np.ndarray, ell: int) -> list[int]:
    """Characteristic polynomial coefficients, ascending, monic.

    Hessenberg reduction by similarity (only field divisions), then the
    standard leading-principal-minor recurrence.
    """
    n = mat.shape[0]
    h = mat.astype(np.int64) % ell
    h = h.copy()
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if h[i, j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        inv = inv_mod(h[j + 1, j], ell)
        for i in range(j + 2, n):
            if h[i, j]:
                f = (h[i, j] * inv) % ell
                h[i] = (h[i] - f * h[j + 1]) % ell
                h[:, j + 1] = (h[:, j + 1] + f * h[:, i]) % ell
    # p_k(x) for the leading k x k minor of xI - H.
    polys = [np.array([1], dtype=np.int64)]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        term = np.zeros(k + 1, dtype=np.int64)
        term[1:] = prev
        term[:-1] = (term[:-1] - h[k - 1, k - 1] * prev) % ell
        term %= ell
        sub = 1
        for i in range(1, k):
            sub = (sub * h[k - i, k - i - 1]) % ell
            coeff = (h[k - 1 - i, k - 1] * sub) % ell
            if coeff:
                term[: k - i] = (term[: k - i] - coeff * polys[k - 1 - i]) % ell
        polys.append(term % ell)
    out = [int(c) for c in polys[n]]
    if out[-1] != 1:
        raise InternalError("characteristic polynomial is not monic")
    return out


def poly_roots(coeffs: list[int], ell: int) -> list[int]:
    """All roots in F_ell, by vectorized evaluation at every residue."""
    xs = np.arange(ell, dtype=np.int64)
    acc = np.full(ell, coeffs[-1] % ell, dtype=np.int64)
    for c in reversed(coeffs[:-1]):
        acc = (acc * xs + c) % ell
    return [int(x) for x in np.nonzero(acc == 0)[0]]
