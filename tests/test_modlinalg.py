import random

import numpy as np

from pblocks.modlinalg import charpoly, inv_mod, nullspace, poly_roots, rref


def det_mod(mat, ell):
    """Independent determinant by Gaussian elimination."""
    m = mat.astype(np.int64) % ell
    n = m.shape[0]
    det = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r, c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = -det % ell
        det = det * m[c, c] % ell
        inv = inv_mod(m[c, c], ell)
        for r in range(c + 1, n):
            if m[r, c]:
                m[r] = (m[r] - m[r, c] * inv % ell * m[c]) % ell
    return det % ell


def test_charpoly_against_determinant_oracle():
    rng = random.Random(41)
    for ell in [7, 13, 31]:
        for n in range(1, 7):
            for _ in range(10):
                m = np.array(
                    [[rng.randrange(ell) for _ in range(n)] for _ in range(n)],
                    dtype=np.int64,
                )
                poly = charpoly(m, ell)
                assert len(poly) == n + 1 and poly[-1] == 1
                for x0 in range(0, ell, max(1, ell // 5)):
                    val = 0
                    for c in reversed(poly):
                        val = (val * x0 + c) % ell
                    direct = det_mod((x0 * np.eye(n, dtype=np.int64) - m) % ell, ell)
                    assert val == direct


def test_poly_roots():
    # (x - 2)(x - 5)^2 mod 7 = x^3 - 12x^2 + 45x - 50
    ell = 7
    poly = [(-50) % ell, 45 % ell, (-12) % ell, 1]
    assert poly_roots(poly, ell) == [2, 5]


def test_rref_and_nullspace():
    rng = random.Random(43)
    ell = 11
    for _ in range(50):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
        m = np.array(
            [[rng.randrange(ell) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        red, pivots = rref(m, ell)
        assert red.shape[0] == len(pivots)
        for i, c in enumerate(pivots):
            col = red[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1
        ns = nullspace(m, ell)
        assert ns.shape[0] == cols - len(pivots)
        if ns.shape[0]:
            assert not np.any((m @ ns.T) % ell)
