import random

import numpy as np

from kernel_oracles import charpoly, nullspace, rref, triples
from pblocks.modlinalg import (
    inv_mod,
    krylov_polynomial,
    lagrange_basis,
    poly_roots,
    times_transpose,
)


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


def minimal_polynomial(m, ell):
    """M's minimal polynomial and its powers I, m, ..., m^(k-1), k the
    degree: the Krylov polynomial of the identity rows, m given as the
    triples of m^T."""
    poly, blocks = krylov_polynomial(np.eye(m.shape[0], dtype=np.int64), triples(m.T), ell)
    return poly, blocks[:-1]


def poly_at_matrix(coeffs, m, ell):
    """sum_t coeffs[t] m^t by repeated products."""
    n = m.shape[0]
    acc = np.zeros((n, n), dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for c in coeffs:
        acc = (acc + c * power) % ell
        power = power @ m % ell
    return acc


def test_minimal_polynomial_is_the_least_annihilator():
    rng = random.Random(47)
    for ell in [7, 13, 31]:
        for n in range(1, 7):
            for _ in range(10):
                # random matrices, and sparse ones with repeated eigenvalues
                density = rng.choice([1.0, 0.3])
                m = np.array([[rng.randrange(ell) if rng.random() < density else 0
                               for _ in range(n)] for _ in range(n)], dtype=np.int64)
                poly, powers = minimal_polynomial(m, ell)
                k = len(poly) - 1
                assert 1 <= k <= n and poly[-1] == 1
                assert not poly_at_matrix(poly, m, ell).any()
                assert powers.shape == (k, n, n)
                for t in range(k):
                    assert np.array_equal(powers[t], poly_at_matrix([0] * t + [1], m, ell))
                # no lower degree: I, m, ..., m^(k-1) are independent
                assert len(rref(powers.reshape(k, -1), ell)[1]) == k
                # and it divides the characteristic polynomial
                char = charpoly(m, ell)
                assert not poly_at_matrix(char, m, ell).any()
                assert set(poly_roots(poly, ell)) == set(poly_roots(char, ell))


def test_times_transpose_matches_the_dense_product():
    # sparse matrices with empty rows and entries at and above ell
    rng = random.Random(61)
    for ell in [7, 31]:
        for n in range(1, 9):
            for _ in range(10):
                m = np.array([[rng.choice([0, 0, rng.randrange(3 * ell)]) for _ in range(n)]
                              for _ in range(n)], dtype=np.int64)
                m[rng.randrange(n)] = 0
                m[rng.randrange(n), rng.randrange(n)] = 1  # at least one nonzero
                rows = np.array([[rng.randrange(ell) for _ in range(n)]
                                 for _ in range(rng.randrange(1, 5))], dtype=np.int64)
                assert np.array_equal(times_transpose(rows, triples(m), ell),
                                      rows @ m.T % ell)


def test_krylov_polynomial_of_a_stack_of_rows():
    rng = random.Random(59)
    for ell in [7, 13, 31]:
        for n in range(1, 7):
            for _ in range(10):
                m = np.array([[rng.randrange(ell) for _ in range(n)] for _ in range(n)],
                             dtype=np.int64)
                rows = np.array([[rng.randrange(ell) for _ in range(n)]
                                 for _ in range(rng.randrange(1, n + 1))], dtype=np.int64)
                poly, blocks = krylov_polynomial(rows, triples(m.T), ell)
                k = len(poly) - 1
                assert poly[-1] == 1 and blocks.shape == (k + 1,) + rows.shape
                for t in range(k + 1):
                    power = poly_at_matrix([0] * t + [1], m, ell)
                    assert np.array_equal(blocks[t], rows @ power % ell)
                assert not (rows @ poly_at_matrix(poly, m, ell) % ell).any()
                # no lower degree, and a divisor of the minimal polynomial
                assert len(rref(blocks[:k].reshape(k, rows.size), ell)[1]) == k
                minimal, _ = minimal_polynomial(m, ell)
                assert set(poly_roots(poly, ell)) <= set(poly_roots(minimal, ell))


def test_minimal_polynomial_of_a_diagonalizable_matrix():
    ell = 13
    rng = random.Random(53)
    for eigenvalues in [[3, 3, 3], [1, 2, 2, 5], [0, 4, 4, 4, 9, 9]]:
        n = len(eigenvalues)
        while True:
            s = np.array([[rng.randrange(ell) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)
            if len(rref(s, ell)[1]) == n:
                break
        s_inv = rref(np.hstack([s, np.eye(n, dtype=np.int64)]), ell)[0][:, n:]
        m = s @ np.diag(eigenvalues) % ell @ s_inv % ell
        poly, _ = minimal_polynomial(m, ell)
        assert poly_roots(poly, ell) == sorted(set(eigenvalues))
        assert len(poly) == len(set(eigenvalues)) + 1


def test_lagrange_basis():
    ell = 31
    for roots in [[5], [0, 1], [2, 9, 30], [1, 4, 6, 17, 22]]:
        basis = lagrange_basis(roots, ell)
        assert basis.shape == (len(roots), len(roots))
        for k, row in enumerate(basis.tolist()):
            for j, lam in enumerate(roots):
                value = 0
                for c in reversed(row):
                    value = (value * lam + c) % ell
                assert value == (k == j)
