"""The finite field used to reduce central characters modulo a prime.

For a prime p and conductor e = p^a * e' with p coprime to e', central
character values live in Z[zeta_e]; reducing modulo a prime ideal over p
amounts to sending zeta_{p^a} to 1 and zeta_{e'} to a root of an irreducible
factor of the e'-th cyclotomic polynomial over F_p.  All factors have the
same degree f (the order of p mod e'); we fix the choice canonically by
taking the lexicographically smallest factor q and realizing the field as
F_p[x]/(q) with zeta_{e'} mapped to x.

Every choice of factor yields the same block partition; fixing one makes
reports reproducible.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from .chartable import _check_exact
from .cyclotomic import _nu, cyclotomic_poly, euler_phi
from .errors import InputError, InternalError

__all__ = ["BlockField", "block_field"]


@lru_cache(maxsize=None)
def block_field(p: int, conductor: int) -> "BlockField":
    return BlockField(p, conductor)


class BlockField:
    """F_p[x]/(q) together with the reduction map from Z[zeta_conductor].

    An element of the field is a length-f row of residues mod p, the
    coefficients of 1, x, ..., x^(f-1).
    """

    def __init__(self, p: int, conductor: int):
        if p < 2:
            raise InputError("reduction prime must be at least 2")
        self.p = p
        self.conductor = conductor
        a = _nu(conductor, p)
        e1 = self.e1 = conductor // p**a
        # the factoring and every reduction sum at most phi(e') products of
        # residues below p in int64
        _check_exact(euler_phi(e1) * (p - 1) ** 2,
                     "central character reduction", 63, "int64")
        self.modulus = _canonical_factor(e1, p)
        self.f = len(self.modulus) - 1
        # zeta_conductor maps to x^t with t the inverse of p^a mod e1.
        self.t = pow(p**a % e1, -1, e1) if e1 > 1 else 0
        self._reductions: dict[int, np.ndarray] = {}

    def __repr__(self) -> str:
        return f"BlockField(p={self.p}, f={self.f}, e'={self.e1})"

    def _reduction(self, src_conductor: int) -> np.ndarray:
        """R with row i the image of zeta_src^i: shape [phi(src), f]; cached.

        zeta_src = zeta_conductor^step maps to x^(t * step).
        """
        if src_conductor not in self._reductions:
            if self.conductor % src_conductor:
                raise InputError("source conductor must divide the field conductor")
            step = self.conductor // src_conductor
            powers = _power_rows(self.modulus, self.e1, self.p)
            exps = self.t * step * np.arange(euler_phi(src_conductor)) % self.e1
            self._reductions[src_conductor] = powers[exps]
        return self._reductions[src_conductor]

    def reduce_int_vector(self, coeffs, src_conductor: int) -> np.ndarray:
        """Reduce integer power-basis vectors over Q(zeta_src) into the field.

        ``coeffs`` is any integer array of shape [..., phi(src)]; the result
        has shape [..., f].  The product sums phi(src) products of residues
        below p, so it is exact in int64 while phi(src) * (p - 1)^2 < 2^63.
        """
        _check_exact(euler_phi(src_conductor) * (self.p - 1) ** 2,
                     "central character reduction", 63, "int64")
        reduction = self._reduction(src_conductor)
        return (np.asarray(coeffs, dtype=np.int64) % self.p) @ reduction % self.p

    def describe(self) -> dict:
        return {
            "p": self.p,
            "degree": self.f,
            "modulus": list(self.modulus),
            "unit_root_order": self.e1,
        }


def _canonical_factor(e1: int, p: int) -> tuple:
    """Lexicographically smallest irreducible factor of Phi_e1 mod p, ascending.

    Phi_e1 splits mod p into distinct monic factors of one degree f, the
    order of p mod e1, and equal-degree splitting (Cantor and Zassenhaus,
    Math. Comp. 36 (1981)) finds them all.  The set of factors is unique,
    so the random draws change only the time taken, never the result.
    """
    f, q = 1, p % e1
    while q != 1 % e1:  # f = 1 for e1 = 1, where x - 1 is the only factor
        q = q * p % e1
        f += 1
    phi = [c % p for c in cyclotomic_poly(e1)]
    return min(_equal_degree_factors(phi, f, p, random.Random(0)))


def _equal_degree_factors(g: list, f: int, p: int, rng: random.Random) -> list:
    """The monic degree-f factors of a squarefree monic g that has only such.

    A random a splits g by gcd(g, b): b is the trace a + a^2 + ... +
    a^(2^(f-1)) for p = 2, which is 0 or 1 modulo each factor, and
    a^((p^f - 1)/2) - 1 for odd p, as a^((p^f - 1)/2) is 0, 1 or -1 there.
    """
    n = len(g) - 1
    if n == f:
        return [tuple(g)]
    if n < f or n % f:
        raise InternalError("cyclotomic factors mod p have mixed degrees")
    # residues mod g are length-n int64 arrays, exact as n <= phi(e')
    fold = _power_rows(g, 2 * n - 1, p)[n:]  # row k: x^(n + k) mod g

    def mul(a, b):
        c = np.convolve(a, b) % p
        return (c[:n] + c[n:] @ fold) % p

    while True:
        a = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        if p == 2:
            b = t = a
            for _ in range(f - 1):
                t = mul(t, t)
                b = b ^ t
        else:
            b = np.zeros(n, dtype=np.int64)
            b[0] = 1
            k = (p**f - 1) // 2
            while k:
                if k & 1:
                    b = mul(b, a)
                k >>= 1
                if k:
                    a = mul(a, a)
            b[0] = (b[0] - 1) % p
        h = _gcd(g, _trim(b.tolist()), p)
        if 0 < len(h) - 1 < n:
            return (_equal_degree_factors(h, f, p, rng)
                    + _equal_degree_factors(_divmod(g, h, p)[0], f, p, rng))


def _power_rows(g, count: int, p: int) -> np.ndarray:
    """Rows x^0, ..., x^(count - 1) mod (g, p) for a monic g of degree n >= 1:
    shape [count, n].

    x * x^(k-1) shifts the row up and folds the top coefficient back with
    g's lower coefficients.
    """
    n = len(g) - 1
    low = np.array(g[:n], dtype=np.int64)
    rows = np.zeros((count, n), dtype=np.int64)
    rows[0, 0] = 1
    for k in range(1, count):
        rows[k, 1:] = rows[k - 1, :-1]
        rows[k] = (rows[k] - rows[k - 1, -1] * low) % p
    return rows


# Polynomials over F_p are ascending lists of residues with no trailing zero;
# zero is the empty list.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, m: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of a by the monic m."""
    r = list(a)
    n = len(m) - 1
    q = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1 - n, -1, -1):
        c = r[i + n]
        if c:
            q[i] = c
            for j in range(n):
                r[i + j] = (r[i + j] - c * m[j]) % p
    return q, _trim(r[:n])


def _gcd(a: list, b: list, p: int) -> list:
    """The monic gcd of a nonzero a and b."""
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]
