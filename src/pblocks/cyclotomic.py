"""Cyclotomic polynomials and the power basis of Z[z], z an e-th root of unity.

Character values are integer vectors over the power basis 1, z, ...,
z^(phi(e)-1), reduced modulo the e-th cyclotomic polynomial; the rows of
``_power_reductions`` give every power of z in that basis.

This leaf module also holds the one p-adic valuation, :func:`_nu`.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .errors import InputError, InternalError

__all__ = ["cyclotomic_poly", "euler_phi"]


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _nu(n: int, p: int) -> int:
    """The p-adic valuation of n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    out = n
    for q in _prime_factors(n):
        out -= out // q
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple:
    """Integer coefficients of the e-th cyclotomic polynomial, ascending.

    The Moebius product prod_{d | e} (x^d - 1)^mu(e/d): the factors with
    mu(e/d) = 1 are multiplied first, and then each with mu(e/d) = -1 is
    divided out, which is exact as every quotient on the way is Phi_e times
    the factors still to divide.  Both steps run in stride d.
    """
    if e < 1:
        raise InputError("conductor must be positive")
    primes = _prime_factors(e)
    times, over = [], []  # the d with mu(e/d) = 1 and -1
    for mask in range(1 << len(primes)):
        s = prod(q for j, q in enumerate(primes) if mask >> j & 1)
        (over if bin(mask).count("1") % 2 else times).append(e // s)
    poly = [1]
    for d in times:
        poly = [hi - lo for hi, lo in zip([0] * d + poly, poly + [0] * d)]
    for d in over:
        poly = _over_binomial(poly, d)
    return tuple(poly)


def _over_binomial(p: list, d: int) -> list:
    """p / (x^d - 1), exact: p = q x^d - q gives q[i] = q[i - d] - p[i]."""
    n = len(p) - d
    q = [0] * (n + d)  # q[i] at q[i + d], after d zeros
    for i in range(n):
        q[i + d] = q[i] - p[i]
    # the top d coefficients of p are those of q x^d alone
    if p[n:] != q[n:]:
        raise InternalError("non-exact cyclotomic polynomial division")
    return q[d:]


@lru_cache(maxsize=None)
def _power_reductions(e: int) -> tuple:
    """Coefficient tuples of z^s mod Phi_e for 0 <= s < 2*phi(e) - 1.

    Integer vectors of length phi(e); products of basis elements reduce
    through these rows.
    """
    phi = euler_phi(e)
    poly = cyclotomic_poly(e)
    rows = []
    for s in range(max(2 * phi - 1, e)):
        if s < phi:
            row = [0] * phi
            row[s] = 1
        else:
            # z^s = z * z^(s-1) reduced: shift previous row, fold the
            # overflow with -Phi_e's lower coefficients (Phi_e is monic).
            prev = rows[s - 1]
            row = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for j in range(phi):
                    row[j] -= top * poly[j]
        rows.append(tuple(row))
    return tuple(rows)
