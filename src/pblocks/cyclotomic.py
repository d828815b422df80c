"""Cyclotomic polynomials and the power basis of Z[z], z an e-th root of unity.

Character values are integer vectors over the power basis 1, z, ...,
z^(phi(e)-1), reduced modulo the e-th cyclotomic polynomial; the rows of
``_power_reductions`` give every power of z in that basis.

This leaf module also holds the one p-adic valuation, :func:`_nu`.
"""

from __future__ import annotations

from functools import lru_cache

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
    """Integer coefficients of the e-th cyclotomic polynomial, ascending."""
    if e < 1:
        raise InputError("conductor must be positive")
    # x^e - 1 divided by the product of the lower cyclotomic polynomials.
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


def _poly_div_exact(num: list, den: list):
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1]:
            raise InternalError("non-exact cyclotomic polynomial division")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num):
        raise InternalError("non-exact cyclotomic polynomial division")
    return out


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
