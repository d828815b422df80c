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

from functools import lru_cache

import numpy as np
from sympy import GF, Poly, Symbol

from .chartable import _check_exact
from .cyclotomic import cyclotomic_poly, euler_phi
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
        a, e1 = 0, conductor
        while e1 % p == 0:
            e1 //= p
            a += 1
        self.e1 = e1
        self.modulus = _canonical_factor(e1, p)
        self.f = len(self.modulus) - 1
        # zeta_conductor maps to x^t with t the inverse of p^a mod e1.
        self.t = pow(p**a % e1, -1, e1) if e1 > 1 else 0
        self._reductions: dict[int, np.ndarray] = {}

    def __repr__(self) -> str:
        return f"BlockField(p={self.p}, f={self.f}, e'={self.e1})"

    def _reduction(self, src_conductor: int) -> np.ndarray:
        """R with row i the image of zeta_src^i: shape [phi(src), f]; cached.

        zeta_src = zeta_conductor^step maps to x^(t * step), and the powers
        x^k mod (q, p) come by shift-and-fold: x * x^(k-1) shifts the row
        up and folds the top coefficient back with q's lower coefficients.
        """
        if src_conductor not in self._reductions:
            if self.conductor % src_conductor:
                raise InputError("source conductor must divide the field conductor")
            step = self.conductor // src_conductor
            powers = np.zeros((self.e1, self.f), dtype=np.int64)
            powers[0, 0] = 1
            low = np.array(self.modulus[:-1], dtype=np.int64)
            for k in range(1, self.e1):
                powers[k, 1:] = powers[k - 1, :-1]
                powers[k] = (powers[k] - powers[k - 1, -1] * low) % self.p
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
    """Lexicographically smallest irreducible factor of Phi_e1 mod p, ascending."""
    if e1 == 1:
        return ((p - 1) % p, 1)  # x - 1
    x = Symbol("x")
    coeffs_desc = list(reversed(cyclotomic_poly(e1)))
    poly = Poly(coeffs_desc, x, domain=GF(p))
    _, factors = poly.factor_list()
    candidates = []
    for fac, _mult in factors:
        asc = [int(c) % p for c in reversed(fac.all_coeffs())]
        if asc[-1] != 1:
            lead_inv = pow(asc[-1], -1, p)
            asc = [(c * lead_inv) % p for c in asc]
        candidates.append(tuple(asc))
    degrees = {len(c) for c in candidates}
    if len(degrees) != 1:
        raise InternalError("cyclotomic factors mod p have mixed degrees")
    return min(candidates)
