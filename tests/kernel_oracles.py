"""Tuple routines that the array and coset kernels of ``pblocks`` replaced.

``closure`` is the breadth-first element closure that ``Group.elements()``
and ``Group.handle(generators=...)`` used before they grew by whole cosets.
``TupleField`` is F_p[x]/(q) with elements as residue tuples, the arithmetic
``BlockField`` used to reduce central characters one class at a time.
"""

from __future__ import annotations

from pblocks.blockfield import BlockField
from pblocks.perms import identity, pmul


def closure(degree: int, gens, seed=None) -> frozenset:
    """Closure of ``seed`` (default: identity) under right multiplication by gens."""
    idp = identity(degree)
    elems = set(seed) if seed is not None else {idp}
    elems.add(idp)
    gens = [g for g in gens if g != idp]
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pmul(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(elems)


class TupleField:
    """The field of a BlockField, with elements as tuples of f residues.

    Only the modulus q is taken from the BlockField; the exponent map
    zeta_conductor -> x^t is derived here again.
    """

    def __init__(self, field: BlockField):
        self.p = p = field.p
        self.conductor = field.conductor
        a, e1 = 0, field.conductor
        while e1 % p == 0:
            e1 //= p
            a += 1
        self.e1 = e1
        self.modulus = field.modulus
        self.f = len(self.modulus) - 1
        # zeta_conductor maps to x^t with t the inverse of p^a mod e1.
        self.t = pow(p**a % e1, -1, e1) if e1 > 1 else 0
        self.zero = (0,) * self.f
        self.one = (1,) + (0,) * (self.f - 1)
        self.xpow = self._x_powers()

    def _x_powers(self):
        powers = [self.one]
        x = ((0, 1) + (0,) * (self.f - 2)) if self.f >= 2 else (1 % self.p,)
        if self.f == 1:
            # q = x - c: x acts as the scalar c.
            c = (-self.modulus[0]) % self.p
            x = (c,)
        for _ in range(1, self.e1):
            powers.append(self.mul(powers[-1], x))
        return powers

    def add(self, u, v):
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def mul(self, u, v):
        conv = [0] * (2 * self.f - 1)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        conv[i + j] += a * b
        # reduce mod the monic modulus
        for i in range(len(conv) - 1, self.f - 1, -1):
            c = conv[i] % self.p
            if c:
                for j in range(self.f + 1):
                    conv[i - self.f + j] -= c * self.modulus[j]
            conv[i] = 0
        return tuple(c % self.p for c in conv[: self.f])

    def scalar(self, n: int):
        return (n % self.p,) + (0,) * (self.f - 1)

    def reduce_int_vector(self, coeffs, src_conductor: int):
        """Reduce sum_i coeffs[i] * zeta_src^i (power basis) into the field."""
        assert self.conductor % src_conductor == 0
        step = self.conductor // src_conductor
        acc = [0] * self.f
        for i, c in enumerate(coeffs):
            c = int(c) % self.p
            if not c:
                continue
            exp = (self.t * i * step) % self.e1 if self.e1 > 1 else 0
            row = self.xpow[exp]
            for j in range(self.f):
                acc[j] += c * row[j]
        return tuple(v % self.p for v in acc)
