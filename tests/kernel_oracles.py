"""Tuple routines that the array and coset kernels of ``pblocks`` replaced.

``closure`` is the breadth-first element closure that ``Group.elements()``
and ``Group.handle(generators=...)`` used before they grew by whole cosets.
``adjoin``, ``span`` and ``generating_subset`` are that coset-by-coset
closure on tuple elements, as it ran before subgroups became sets of element
indices and ``Group.elements()`` the products of the chain's transversals.
``TupleField`` is F_p[x]/(q) with elements as residue tuples, the arithmetic
``BlockField`` used to reduce central characters one class at a time.
``perm_set`` and ``index_set`` translate between a group's element indices
and its elements, and ``class_index`` maps every element to its class.
``relabelled`` renames a group's points by a seeded permutation.
``oracle_classes`` finds the conjugacy classes by tuple conjugation, and
``oracle_cmc`` counts the whole class-multiplication tensor by tuple
products; the table code builds its class matrices one at a time, only
those that its eigenspace split reads.
``conj`` and ``ppow`` are the tuple conjugate and power that no program
path needs any more.  ``sympy_canonical_factor`` is the least factor of a
cyclotomic polynomial mod p as sympy's factorisation finds it, the way
``BlockField`` chose its modulus before it split the polynomial itself.
``conj_matrix`` is complex conjugation on the power basis as the table
validation built it before it took ``galois_matrix(e, -1)``, and
``nu_by_division`` is the divide loop that each module once ran for the
p-adic valuation.
"""

from __future__ import annotations

import random

import numpy as np
from sympy import GF, Poly, Symbol

from pblocks.blockfield import BlockField
from pblocks.cyclotomic import _power_reductions, cyclotomic_poly, euler_phi
from pblocks.errors import InternalError
from pblocks.groups import Group
from pblocks.perms import identity, pinv, pmul


def conj(x, g):
    """Conjugate x^g = g^-1 x g."""
    return pmul(pmul(pinv(g), x), g)


def conj_matrix(e: int) -> np.ndarray:
    """phi x phi integer matrix of complex conjugation on the power basis."""
    phi = euler_phi(e)
    rows = _power_reductions(e)
    out = np.zeros((phi, phi), dtype=np.int64)
    for i in range(phi):
        out[i] = np.array(rows[(e - i) % e][:phi], dtype=np.int64)
    return out


def nu_by_division(n: int, p: int) -> int:
    """The p-adic valuation of n, by repeated division."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def ppow(p, k: int):
    if k < 0:
        return ppow(pinv(p), -k)
    result = identity(len(p))
    sq = p
    while k:
        if k & 1:
            result = pmul(result, sq)
        sq = pmul(sq, sq)
        k >>= 1
    return result


def relabelled(G, seed):
    """G with its points renamed by a seeded permutation sigma."""
    sigma = list(range(G.degree))
    random.Random(seed).shuffle(sigma)
    gens = []
    for g in G.generators:
        h = [0] * G.degree
        for i in range(G.degree):
            h[sigma[i]] = sigma[g[i]]
        gens.append(tuple(h))
    return Group(G.degree, gens)


def class_index(G) -> dict:
    """Map every element of G to the index of its conjugacy class."""
    return dict(zip(G.elements(), G._class_of().tolist()))


def oracle_classes(G):
    """(rep, size, sorted elements) per class, by size then minimal element."""
    seen = set()
    raw = []
    for x in G.elements():
        if x in seen:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g in G.generators:
                z = conj(y, g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        raw.append(tuple(sorted(orbit)))
    raw.sort(key=lambda orb: (len(orb), orb[0]))
    return [(orb[0], len(orb), orb) for orb in raw]


def oracle_cmc(G, classes):
    """a[i, j, k] = #{x in K_i : x^-1 z_k in K_j} by tuple products, the
    classes K_k with representatives z_k as ``oracle_classes`` lists them."""
    idx = {x: k for k, (_, _, orb) in enumerate(classes) for x in orb}
    r = len(classes)
    a = np.zeros((r, r, r), dtype=np.int32)
    inv = {x: pinv(x) for x in G.elements()}
    for k, (z, _, _) in enumerate(classes):
        for x in G.elements():
            a[idx[x], idx[pmul(inv[x], z)], k] += 1
    return a


def perm_set(G, indices) -> frozenset:
    """The elements of G at the given element indices."""
    elems = G.elements()
    return frozenset(elems[i] for i in indices)


def index_set(G, perms) -> frozenset:
    """The element indices of the given elements of G."""
    position = {x: i for i, x in enumerate(G.elements())}
    return frozenset(position[x] for x in perms)


def adjoin(closed: frozenset, gens: list, x) -> frozenset:
    """<K, x> for a subgroup K = ``closed`` generated by ``gens``, as a union
    of right cosets K*y (Dimino's method)."""
    gens = gens + [x]
    elems = set(closed)
    elems.update(pmul(k, x) for k in closed)
    reps = [x]
    for y in reps:  # grows while it is read
        for s in gens:
            z = pmul(y, s)
            if z not in elems:
                elems.update(pmul(k, z) for k in closed)
                reps.append(z)
    return frozenset(elems)


def span(degree: int, candidates, size: int | None = None) -> tuple[frozenset, list]:
    """The subgroup spanned by ``candidates``, grown through :func:`adjoin`,
    with the candidates it took as generators: a candidate already in the
    span is skipped, and the loop stops once the span has ``size`` elements."""
    current = frozenset([identity(degree)])
    gens: list = []
    for x in candidates:
        if len(current) == size:
            break
        if x in current:
            continue
        current = adjoin(current, gens, x)
        gens.append(x)
    return current, gens


def generating_subset(degree: int, elements_sorted) -> list:
    """Small deterministic generating set drawn from a sorted subgroup list."""
    current, gens = span(degree, elements_sorted, size=len(elements_sorted))
    if current != frozenset(elements_sorted):
        raise InternalError("element set is not the subgroup its generators span")
    return gens


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


def sympy_canonical_factor(e1: int, p: int) -> tuple:
    """Lexicographically smallest monic factor of Phi_e1 mod p, ascending."""
    if e1 == 1:
        return ((p - 1) % p, 1)  # x - 1
    poly = Poly(list(reversed(cyclotomic_poly(e1))), Symbol("x"), domain=GF(p))
    candidates = []
    for fac, _mult in poly.factor_list()[1]:
        asc = [int(c) % p for c in reversed(fac.all_coeffs())]
        lead_inv = pow(asc[-1], -1, p)
        candidates.append(tuple(c * lead_inv % p for c in asc))
    if len({len(c) for c in candidates}) != 1:
        raise InternalError("cyclotomic factors mod p have mixed degrees")
    return min(candidates)
