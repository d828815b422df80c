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
those that its eigenspace split reads, as the sorted (j, k, count)
``triples`` of their nonzero entries, and ``SparseTensor`` reads a dense
tensor that way.
``pmul`` and ``pinv`` are the tuple product, composed left to right so
that ``pmul(p, q)`` applies ``p`` first, and the tuple inverse; with them
``conj`` and ``ppow`` are the tuple conjugate and power.  No program path
needs any of the four any more.  ``sympy_canonical_factor`` is the least factor of a
cyclotomic polynomial mod p as sympy's factorisation finds it, the way
``BlockField`` chose its modulus before it split the polynomial itself.
``conj_matrix`` is complex conjugation on the power basis as the table
validation built it before it took ``galois_matrix(e, -1)``, and
``nu_by_division`` is the divide loop that each module once ran for the
p-adic valuation.  ``cyclotomic_by_division`` is Phi_e as x^e - 1 divided
by every lower Phi_d in long division, as ``cyclotomic_poly`` found it
before it took the Moebius product.  ``charpoly`` and ``nullspace`` are the
characteristic polynomial by Hessenberg reduction and the nullspace by
elimination that the eigenspace split ran per eigenvalue before it took
Lagrange projectors; ``oracle_common_eigenvectors`` is that split.
``rref`` is the reduced row echelon form in which that split, and the one
after it, carried each eigenspace as a basis, before each space became
one vector.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np
from sympy import GF, Poly, Symbol

from pblocks.blockfield import BlockField
from pblocks.cyclotomic import _power_reductions, cyclotomic_poly, euler_phi
from pblocks.errors import InternalError
from pblocks.groups import Group
from pblocks.modlinalg import inv_mod, poly_roots
from pblocks.perms import Perm, identity


def pmul(p: Perm, q: Perm) -> Perm:
    """Product: apply p, then q."""
    return tuple(q[i] for i in p)


def pinv(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


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


@lru_cache(maxsize=None)
def cyclotomic_by_division(e: int) -> tuple:
    """Phi_e, ascending: x^e - 1 divided by Phi_d for every proper divisor d."""
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_by_division(d)))
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


def oracle_common_eigenvectors(a, ell, reads):
    """The eigenspace split that reads a[i] for i in ``reads``, reduces
    every basis again and takes the characteristic polynomial of every
    restriction, scalar ones included, and the nullspace of every shift."""
    r = a.shape[0]
    spaces = [np.eye(r, dtype=np.int64)]
    for i in reads:
        if all(s.shape[0] == 1 for s in spaces):
            break
        mt = (a[i].T.astype(np.int64)) % ell
        new_spaces = []
        for basis in spaces:
            if basis.shape[0] == 1:
                new_spaces.append(basis)
                continue
            image = (basis @ mt) % ell
            reduced, pivots = rref(basis, ell)
            assert reduced.shape[0] == basis.shape[0]
            restriction = image[:, pivots] % ell
            assert np.array_equal((restriction @ basis) % ell, image % ell)
            dim_total = 0
            for lam in poly_roots(charpoly(restriction, ell), ell):
                shifted = (restriction - lam * np.eye(basis.shape[0], dtype=np.int64)) % ell
                null = nullspace(shifted.T % ell, ell)
                if null.shape[0] == 0:
                    continue
                sub, _ = rref((null @ basis) % ell, ell)
                dim_total += sub.shape[0]
                new_spaces.append(sub)
            assert dim_total == basis.shape[0]
        spaces = new_spaces
    assert all(s.shape[0] == 1 for s in spaces) and len(spaces) == r
    out = np.zeros((r, r), dtype=np.int64)
    for i, s in enumerate(spaces):
        v = s[0] % ell
        assert v[0] != 0
        out[i] = (v * inv_mod(v[0], ell)) % ell
    return out


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


def triples(m: np.ndarray):
    """The nonzero entries (j, k, m[j, k]) of a dense matrix, sorted by j
    and then k: the form in which the split reads a class matrix."""
    j, k = np.nonzero(m)
    return j, k, m[j, k].astype(np.int64)


class SparseTensor:
    """A dense [r, r, r] tensor read as the split reads ``_ClassMatrices``:
    ``shape``, and a[i] as the :func:`triples` of the dense a[i]."""

    def __init__(self, dense: np.ndarray):
        self.dense, self.shape = dense, dense.shape

    def __getitem__(self, i: int):
        return triples(self.dense[i])


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
