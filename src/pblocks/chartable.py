"""Exact ordinary character tables via class-sum diagonalization over F_ell.

The algorithm is the classical one: split F_ell^r into common eigenspaces
of the class-sum matrices for a prime ell = 1 (mod exponent) with
ell > 2*sqrt(|G|); read off the central character values, recover degrees
from the orthogonality relation, and lift each value to an exact element of
Z[zeta_e] by discrete Fourier inversion.  The values on a class of element
order o repeat with period o in the power, so each class is inverted over
the o-th roots of unity in F_ell, all classes of one order in one product.

The split reads the class matrices smallest class first, and among classes
of one size those of prime element order first, then by element order and
index; it builds each class matrix only when it reads it, as the sorted
(j, k, count) triples of its nonzero entries.  It carries each eigenspace
as one vector, the component in it of the identity-class row.  A read
multiplies the carried vectors by the class matrix once, and only those
not mapped to multiples of themselves take their Krylov blocks, one sparse
product per power, and their components per root as one Lagrange
combination of the blocks.

Every table is validated against the row orthogonality relation, which
implies the column relation, before it is returned; a table that fails
validation is never handed out.  Its cyclotomic product convolves only the
nonzero coefficient planes, and only those are complex conjugated.

The integer products of the lift and of the validation run through float64
matrix products.  Each is preceded by an a-priori bound on its partial sums;
at 2^53 the result could be inexact, so a ResourceError is raised instead.
The lift's bound, e * ell^2, is known once ell is chosen, so it is checked
before any class matrix is built.  The eigenspace split works in int64 and
raises the same way where its partial sums, r * (ell - 1)^2, would reach
2^63.

Every character's defect at p lives in :func:`defects`, one cached tuple of
ints per (table, p); the p-adic valuation is :func:`pblocks.cyclotomic._nu`.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .cyclotomic import _nu, _power_reductions, _prime_factors, euler_phi
from .errors import InputError, InternalError, ResourceError
from .groups import ConjClass, Group, _cached
from .modlinalg import inv_mod, krylov_polynomial, lagrange_basis, poly_roots, times_transpose

__all__ = [
    "CharTable",
    "character_table",
    "defects",
    "p_prime_degree_set",
]


class CharTable:
    """Complete irreducible character table with exact cyclotomic values.

    Rows are in canonical order: ascending degree, ties broken by the
    lexicographic order of the integer coefficient vectors.  Values are
    stored as integer vectors over the power basis of Q(zeta_e), e the group
    exponent; they are always algebraic integers.
    """

    def __init__(self, group: Group, classes, conductor, values, degrees, lift_meta):
        self.group = group
        self.classes: tuple[ConjClass, ...] = classes
        self.conductor = conductor
        self.phi = euler_phi(conductor)
        self.values = values  # np.int64 [r, r, phi]
        self.degrees = degrees
        self.lift_meta = lift_meta  # dict: prime, primitive_root, root_power
        self.r = len(classes)

    def __repr__(self) -> str:
        return f"CharTable(order={self.group.order}, degrees={self.degrees})"

    # -- lookups --------------------------------------------------------------

    def inverse_class(self, k: int) -> int:
        # rep^(e-1) = rep^-1, e the exponent
        return int(self.power_map()[k, self.conductor - 1])

    @_cached
    def power_map(self) -> np.ndarray:
        """power_map[k, t] = class index of rep_k ** t, 0 <= t < conductor.

        One gather per power step takes every class representative's power
        to the next one on the element array; one lookup finds them all.
        """
        arr = self.group._array()
        n = self.group.degree
        reps = np.array([c.rep for c in self.classes], dtype=arr.rows.dtype)
        powers = np.empty((self.r, self.conductor, n), dtype=reps.dtype)
        powers[:, 0] = np.arange(n)
        k = np.arange(self.r)[:, None]
        for t in range(1, self.conductor):
            powers[:, t] = reps[k, powers[:, t - 1]]  # rep^(t-1) * rep
        found = arr.index(powers.reshape(-1, n))
        return self.group._class_of()[found].reshape(self.r, self.conductor)

    @_cached
    def trivial_index(self) -> int:
        """The row whose every value is 1."""
        ones = (self.values == _one_vector(self.conductor)).all(axis=(1, 2))
        if not ones.any():
            raise InternalError("table has no trivial character")
        return int(ones.argmax())

    def row_index_of_values(self, vec: np.ndarray) -> int:
        """Find the row equal to the given [r, phi] value matrix."""
        key = np.ascontiguousarray(vec.astype(np.int64)).tobytes()
        try:
            return self._row_lookup()[key]
        except KeyError:
            raise InternalError("value matrix matches no table row") from None

    @_cached
    def _row_lookup(self) -> dict:
        """Row index by the bytes of its value matrix."""
        return {self.values[i].tobytes(): i for i in range(self.r)}


class _ClassMatrices:
    """The class matrices a[i][j, k] = #{x in K_i : x^-1 z_k in K_j} of a
    table, z_k the class representatives, each built when it is read as the
    triples (j, k, a[i][j, k]) of its nonzero entries, sorted by j then k:
    one lookup of the r * |K_i| rows x^-1 z_k, where the whole tensor takes
    r * |G|.  The class members and representative rows are gathered once."""

    def __init__(self, table: CharTable):
        G = table.group
        r = table.r
        self.shape = (r, r, r)
        self._arr = G._array()
        self._class_of = G._class_of()
        sizes = np.cumsum([c.size for c in table.classes])[:-1]
        self._members = np.split(np.argsort(self._class_of, kind="stable"), sizes)
        self._reps = np.array([c.rep for c in table.classes], dtype=self._arr.rows.dtype)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = self.shape[0]
        # row (k, x) of the gather is x^-1 z_k
        quotients = self._reps[:, self._arr.inv[self._members[i]]]
        found = self._arr.index(quotients.reshape(-1, quotients.shape[-1]))
        keys = self._class_of[found].reshape(r, -1) * r + np.arange(r)[:, None]
        counts = np.bincount(keys.ravel(), minlength=r * r)
        pairs = counts.nonzero()[0]  # j * r + k, ascending
        return *np.divmod(pairs, r), counts[pairs]


@_cached
def character_table(G: Group) -> CharTable:
    """The character table of G, cached on the group."""
    return _dixon_table(G)


@_cached
def defects(table: CharTable, p: int) -> tuple[int, ...]:
    """nu_p(|G|) - nu_p(chi(1)) for every row, in row order; cached on the
    table.  A p that is not a prime raises on every call, as a call that
    raises is not cached."""
    _check_prime(p)
    full = _nu(table.group.order, p)
    return tuple(full - _nu(d, p) for d in table.degrees)


@lru_cache
def _check_prime(p: int) -> None:
    """Raise InputError unless p is a prime, ResourceError where _is_prime
    cannot decide; cached, as it runs per table and prime."""
    if not _is_prime(p):
        raise InputError(f"{p} is not a prime")


# Miller-Rabin to the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is a prime; exact, and a ResourceError for an n at or above
    _MR_BOUND with no prime factor among the bases."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % q == 0 for q in _MR_BASES):
        return False
    if n >= _MR_BOUND:
        raise ResourceError(f"primality of {n} is not decided at or above "
                            f"the Miller-Rabin bound {_MR_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primitive_root(ell: int) -> int:
    """The least primitive root of the prime ell."""
    factors = _prime_factors(ell - 1)
    g = 1
    while any(pow(g, (ell - 1) // q, ell) == 1 for q in factors):
        g += 1
    return g


def p_prime_degree_set(table: CharTable, p: int) -> tuple[int, ...]:
    """Rows whose degree is coprime to p, ascending; these have maximal defect."""
    full = _nu(table.group.order, p)
    return tuple(i for i, d in enumerate(defects(table, p)) if d == full)


# -- Dixon-Schneider construction ----------------------------------------------


def _dixon_table(G: Group) -> CharTable:
    classes = G.conjugacy_classes()
    r = len(classes)
    if classes[0].rep != G.identity:
        raise InternalError("identity class is not first in canonical order")
    e = G.exponent()
    order = G.order

    ell = _dixon_prime(order, e)
    _check_float_exact(e * ell * ell, "character value lift")
    w = _primitive_root(ell)
    z = pow(w, (ell - 1) // e, ell)

    table = CharTable(G, classes, e, None, None,
                      {"prime": ell, "primitive_root": w, "root_power": z})
    # [r, r]: a row per character
    omegas = _common_eigenvectors(_ClassMatrices(table), ell, _read_order(table))
    inv_sizes = np.array([inv_mod(c.size, ell) for c in classes], dtype=np.int64)
    degrees = _recover_degrees(table, omegas, inv_sizes, ell)
    values_mod = omegas * inv_sizes % ell * np.array(degrees)[:, None] % ell
    int_values = _lift_values(table, values_mod, degrees, ell, z)

    rows = sorted(range(r), key=lambda i: (degrees[i], int_values[i].reshape(-1).tolist()))
    table.values = int_values[rows]
    table.degrees = [degrees[i] for i in rows]
    _validate_table(table)
    return table


def _dixon_prime(order: int, e: int) -> int:
    bound = 2 * isqrt(order)
    ell = e + 1
    while True:
        if ell > bound and ell % e == 1 % e and _is_prime(ell):
            return ell
        ell += e


def _read_order(table: CharTable) -> list[int]:
    """The classes whose matrices the eigenspace split reads, in the order
    it reads them: by class size, smallest first (Schneider), then classes
    of prime element order before the others, then by element order and
    index.  A class of size one and prime order p is a central element,
    which acts in every character as a p-th root of unity times the degree:
    it splits each space into at most p parts, with a Krylov polynomial of
    degree at most p, while the spaces are few and large.  A read that splits
    nothing (120 of C2^8's 128) costs one sparse product."""
    orders = _element_orders(table).tolist()
    return sorted(range(1, table.r), key=lambda k: (
        table.classes[k].size, not _is_prime(orders[k]), orders[k], k))


def _common_eigenvectors(a, ell: int, reads) -> np.ndarray:
    """Split F_ell^r into the common eigenspaces of the class-sum matrices.

    Each M_i = a[i] satisfies M_i v = omega(K_i) v on the central character
    vector v = (omega(K_k))_k; since ell does not divide |G| the common
    eigenspaces are one-dimensional.  ``a`` is read through ``a.shape[0]``
    and ``a[i]``, triples as :class:`_ClassMatrices` gives them, for i in
    ``reads`` (see :func:`_read_order`), each a[i] once and only while
    fewer than r spaces are known.

    A space is carried as one row vector: the component in it of the
    identity-class row e_0.  By column orthogonality, e_0 is the sum of
    (chi(1)^2 / |G|) omega_chi over the central characters omega_chi, and
    each coefficient is a unit mod ell, so e_0 has a nonzero component in
    every common eigenspace.  A read stacks the carried vectors V and takes
    V M_i^T.  A v mapped to a multiple of itself (the 2 x 2 minors of
    (v, v M_i^T) at a nonzero coordinate of v vanish) is its own only
    component and stays (Schneider, J. Symbolic Comput. 9 (1990)).  The
    others W take their Krylov blocks W M_i^T, W M_i^T^2, ... up to the
    least monic p with W p(M_i^T) = 0; the Lagrange polynomials L_k of its
    roots lambda_k give each vector's lambda_k-component in one combination
    of the blocks, roots ascending, in place of the vector, and the zero
    components are dropped.  After r vectors each is a multiple of
    its omega_chi, which is read off by scaling the identity coordinate,
    omega_chi(K_0) = 1, to one.

    Each failure raises InternalError: a p with fewer roots in F_ell than
    its degree (M_i^T not diagonalizable there), or fewer than r vectors
    after the last read, is a lost dimension; a component v_k = sum_t
    L_k[t] Y_t of the Krylov blocks Y_t whose image sum_t L_k[t] Y_(t+1) is
    not lambda_k v_k is not an eigenvector; and a vector with identity
    coordinate 0 is refused.
    """
    r = a.shape[0]
    _check_exact(r * (ell - 1) ** 2, "eigenspace split", 63, "int64")
    vectors = np.eye(1, r, dtype=np.int64)  # e_0
    for i in reads:
        if len(vectors) == r:
            break
        matrix = a[i]
        image = times_transpose(vectors, matrix, ell)
        at = np.arange(len(vectors)), vectors.argmax(axis=1)  # a nonzero residue of each
        split = ((image * vectors[at][:, None] - vectors * image[at][:, None]) % ell).any(axis=1)
        if not split.any():
            continue
        poly, blocks = krylov_polynomial(vectors[split], matrix, ell)
        roots = poly_roots(poly, ell)
        m = len(roots)
        if m < len(poly) - 1:  # not diagonalizable over F_ell
            raise InternalError("eigenspace refinement lost dimension")
        lagrange = lagrange_basis(roots, ell)
        blocks = blocks.reshape(m + 1, -1)
        parts = lagrange @ blocks[:m] % ell  # parts[k] = W L_k(M_i^T)
        if not np.array_equal(lagrange @ blocks[1:] % ell,
                              parts * np.array(roots)[:, None] % ell):
            raise InternalError("Lagrange component is not an eigenvector")
        spread = np.zeros((len(vectors), m, r), dtype=np.int64)
        spread[~split, 0] = vectors[~split]
        spread[split] = parts.reshape(m, -1, r).swapaxes(0, 1)
        vectors = spread[spread.any(axis=2)]
    if len(vectors) != r:
        raise InternalError("eigenspace refinement lost dimension")
    if not vectors[:, 0].all():
        raise InternalError("central character vanishes on the identity class")
    scales = np.array([inv_mod(x, ell) for x in vectors[:, 0]], dtype=np.int64)
    return vectors * scales[:, None] % ell


def _recover_degrees(table: CharTable, omegas: np.ndarray, inv_sizes: np.ndarray,
                     ell: int) -> list[int]:
    """Degrees from the orthogonality relation, which gives chi(1)^2 mod ell.

    A degree d is at most sqrt|G| < ell / 2, so d is the only square root
    of its square mod ell in 1..isqrt|G|.
    """
    order = table.group.order
    root_of = {d * d % ell: d for d in range(1, isqrt(order) + 1)}
    inv_map = [table.inverse_class(k) for k in range(table.r)]
    dens = (omegas * omegas[:, inv_map] % ell * inv_sizes % ell).sum(axis=1) % ell
    degrees = []
    for den in dens.tolist():
        if den == 0:
            raise InternalError("degree denominator vanished mod ell")
        deg = root_of.get(order * inv_mod(den, ell) % ell)
        if deg is None:
            raise InternalError("degree square has no square root mod ell")
        degrees.append(deg)
    return degrees


def _lift_values(table, values_mod, degrees, ell, z):
    """Exact values from eigenvalue multiplicities by Fourier inversion per
    element order.

    chi(g) is a sum of chi(1) many o-th roots of unity, o the order of g, so
    only zeta_e^(s e/o) occurs; its multiplicity is (1/o) * sum_{u<o}
    chi(g^u) w^{-su} mod ell with w = z^(e/o), a genuine integer in
    [0, chi(1)] and therefore determined by its residue.  The classes of
    one order are inverted together, in one product with their o x o
    transform, and mapped to the power basis through every (e/o)-th row.
    The caller has checked e * ell^2 against 2^53.
    """
    e = table.conductor
    pm = table.power_map()
    orders = _element_orders(table)
    zinv = inv_mod(z, ell)
    zpow = np.array([pow(zinv, s, ell) for s in range(e)], dtype=np.float64)
    basis = np.array(_power_reductions(e)[:e], dtype=np.int64)[:, :table.phi]
    degs = np.array(degrees, dtype=np.int64)[:, None, None]
    out = np.empty((table.r, table.r, table.phi), dtype=np.int64)
    values = values_mod.astype(np.float64)
    for o in sorted(set(orders.tolist())):
        ks = (orders == o).nonzero()[0]
        u = np.arange(o)
        dft = zpow[e // o * np.outer(u, u) % e] * inv_mod(o, ell) % ell  # w^(-us) / o
        mults = (values[:, pm[ks, :o]] @ dft).astype(np.int64) % ell  # [i, k, s]
        if (mults > degs).any():
            raise InternalError("eigenvalue multiplicity exceeds the degree")
        if not (mults.sum(axis=2) == degs[:, :, 0]).all():
            raise InternalError("eigenvalue multiplicities do not sum to the degree")
        out[:, ks] = mults @ basis[::e // o]
    return out


def _element_orders(table: CharTable) -> np.ndarray:
    """The order of every class representative, in class order."""
    # rep_k^t = 1 iff o_k | t, for 0 <= t < e
    return table.conductor // (table.power_map() == 0).sum(axis=1)


def _one_vector(e: int) -> np.ndarray:
    v = np.zeros(euler_phi(e), dtype=np.int64)
    v[0] = 1
    return v


def galois_matrix(e: int, k: int) -> np.ndarray:
    """Matrix of zeta -> zeta^k on the power basis (k coprime to e); k = -1
    is complex conjugation."""
    phi = euler_phi(e)
    rows = _power_reductions(e)
    out = np.zeros((phi, phi), dtype=np.int64)
    for i in range(phi):
        out[i] = np.array(rows[(i * k) % e][:phi], dtype=np.int64)
    return out


def _check_exact(bound: int, what: str, bits: int, kind: str) -> None:
    """Raise ResourceError unless partial sums bounded by ``bound`` stay
    below 2^bits, where the ``kind`` arithmetic is exact."""
    if bound >= 2**bits:
        raise ResourceError(
            f"{what}: partial sums may reach {bound}, at or above the "
            f"{kind} bound 2^{bits} = {2**bits}"
        )


def _check_float_exact(bound: int, what: str) -> None:
    """Raise ResourceError unless float64 partial sums bounded by ``bound`` stay exact."""
    _check_exact(bound, what, 53, "float64 exact-integer")


def _pairwise_products(A: np.ndarray, B: np.ndarray, weights: np.ndarray, e: int):
    """C[i, j] = sum_K w_K * (A[i,K] * B[j,K]) as reduced basis vectors.

    A, B: [n, r, phi] integer coefficient tensors; the product is the
    cyclotomic product, computed by convolution then reduction mod Phi_e.
    Only the planes s of A and t of B that are nonzero somewhere are
    multiplied, each pair into plane s + t of the convolution.

    The guard bounds every float64 partial sum.  A plane product
    sum_K A[i,K,s] w_K B[j,K,t] stays within M = max|A| max|B| sum|w|.  A
    convolution entry c adds the pairs s + t = c, one t per s and one s per
    t, so at most min(#planes of A, #planes of B) of them.  The reduction
    weights entry c by rows[c], and only the c in the sumset of the plane
    sets are nonzero: the bound is that count times M times the largest
    column sum of |rows| over the sumset.
    """
    n_a, r, phi = A.shape
    n_b = B.shape[0]
    rows = np.array(_power_reductions(e)[: 2 * phi - 1], dtype=np.int64)[:, :phi]
    planes_a = A.any(axis=(0, 1)).nonzero()[0]
    planes_b = B.any(axis=(0, 1)).nonzero()[0]
    reached = np.zeros(2 * phi - 1, dtype=bool)  # the sumset of the plane sets
    reached[np.add.outer(planes_a, planes_b)] = True
    _check_float_exact(int(np.abs(A).max()) * int(np.abs(B).max())
                       * int(np.abs(weights).sum()) * min(len(planes_a), len(planes_b))
                       * int(np.abs(rows[reached]).sum(axis=0).max()), "orthogonality check")
    # wb[K, (t, j)] = w_K * B[j, K, t], over the planes t where B is nonzero
    wb = np.empty((r, len(planes_b), n_b))
    np.multiply(B[:, :, planes_b].transpose(1, 2, 0), weights[:, None, None], out=wb)
    wb = wb.reshape(r, len(planes_b) * n_b)
    conv = np.zeros((2 * phi - 1, n_a, n_b))  # planes first: a scatter moves whole blocks
    for s in planes_a:
        product = A[:, :, s].astype(np.float64) @ wb
        conv[s + planes_b] += product.reshape(n_a, len(planes_b), n_b).swapaxes(0, 1)
    reduced = rows.T.astype(np.float64) @ conv.reshape(2 * phi - 1, n_a * n_b)
    return reduced.T.reshape(n_a, n_b, phi).astype(np.int64)


def _validate_table(table: CharTable) -> None:
    """Raise InternalError unless the degrees, the row orthogonality
    relation, the trivial character and the identity column check out.

    The row relation is X D X*^T = |G| I, X the [r, r] table over the field
    Q(zeta_e), X* its image under complex conjugation zeta -> zeta^-1 (an
    automorphism of the field) and D the diagonal of class sizes.  It
    implies the column relation, sum_chi chi(g_k) chi*(g_l) =
    delta_kl |C_G(g_k)|: D X*^T / |G| is a right inverse of the square
    matrix X over a field, hence also a left inverse, so X*^T X = |G| D^-1.
    Conjugating both sides, D rational, gives X^T X* = |G| D^-1, whose
    (k, l) entry is the column relation as |G| / |K_k| = |C_G(g_k)|.  The
    product is exact (see :func:`_pairwise_products`), so the one product
    checks both relations.
    """
    G = table.group
    if sum(d * d for d in table.degrees) != G.order:
        raise InternalError("sum of squared degrees misses the group order")
    if any(G.order % d for d in table.degrees):
        raise InternalError("character degree does not divide the group order")
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    planes = table.values.any(axis=(0, 1)).nonzero()[0]  # conjugate only these
    conj_values = np.tensordot(table.values[:, :, planes],
                               galois_matrix(table.conductor, -1)[planes], axes=([2], [0]))

    row_orth = _pairwise_products(table.values, conj_values, sizes, table.conductor)
    expected = np.zeros_like(row_orth)
    expected[np.arange(table.r), np.arange(table.r), 0] = G.order  # rational part of C[i, i]
    if not np.array_equal(row_orth, expected):
        raise InternalError("row orthogonality failed; table rejected")

    table.trivial_index()  # raises where no row is all ones
    # identity column must equal the degree list
    one = _one_vector(table.conductor)
    if not np.array_equal(table.values[:, 0], np.outer(table.degrees, one)):
        raise InternalError("identity column disagrees with the degrees")

