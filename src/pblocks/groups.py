"""Exact permutation group arithmetic.

A :class:`Group` is its sorted elements, held as the rows of one small-int
array, :class:`_ElementArray`, and certified by their count, by their
distinctness and by their closure under each generator.  An input group,
defined by generators on a fixed degree, is built once: a deterministic
Schreier-Sims run on the generators' rows (base points in ascending point
order, each transversal one array of rows) gives its order as the product
of the transversal sizes, checked against the order ceiling before any
element row is made, and its elements as the products of the transversals.
The stabilizer chain is not kept.  A subgroup group is cut from its
parent's certified rows, and membership is one row lookup.

Everything else runs on the element indices 0..|G|-1: conjugacy classes,
centralizers, normalizers and transporters, Sylow subgroups, the p-subgroup
lattice and the class matrices in :mod:`pblocks.chartable`.  Only the
subgroups of a Sylow subgroup P are found in P's own indices 0..|P|-1, from
its multiplication table, one order at a time.  A
:class:`SubgroupHandle` is the frozenset of its element indices, spanned by
one coset-by-coset closure over index arrays.  One routine, :func:`_fuse`,
fuses subgroups into conjugacy classes, for the lattice and for the chain
extension step.  A Sylow subgroup, of G or of a centralizer, grows among G's
indices, and a subgroup becomes a Group of its own only where its character
table is built.  Tuples are only what comes in (the parsed generators) and
what goes out (generating sets, class representatives,
:meth:`Group.elements`); no tuple product runs here.

Groups are desk scale: the chain is cheap, but every group holds all its
elements, so orders are capped by :class:`~pblocks.config.Limits`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import wraps
from itertools import groupby
from math import lcm, prod

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .cyclotomic import _nu
from .errors import InputError, InternalError, ResourceError
from .perms import Perm, format_cycles, identity, perm_order, validate_perm

__all__ = [
    "Group",
    "SubgroupHandle",
    "ConjClass",
]


def _cached(fn):
    """Memoise ``fn(owner, *args)`` in the dict ``owner._cache``, made on
    first use, under the key ``(fn's name, *args)``.  Positional arguments
    only; a call that raises stores nothing."""
    name = fn.__name__

    @wraps(fn)
    def cached(owner, *args):
        key = (name, *args)
        try:
            return owner._cache[key]
        except AttributeError:
            owner._cache = {}
        except KeyError:
            pass
        value = owner._cache[key] = fn(owner, *args)
        return value

    return cached


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per row; the keys sort as the rows do lexicographically."""
    rows = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _orbit_labels(n: int, moves) -> np.ndarray:
    """The least member of the orbit of each of 0..n-1 under index maps."""
    label = np.arange(n)
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _fuse(rows: np.ndarray, moves) -> np.ndarray:
    """:func:`_orbit_labels` of subgroups under conjugation: ``rows`` holds
    one sorted element-index array per subgroup, in lexicographic order and
    closed under every index map of ``moves``."""
    keys = _lex_keys(rows)
    images = []
    for move in moves:
        image = _lex_keys(np.sort(move[rows], axis=1))
        at = np.minimum(keys.searchsorted(image), len(keys) - 1)
        if not np.array_equal(keys[at], image):
            raise InternalError("subgroup rows are not closed under the conjugations")
        images.append(at)
    return _orbit_labels(len(rows), images)


def _member_mask(n: int, elements) -> np.ndarray:
    """Boolean mask over the indices 0..n-1 of a set of element indices."""
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(elements, dtype=np.intp, count=len(elements))] = True
    return mask


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class with its canonical (minimal) representative."""

    rep: Perm
    size: int
    centralizer_order: int

    def __repr__(self) -> str:
        return f"ConjClass({format_cycles(self.rep)}, size={self.size})"


# rows per int64 product in _ElementArray._row_keys
_KEY_CHUNK = 1 << 14

# entries per gather of one batch in _subgroups_of_p_group
_LATTICE_CHUNK = 1 << 20

# one level of a stabilizer chain: base point, coset representatives u as
# rows (u[point] the orbit point), their inverses, and the row of each
# point's u (-1 off the orbit)
_ChainLevel = namedtuple("_ChainLevel", "point transversal inverse row_of")


class _ElementArray:
    """The sorted elements of a group as rows of one small-int array.

    ``rows[i]`` is ``elements()[i]`` and ``inv[i]`` its inverse, so index
    order is element order.  Their dtype is ``np.min_scalar_type(degree -
    1)``, chosen where an input group's generator rows are made: ``uint8``
    up to degree 256, ``uint16`` up to 65,536 and ``uint32`` above.  Each
    row has one key, and the keys ascend with the rows, so :meth:`lookup`
    maps rows back to indices by one binary search.  Up to degree 15, where
    degree**degree < 2**63, the key is the int64 whose base-degree digits
    are the row's images, first point most significant: exact and injective
    on every row of points below the degree, element or not, so a key match
    is a row match.  Past that bound the key is the row's big-endian bytes
    as one ``np.void``, compared bytewise.  Index arrays that are kept use
    ``idx``, the smallest unsigned dtype that holds every index.
    """

    __slots__ = ("rows", "inv", "idx", "_radix", "_keys")

    def __init__(self, rows: np.ndarray):
        """The distinct rows of ``rows``, sorted."""
        degree = rows.shape[1]
        self._radix = (degree ** np.arange(degree - 1, -1, -1, dtype=np.int64)
                       if degree <= 15 else None)
        self._keys, first = np.unique(self._row_keys(rows), return_index=True)
        rows = self.rows = rows[first]
        inv = self.inv = np.empty_like(rows)
        inv[np.arange(len(rows))[:, None], rows] = np.arange(degree, dtype=rows.dtype)
        self.idx = np.min_scalar_type(len(rows) - 1)

    def _row_keys(self, rows: np.ndarray) -> np.ndarray:
        """The key of every row.  The int64 keys are summed over chunks of
        rows, so no rows-sized int64 copy of ``rows`` is made."""
        if self._radix is None:
            return _lex_keys(rows)
        if len(rows) <= _KEY_CHUNK:
            return rows @ self._radix
        keys = np.empty(len(rows), dtype=np.int64)
        for start in range(0, len(rows), _KEY_CHUNK):
            np.matmul(rows[start:start + _KEY_CHUNK], self._radix,
                      out=keys[start:start + _KEY_CHUNK])
        return keys

    def lookup(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index, hit) of every row: ``hit`` marks the rows that are
        elements, and ``index`` is meaningful only where it is set."""
        keys = self._row_keys(rows)
        found = np.minimum(self._keys.searchsorted(keys), len(self._keys) - 1)
        return found, self._keys[found] == keys

    def index(self, rows: np.ndarray) -> np.ndarray:
        """Element index of every row; InternalError if a row is no element."""
        found, hit = self.lookup(rows)
        if not hit.all():
            raise InternalError("permutation row is not an element of the group")
        return found

    def perm(self, p: Perm) -> np.ndarray:
        return np.array(p, dtype=self.rows.dtype)


def _orbit_transversal(gens: np.ndarray, point: int) -> _ChainLevel:
    """The chain level of ``point`` under the generator rows ``gens``.  The
    orbit is walked breadth-first, and each new point's representative is
    u*g, for u the representative of the point it was reached from and g
    the generator that reached it; the first representative is the
    identity."""
    degree = gens.shape[1]
    at, orbit = {point: 0}, [point]
    trans = [np.arange(degree, dtype=gens.dtype)]
    images = gens.tolist()
    for a in orbit:  # grows while it is read
        for j, g in enumerate(images):
            if g[a] not in at:
                at[g[a]] = len(orbit)
                orbit.append(g[a])
                trans.append(gens[j][trans[at[a]]])  # u*g
    trans = np.array(trans)
    row_of = np.full(degree, -1, dtype=np.intp)
    row_of[orbit] = np.arange(len(orbit))
    return _ChainLevel(point, trans, np.argsort(trans, axis=1).astype(trans.dtype), row_of)


def _build_chain(gens: np.ndarray) -> list[_ChainLevel]:
    """Deterministic Schreier-Sims on the non-identity generator rows ``gens``.

    Each base point is the least point moved by the strong generators that
    fix the base points before it, so the base ascends.  A round builds the
    chain from the strong generators, then strips every u*g of every level
    (u a representative, g a generator of that level) through the chain in
    one pass, each level gathering from its inverse representatives; every
    distinct non-identity residue joins the strong generators.  A round
    with none certifies the chain complete, so its base points and orbit
    sizes are those of the group, whatever the generators.
    """
    if not len(gens):
        return []
    degree = gens.shape[1]
    identity_row = np.arange(degree, dtype=gens.dtype)
    strong = gens
    for _round in range(100_000):
        levels, level_gens, products = [], strong, []
        while len(level_gens):
            point = int(np.flatnonzero((level_gens != identity_row).any(axis=0))[0])
            levels.append(_orbit_transversal(level_gens, point))
            products.append(level_gens[:, levels[-1].transversal].reshape(-1, degree))
            level_gens = level_gens[level_gens[:, point] == point]
        rows, residues = np.concatenate(products), []
        for lvl in levels:
            at = lvl.row_of[rows[:, lvl.point]]
            residues.append(rows[at < 0])  # off the orbit: not sifted
            rows = np.take_along_axis(lvl.inverse[at[at >= 0]], rows[at >= 0], axis=1)
        residues = np.concatenate(residues + [rows])
        residues = residues[(residues != identity_row).any(axis=1)]
        if not len(residues):
            return levels
        first = np.unique(_lex_keys(residues), return_index=True)[1]  # the distinct ones
        strong = np.concatenate([strong, residues[first]])
    raise InternalError("stabilizer chain failed to close")


class Group:
    """Permutation group certified by its element array (:meth:`_adopt`).

    Instances are immutable after construction; derived data (classes,
    Sylow subgroups, ...) is computed on demand and kept by :func:`_cached`.
    """

    def __init__(self, degree: int, generators, limits: Limits = DEFAULT_LIMITS):
        if degree < 1:
            raise InputError("degree must be positive")
        gens = [validate_perm(g, degree) for g in generators]
        gens = tuple(dict.fromkeys(g for g in gens if g != identity(degree)))
        gen_rows = np.array(gens, dtype=np.min_scalar_type(degree - 1)).reshape(-1, degree)
        levels = _build_chain(gen_rows)
        order = prod(len(lvl.transversal) for lvl in levels)
        if order > limits.max_order:
            raise ResourceError(
                f"group order {order} exceeds the ceiling max_order = "
                f"{limits.max_order} (--max-order)")
        # every element is one product u_k ... u_1 of a coset representative
        # u_i from each chain level
        rows = np.arange(degree, dtype=gen_rows.dtype)[None, :]
        for lvl in reversed(levels):
            rows = lvl.transversal[:, rows].reshape(-1, degree)  # row h*u for each h, u
        self._adopt(degree, gens, limits, order, rows)

    def _adopt(self, degree: int, generators: tuple, limits: Limits, order: int,
               rows: np.ndarray) -> None:
        """Make this the group of ``order`` elements given by candidate
        ``rows``, once they are certified: there are ``order`` distinct rows,
        and right multiplication by each generator maps them into themselves,
        which ``index`` checks."""
        arr = _ElementArray(rows)
        if len(arr.rows) != order:
            raise InternalError("element rows disagree with the group order")
        for g in generators:
            arr.index(arr.perm(g)[arr.rows])
        self.degree, self.generators, self.limits, self.order = degree, generators, limits, order
        self._elements = arr
        self._cache: dict = {}

    # -- basic structure ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order})"

    @property
    def identity(self) -> Perm:
        return identity(self.degree)

    def contains(self, p: Perm) -> bool:
        if len(p) != self.degree or not all(0 <= x < self.degree for x in p):
            return False
        arr = self._array()
        return bool(arr.lookup(arr.perm(p)[None, :])[1][0])

    @_cached
    def elements(self) -> tuple:
        """All elements, sorted."""
        return tuple(map(tuple, self._array().rows.tolist()))

    def _array(self) -> _ElementArray:
        """The sorted elements as rows."""
        return self._elements

    @_cached
    def _conj_move(self, g: Perm) -> np.ndarray:
        """Conjugation by g as an index map, i -> index(g^-1 x_i g).
        g may be any permutation of the same degree that normalises this
        group; for any other, ``index`` raises InternalError."""
        return self._conj_rows(self._array().perm(g))

    def _conj_rows(self, ga: np.ndarray) -> np.ndarray:
        """:meth:`_conj_move` of a permutation given as a row, uncached."""
        arr = self._array()
        return arr.index(ga[arr.rows[:, np.argsort(ga)]]).astype(arr.idx)

    def exponent(self) -> int:
        return lcm(*(perm_order(c.rep) for c in self.conjugacy_classes()))

    def order_p_part(self, p: int) -> int:
        return p ** _nu(self.order, p)

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjClass, ...]:
        """Classes in canonical order: by size, then by minimal representative."""
        return self._classes()[0]

    def _class_of(self) -> np.ndarray:
        """Class index of every element index."""
        return self._classes()[1]

    @_cached
    def _classes(self) -> tuple[tuple[ConjClass, ...], np.ndarray]:
        """(:meth:`conjugacy_classes`, :meth:`_class_of`)."""
        # Conjugation by each generator permutes the element indices; every
        # element's label falls to the least index in its class.
        label = _orbit_labels(self.order, [self._conj_move(g) for g in self.generators])
        members = np.argsort(label, kind="stable")
        reps, starts, sizes = np.unique(label[members], return_index=True,
                                        return_counts=True)
        rows = self._array().rows
        class_of = np.empty(self.order, dtype=np.intp)
        classes = []
        for c in np.lexsort((reps, sizes)).tolist():
            size = int(sizes[c])
            if self.order % size:
                raise InternalError("class size does not divide group order")
            class_of[members[starts[c]:starts[c] + size]] = len(classes)
            # the representative is the least index of its class
            classes.append(ConjClass(tuple(rows[reps[c]].tolist()), size, self.order // size))
        return tuple(classes), class_of

    # -- subgroups ----------------------------------------------------------

    def handle(self, elements=None, generators=None) -> "SubgroupHandle":
        """Build a SubgroupHandle from a set of element indices or from a
        list of generating permutations; cached per element set."""
        if elements is None:
            if generators is None:
                raise InputError("need elements or generators")
            gens = [validate_perm(g, self.degree) for g in generators]
            arr = self._array()
            found, hit = arr.lookup(arr.perm(gens).reshape(-1, self.degree))
            if not hit.all():
                raise InputError("generator lies outside the ambient group")
            inside, _ = self._extend(_member_mask(self.order, [0]), [], found.tolist())
            elements = np.flatnonzero(inside).tolist()
        key = ("handle", frozenset(elements))
        if key not in self._cache:
            self._cache[key] = SubgroupHandle(self, key[1])
        return self._cache[key]

    def _extend(self, inside: np.ndarray, gens: list, candidates,
                size: int | None = None) -> tuple[np.ndarray, list]:
        """Grow the subgroup K marked by ``inside`` and generated by the
        element indices ``gens`` by each candidate index it does not contain
        yet, until it has ``size`` (default |G|) elements or more.  Returns
        the new mask and generators.

        Each step is Dimino's method: <K, x> is a union of right cosets K*y,
        closed under a generator s once y*s lies in it for every coset
        representative y, and a y*s outside it starts a new coset.  So each
        new coset costs one gather and one lookup of |K| rows, and only the
        representatives meet the generators.
        """
        arr = self._array()
        inside = inside.copy()
        count = int(inside.sum())
        for x in candidates:
            if count >= (size or self.order):
                break
            if inside[x]:
                continue
            k_rows = arr.rows[inside]
            gens = gens + [x]
            gen_rows = arr.rows[gens]
            inside[arr.index(arr.rows[x][k_rows])] = True  # the coset K*x
            reps = [x]
            for y in reps:  # grows while it is read
                for z in arr.index(gen_rows[:, arr.rows[y]]).tolist():  # y*s for each s
                    if not inside[z]:
                        inside[arr.index(arr.rows[z][k_rows])] = True
                        reps.append(z)
            count = len(k_rows) * (len(reps) + 1)
        return inside, gens

    def trivial_subgroup(self) -> "SubgroupHandle":
        return self.handle(elements=[0])  # the identity sorts first

    def full_subgroup(self) -> "SubgroupHandle":
        return self.handle(elements=range(self.order))

    def _transporter(self, gens, inside: np.ndarray, among=slice(None)) -> np.ndarray:
        """Mask over the element indices ``among`` (default all) of the g with
        h^g in the nonempty set marked by ``inside`` for every permutation h
        of ``gens``: the transporter {g : H^g <= K} for gens generating H and
        ``inside`` marking K, found among K's keys.  Each generator after the
        first meets only the g that passed the ones before it.  A generator
        outside this group is an InternalError."""
        arr = self._array()
        arr.index(arr.perm(gens).reshape(-1, self.degree))  # raises for h outside G
        keys = arr._keys[inside]
        rows, inv = arr.rows[among], arr.inv[among]
        mask = np.zeros(len(rows), dtype=bool)
        passed = np.arange(len(rows))
        for h in gens:
            # row g of the gather is g^-1 h g
            images = arr._row_keys(np.take_along_axis(rows, arr.perm(h)[inv], axis=1))
            hit = keys[np.minimum(keys.searchsorted(images), len(keys) - 1)] == images
            passed, rows, inv = passed[hit], rows[hit], inv[hit]
        mask[passed] = True
        return mask

    def normalizer_set(self, sub_elements: frozenset, sub_gens) -> frozenset:
        """Element indices g with H^g = H, for the subgroup H with element
        indices ``sub_elements`` and generating permutations ``sub_gens``."""
        mask = self._transporter(sub_gens, _member_mask(self.order, sub_elements))
        return frozenset(np.flatnonzero(mask).tolist())

    @_cached
    def normalizer(self, handle: "SubgroupHandle") -> "SubgroupHandle":
        """N_G(H) for a handle H of this group."""
        if handle.ambient is not self:
            raise InputError("subgroup handle belongs to another group")
        n = self.handle(elements=self.normalizer_set(handle.elements, handle.generators))
        if not handle.elements <= n.elements:
            raise InternalError("normalizer does not contain the subgroup")
        return n

    def _commutes_with(self, x: Perm) -> np.ndarray:
        """Mask of the elements g with gx = xg."""
        arr = self._array()
        xa = arr.perm(x)
        return (xa[arr.rows] == arr.rows[:, xa]).all(axis=1)

    def centralizer_set(self, x: Perm) -> frozenset:
        """Element indices of C_G(x)."""
        return frozenset(np.flatnonzero(self._commutes_with(x)).tolist())

    @_cached
    def center(self) -> "SubgroupHandle":
        mask = np.ones(self.order, dtype=bool)
        for h in self.generators:
            mask &= self._commutes_with(h)
        return self.handle(elements=np.flatnonzero(mask).tolist())

    @_cached
    def _powers(self, p: int) -> np.ndarray:
        """Index of x^p for every element index x, by square and multiply."""
        arr = self._array()
        base = arr.rows
        power = np.broadcast_to(np.arange(self.degree, dtype=base.dtype), base.shape)
        while p:
            if p & 1:
                power = np.take_along_axis(base, power, axis=1)
            p >>= 1
            if p:
                base = np.take_along_axis(base, base, axis=1)
        return arr.index(power)

    @_cached
    def sylow(self, p: int) -> "SubgroupHandle":
        """A Sylow p-subgroup, grown deterministically inside normalizers."""
        return self.handle(elements=self._sylow_in(p, np.arange(self.order)))

    def _sylow_in(self, p: int, among: np.ndarray) -> list:
        """Element indices of a Sylow p-subgroup of the subgroup with the
        ascending element indices ``among``, grown by the least x of
        :meth:`_p_steps`: as that subgroup's own group grows it."""
        target = p ** _nu(len(among), p)
        if target == len(among):  # a p-group is its own Sylow subgroup
            return among.tolist()
        inside, gens = _member_mask(self.order, [0]), []
        while (size := int(inside.sum())) < target:
            steps = self._p_steps(p, inside, gens, among)
            if not len(steps):
                raise InternalError("Sylow construction stalled below target order")
            inside, gens = self._extend(inside, gens, steps[:1].tolist())
            if not size < inside.sum() <= target:
                raise InternalError("Sylow step did not grow to a larger p-subgroup")
        return np.flatnonzero(inside).tolist()

    def _p_steps(self, p: int, inside: np.ndarray, gens: list, among: np.ndarray) -> np.ndarray:
        """The x of the element indices ``among`` in N(Q) \\ Q with x^p in Q,
        for the subgroup Q marked by ``inside`` and generated by the indices
        ``gens``.  Each such x is a p-element, and <Q, x> has order p*|Q|.
        Only :meth:`_sylow_in` grows by these steps; the subgroups of a
        p-group are found by :func:`_subgroups_of_p_group` in its own table."""
        among = among[inside[self._powers(p)[among]] & ~inside[among]]
        return among[self._transporter(self._array().rows[gens], inside, among)]

    @_cached
    def p_core(self, p: int) -> "SubgroupHandle":
        """O_p(G): the intersection of all Sylow p-subgroups."""
        orbit = self.subgroup_orbit(self.sylow(p).elements)
        core = np.bincount(orbit.ravel(), minlength=self.order) == len(orbit)
        return self.handle(elements=np.flatnonzero(core).tolist())

    @_cached
    def subgroup_orbit(self, elements: frozenset) -> np.ndarray:
        """G-orbit of a subgroup under conjugation, given by its element
        indices: one row of sorted indices per conjugate, rows in
        lexicographic order."""
        return self._index_orbit(np.array(sorted(elements), dtype=self._array().idx)[None, :])

    def _index_orbit(self, subs: np.ndarray, moves=None) -> np.ndarray:
        """The union of the orbits of subgroups, rows of sorted element indices,
        under ``moves`` (default: conjugation by G's generators): each once, ascending."""
        moves = [self._conj_move(g) for g in self.generators] if moves is None else moves
        orbit = frontier = subs
        while len(frontier) and moves:
            rows = np.concatenate([orbit] + [np.sort(m[frontier], axis=1) for m in moves])
            # np.unique keeps the first of equal rows, and the known rows come first
            first = np.unique(_lex_keys(rows), return_index=True)[1]
            frontier = rows[first[first >= len(orbit)]]
            orbit = rows[first]
        return orbit

    @_cached
    def subgroup_group(self, handle: "SubgroupHandle") -> "Group":
        """The subgroup as a Group in its own right (same degree), made
        where its character table is built.  Its rows are cut from this
        group's at the handle's element indices, so its index i is the
        handle's i-th smallest, as :meth:`SubgroupHandle.lift` reads.  The
        whole group is its own subgroup group, so its facts are built once."""
        if handle.order == self.order:
            return self
        g = Group.__new__(Group)
        g._adopt(self.degree, handle.generators, self.limits, handle.order,
                 self._array().rows[sorted(handle.elements)])
        return g

    def is_normal(self, handle: "SubgroupHandle") -> bool:
        """Whether H is normal: each generator's conjugation move maps H's indices into H."""
        if handle.ambient is not self:
            raise InputError("subgroup handle belongs to another group")
        inside = _member_mask(self.order, handle.elements)
        return all(inside[self._conj_move(g)[inside]].all() for g in self.generators)

    # -- p-subgroup enumeration ---------------------------------------------

    @_cached
    def p_subgroup_classes(self, p: int) -> tuple["SubgroupHandle", ...]:
        """One handle per G-class of p-subgroups, sorted by order then
        canonical key: the least row of each class of :meth:`_p_lattice`."""
        return tuple(self.handle(elements=rows[i].tolist())
                     for rows, labels in self._p_lattice(p)
                     for i in np.flatnonzero(labels == np.arange(len(rows))).tolist())

    @_cached
    def _p_lattice(self, p: int) -> tuple:
        """Every p-subgroup, one level (rows, labels) per order, ascending:
        the subgroups' sorted element indices in lexicographic order, and
        the least row of each one's G-class.  A level is the G-closure of a
        Sylow subgroup's subgroups of its order, fused by :func:`_fuse`; each
        class orbit is kept as the :meth:`subgroup_orbit` of its least row."""
        limit = self.limits.max_p_subgroup_classes
        lattice, classes = [], 0
        subs = _subgroups_of_p_group(self, self.sylow(p).elements, p, limit)
        for _, level in groupby(subs, key=len):
            rows = self._index_orbit(np.stack(list(level)))
            labels = _fuse(rows, [self._conj_move(g) for g in self.generators])
            by_class = np.argsort(labels, kind="stable")  # rows stay ascending
            orbits = np.split(rows[by_class], np.flatnonzero(np.diff(labels[by_class])) + 1)
            classes += len(orbits)
            if classes > limit:  # counted one class at a time, it passes limit + 1
                raise ResourceError(
                    f"p-subgroup class count reached {limit + 1}, above the "
                    f"ceiling max_p_subgroup_classes = {limit}")
            for orbit in orbits:
                self._cache["subgroup_orbit", frozenset(orbit[0].tolist())] = orbit
            lattice.append((rows, labels))
        return tuple(lattice)


def _subgroups_of_p_group(G: Group, elements: frozenset, p: int, ceiling: int) -> list:
    """All subgroups of a p-subgroup P of G as sorted element-index arrays
    (dtype ``arr.idx``), grouped by ascending order.

    Every subgroup of order p^(k+1) contains a normal subgroup Q of index p,
    so it is <Q, x> = Q u Qx u ... u Qx^(p-1) for an x in N_P(Q) \\ Q with
    x^p in Q; every x of Qx gives the same subgroup, so only the least is
    taken.  The work runs in P's own indices 0..|P|-1, on P's multiplication
    table and the conjugations and p-th powers gathered from it.  One order
    at a time, a batch of subgroups Q finds its steps x as one mask per Q,
    gathers each <Q, x> coset by coset and sorts it (a repeated element is
    an InternalError), and drops the subgroups found before by their
    lexicographic keys; the first (Q, x) of each subgroup gives its
    generators.  A batch holds at most ``_LATTICE_CHUNK // (|P| p |Q|)``
    subgroups Q, so its gathers stay under ``_LATTICE_CHUNK`` entries, and
    the count ceiling 64 * ``ceiling`` is checked after each batch.
    """
    members = np.array(sorted(elements), dtype=G._array().idx)
    mul = _multiplication_table(G, members)
    n, loc = len(members), mul.dtype
    ids = np.arange(n)
    inv = mul.argmin(axis=1)  # each row holds the identity, index 0, once
    conj = mul[mul[inv].T, ids]  # conj[h, x] = x^-1 h x
    power = ids
    for _ in range(p - 1):
        power = mul[power, ids]
    limit = 64 * ceiling
    levels = []
    # the trivial subgroup, with no generators
    level, gens = np.zeros((1, 1), dtype=loc), np.zeros((1, 0), dtype=loc)
    while len(level):
        levels.append(level)
        q = level.shape[1]
        rows = np.zeros((0, p * q), dtype=loc)
        row_gens = np.zeros((0, gens.shape[1] + 1), dtype=loc)
        batch = max(1, _LATTICE_CHUNK // (n * p * q))
        for start in range(0, len(level), batch):
            qs, qs_gens = level[start:start + batch], gens[start:start + batch]
            inside = np.zeros((len(qs), n), dtype=bool)
            np.put_along_axis(inside, qs, True, axis=1)
            # x outside Q, x^p in Q, x least in Qx, and h^x in Q for each generator h
            steps = ~inside & inside[:, power] & (mul[qs].min(axis=1) == ids)
            for h in qs_gens.T:
                steps &= np.take_along_axis(inside, conj[h], axis=1)
            at, x = np.nonzero(steps)
            x = x.astype(loc)
            cosets, y = [qs[at]], x
            for _ in range(p - 1):
                cosets.append(mul[cosets[0], y[:, None]])  # the coset Q x^i
                y = mul[y, x]
            ext = np.sort(np.concatenate(cosets, axis=1), axis=1)
            if (ext[:, 1:] == ext[:, :-1]).any():
                raise InternalError("p-group extension has unexpected order")
            # np.unique keeps the first of equal rows, and the known rows come first
            rows = np.concatenate([rows, ext])
            row_gens = np.concatenate([row_gens, np.column_stack([qs_gens[at], x])])
            first = np.unique(_lex_keys(rows), return_index=True)[1]
            rows, row_gens = rows[first], row_gens[first]
            if sum(map(len, levels)) + len(rows) > limit:
                raise ResourceError(
                    f"p-subgroup count reached {limit + 1}, above "
                    f"the ceiling 64 * max_p_subgroup_classes = {limit}")
        level, gens = rows, row_gens
    return [row for level in levels for row in members[level]]


def _multiplication_table(G: Group, members: np.ndarray) -> np.ndarray:
    """mul[a, b] = the index among ``members`` of the product of the a-th and
    b-th members (first a, then b), looked up among the members' keys at
    most ``_KEY_CHUNK`` rows at a time; a product outside them, so a set of
    members that is no subgroup, is an InternalError."""
    arr, n = G._array(), len(members)
    rows, keys = arr.rows[members], arr._keys[members]
    mul = np.empty((n, n), dtype=np.min_scalar_type(n - 1))
    step = max(1, _KEY_CHUNK // n)
    for a in range(0, n, step):
        products = rows[:, rows[a:a + step]]  # [b, a] is row b gathered at row a: a*b
        products = arr._row_keys(products.transpose(1, 0, 2).reshape(-1, G.degree))
        at = np.minimum(keys.searchsorted(products), n - 1)
        if not np.array_equal(keys[at], products):
            raise InternalError("p-subgroup is not closed under products")
        mul[a:a + step] = at.reshape(-1, n)
    return mul


class SubgroupHandle:
    """A subgroup of a fixed ambient group: the frozenset of its element
    indices in the ambient group.

    Its generating set is a small deterministic list of permutations: the
    ascending elements that the ones before them do not span, up to the
    full order.  Index order is element order in every group, so a subgroup
    has the same generating set in each group that contains it.  The
    canonical key, the least sorted index tuple over the ambient conjugates,
    is invariant under ambient conjugacy.
    """

    __slots__ = ("ambient", "elements", "order", "generators", "_canonical_key")

    def __init__(self, ambient: Group, elements: frozenset):
        if not elements:
            raise InputError("a subgroup needs at least the identity")
        if min(elements) < 0 or max(elements) >= ambient.order:
            raise InputError("subgroup elements must be element indices of the ambient group")
        self.ambient = ambient
        self.elements = elements
        self.order = len(elements)
        if ambient.order % self.order:
            raise InputError("subgroup order does not divide the ambient order")
        members = sorted(elements)
        inside, gens = ambient._extend(_member_mask(ambient.order, [0]), [], members,
                                       size=self.order)
        if not np.array_equal(np.flatnonzero(inside), members):
            raise InternalError("element set is not the subgroup its generators span")
        self.generators = tuple(map(tuple, ambient._array().rows[gens].tolist()))
        self._canonical_key = None

    def __repr__(self) -> str:
        gens = ", ".join(format_cycles(g) for g in self.generators) or "()"
        return f"SubgroupHandle(order={self.order}, gens=[{gens}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupHandle) and self.elements == other.elements \
            and self.ambient is other.ambient

    def __hash__(self) -> int:
        return hash(self.elements)

    def _conjugates(self) -> np.ndarray:
        return self.ambient.subgroup_orbit(self.elements)

    @property
    def canonical_key(self) -> tuple:
        if self._canonical_key is None:
            self._canonical_key = tuple(self._conjugates()[0].tolist())
        return self._canonical_key

    @property
    def class_orbit(self) -> tuple:
        """The ambient conjugates as sets of element indices, in canonical order."""
        return tuple(frozenset(s) for s in self._conjugates().tolist())

    @property
    def class_size(self) -> int:
        return len(self._conjugates())

    def normalizer(self) -> "SubgroupHandle":
        return self.ambient.normalizer(self)

    def is_p_group(self, p: int) -> bool:
        return p ** _nu(self.order, p) == self.order

    def is_abelian(self) -> bool:
        """Whether the generators commute, checked on their rows."""
        rows = self.ambient._array().perm(self.generators).reshape(-1, self.ambient.degree)
        products = rows[:, rows]  # [j, i] is the row of g_i * g_j
        return bool((products == products.transpose(1, 0, 2)).all())

    def as_group(self) -> Group:
        return self.ambient.subgroup_group(self)

    def lift(self, sub: "SubgroupHandle") -> "SubgroupHandle":
        """The ambient handle of ``sub``, a subgroup handle of
        :meth:`as_group`: index i there is the i-th smallest index here."""
        if sub.ambient is not self.as_group():
            raise InputError("subgroup handle belongs to another group")
        if sub.ambient is self.ambient:
            return sub
        members = sorted(self.elements)
        return self.ambient.handle(elements=[members[i] for i in sub.elements])
