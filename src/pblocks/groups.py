"""Exact permutation group arithmetic.

A :class:`Group` is defined by generators on a fixed degree and carries a
deterministic stabilizer-chain certificate (Schreier-Sims with base points in
ascending point order).  The group order is the product of the transversal
sizes of the chain; membership is tested by sifting.

Everything else (conjugacy classes, normalizers, Sylow subgroups, p-subgroup
classes) is computed by exact search.  Groups are desk scale: the chain is
cheap, but most derived data enumerates all elements, so orders are capped by
:class:`~pblocks.config.Limits`.

The whole-group scans (classes, centralizers, normalizers, and the
class-multiplication tensor in :mod:`pblocks.chartable`) run over one cached
small-int array of the elements, :class:`_ElementArray`; tuples are what
these scans take in and hand back.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import InputError, InternalError, ResourceError
from .perms import (
    Perm,
    conj,
    format_cycles,
    identity,
    perm_order,
    pinv,
    pmul,
    validate_perm,
)

__all__ = [
    "Group",
    "SubgroupHandle",
    "ConjClass",
    "group_from_generators",
    "closure",
]


def closure(degree: int, gens, seed=None, max_size: int | None = None) -> frozenset:
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
                    if max_size is not None and len(elems) > max_size:
                        raise ResourceError(
                            f"closure exceeded ceiling of {max_size} elements"
                        )
        frontier = nxt
    return frozenset(elems)


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class with its canonical (minimal) representative."""

    rep: Perm
    size: int
    centralizer_order: int
    elements: tuple

    def __repr__(self) -> str:
        return f"ConjClass({format_cycles(self.rep)}, size={self.size})"


class _ChainLevel:
    __slots__ = ("point", "gens", "transversal")

    def __init__(self, point, gens, transversal):
        self.point = point
        self.gens = gens
        self.transversal = transversal


class _ElementArray:
    """The sorted elements of a group as rows of one small-int array.

    ``rows[i]`` is ``elements()[i]`` and ``inv[i]`` its inverse, both
    ``uint8`` (``uint16`` above degree 256), so index order is element
    order.  :meth:`index` maps rows back to indices through their byte keys.
    """

    __slots__ = ("rows", "inv", "_keys", "_sorter")

    def __init__(self, elements: tuple, degree: int):
        dtype = np.uint8 if degree <= 256 else np.uint16
        rows = np.array(elements, dtype=dtype).reshape(len(elements), degree)
        inv = np.empty_like(rows)
        inv[np.arange(len(rows))[:, None], rows] = np.arange(degree, dtype=dtype)
        self.rows = rows
        self.inv = inv
        keys = self._row_keys(rows)
        self._sorter = np.argsort(keys, kind="stable")
        self._keys = keys[self._sorter]

    @staticmethod
    def _row_keys(rows: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()

    def index(self, rows: np.ndarray) -> np.ndarray:
        """Element index of every row; InternalError if a row is no element."""
        pos = np.searchsorted(self._keys, self._row_keys(rows))
        found = self._sorter[np.minimum(pos, len(self._keys) - 1)]
        if not np.array_equal(self.rows[found], rows):
            raise InternalError("permutation row is not an element of the group")
        return found

    def perm(self, p: Perm) -> np.ndarray:
        return np.array(p, dtype=self.rows.dtype)


def _orbit_transversal(degree: int, point: int, gens) -> dict:
    """BFS orbit of ``point`` with coset representatives u: u[point] = pt."""
    idp = identity(degree)
    trans = {point: idp}
    queue = [point]
    while queue:
        a = queue.pop(0)
        ua = trans[a]
        for g in gens:
            b = g[a]
            if b not in trans:
                trans[b] = pmul(ua, g)
                queue.append(b)
    return trans


def _sift(g: Perm, levels: list[_ChainLevel], start: int = 0) -> Perm:
    """Strip g through the chain; identity result means membership."""
    r = g
    for lvl in levels[start:]:
        t = r[lvl.point]
        if t not in lvl.transversal:
            return r
        r = pmul(r, pinv(lvl.transversal[t]))
    return r


def _build_chain(degree: int, gens: list) -> list[_ChainLevel]:
    """Deterministic Schreier-Sims.

    Base points are forced ascending by always taking the smallest point
    moved by the current stabilizer's generators.  The loop rebuilds the
    chain and re-checks every Schreier generator until all of them sift to
    the identity, which certifies completeness.
    """
    idp = identity(degree)
    strong = []
    for g in gens:
        if g != idp and g not in strong:
            strong.append(g)

    for _round in range(100_000):
        base: list[int] = []
        while True:
            level_gens = [g for g in strong if all(g[b] == b for b in base)]
            if not level_gens:
                break
            base.append(min(min(i for i, j in enumerate(g) if i != j) for g in level_gens))
        levels = []
        for i, b in enumerate(base):
            gs = [g for g in strong if all(g[bb] == bb for bb in base[:i])]
            levels.append(_ChainLevel(b, gs, _orbit_transversal(degree, b, gs)))

        witness = None
        for i, lvl in enumerate(levels):
            for a in sorted(lvl.transversal):
                ua = lvl.transversal[a]
                for g in lvl.gens:
                    s = pmul(ua, g)
                    residue = _sift(pmul(s, pinv(lvl.transversal[s[lvl.point]])), levels, i + 1)
                    if residue != idp:
                        witness = residue
                        break
                if witness:
                    break
            if witness:
                break
        if witness is None:
            return levels
        strong.append(witness)
    raise InternalError("stabilizer chain failed to close")


class Group:
    """Permutation group with a stabilizer-chain certificate.

    Instances are immutable after construction; derived data (elements,
    classes, Sylow subgroups, ...) is computed on demand and cached.
    """

    def __init__(self, degree: int, generators, limits: Limits = DEFAULT_LIMITS):
        if degree < 1:
            raise InputError("degree must be positive")
        gens = [validate_perm(g, degree) for g in generators]
        self.degree = degree
        self.generators = tuple(dict.fromkeys(g for g in gens if g != identity(degree)))
        self.limits = limits
        self._levels = _build_chain(degree, list(self.generators))
        self.order = prod(len(lvl.transversal) for lvl in self._levels)
        if self.order > limits.max_order:
            raise ResourceError(
                f"group order {self.order} exceeds ceiling {limits.max_order}"
            )
        for g in self.generators:
            if not self.contains(g):
                raise InternalError("generator fails membership against its own chain")
        self._cache: dict = {}

    # -- basic structure ---------------------------------------------------

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order})"

    @property
    def identity(self) -> Perm:
        return identity(self.degree)

    def contains(self, p: Perm) -> bool:
        if len(p) != self.degree:
            return False
        return _sift(p, self._levels) == self.identity

    def __contains__(self, p) -> bool:
        return self.contains(tuple(p))

    def base(self) -> list[int]:
        return [lvl.point for lvl in self._levels]

    def transversal_sizes(self) -> list[int]:
        return [len(lvl.transversal) for lvl in self._levels]

    def elements(self) -> tuple:
        """All elements, sorted; cached."""
        if "elements" not in self._cache:
            elems = closure(self.degree, self.generators, max_size=self.limits.max_order)
            if len(elems) != self.order:
                raise InternalError("element closure disagrees with chain order")
            self._cache["elements"] = tuple(sorted(elems))
        return self._cache["elements"]

    def _array(self) -> _ElementArray:
        if "array" not in self._cache:
            self._cache["array"] = _ElementArray(self.elements(), self.degree)
        return self._cache["array"]

    def _subset(self, mask: np.ndarray) -> frozenset:
        """The elements whose indices are set in a boolean mask."""
        elems = self.elements()
        return frozenset(elems[i] for i in np.flatnonzero(mask).tolist())

    def element_set(self) -> frozenset:
        if "element_set" not in self._cache:
            self._cache["element_set"] = frozenset(self.elements())
        return self._cache["element_set"]

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            e = 1
            for c in self.conjugacy_classes():
                o = perm_order(c.rep)
                e = e * o // gcd(e, o)
            self._cache["exponent"] = e
        return self._cache["exponent"]

    def order_p_part(self, p: int) -> int:
        n = self.order
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        return q

    # -- conjugacy classes -------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjClass, ...]:
        """Classes in canonical order: by size, then by minimal representative."""
        if "classes" in self._cache:
            return self._cache["classes"]
        arr = self._array()
        # Conjugation by each generator permutes the element indices; every
        # element's label falls to the least index in its class.
        moves = []
        for g in self.generators:
            ga = arr.perm(g)
            moves.append(arr.index(ga[arr.rows[:, np.argsort(ga)]]))
        label = np.arange(self.order)
        while True:
            new = label
            for move in moves:
                new = np.minimum(new, new[move])
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        members = np.argsort(label, kind="stable")
        reps, starts, sizes = np.unique(label[members], return_index=True,
                                        return_counts=True)
        elems = self.elements()
        class_of = np.empty(self.order, dtype=np.intp)
        classes = []
        for c in np.lexsort((reps, sizes)).tolist():
            size = int(sizes[c])
            if self.order % size:
                raise InternalError("class size does not divide group order")
            orb = members[starts[c]:starts[c] + size]
            class_of[orb] = len(classes)
            orb = tuple(elems[i] for i in orb.tolist())
            classes.append(ConjClass(orb[0], size, self.order // size, orb))
        self._cache["class_of"] = class_of
        self._cache["classes"] = tuple(classes)
        return self._cache["classes"]

    def _class_of(self) -> np.ndarray:
        """Class index of every element index."""
        self.conjugacy_classes()
        return self._cache["class_of"]

    def class_index(self) -> dict:
        """Map element -> index of its conjugacy class."""
        if "class_index" not in self._cache:
            self._cache["class_index"] = dict(
                zip(self.elements(), self._class_of().tolist()))
        return self._cache["class_index"]

    # -- subgroups ----------------------------------------------------------

    def handle(self, elements=None, generators=None) -> "SubgroupHandle":
        """Build a SubgroupHandle from an element set or a generator list."""
        if elements is None:
            if generators is None:
                raise InputError("need elements or generators")
            gens = [validate_perm(g, self.degree) for g in generators]
            for g in gens:
                if not self.contains(g):
                    raise InputError("generator lies outside the ambient group")
            elements = closure(self.degree, gens, max_size=self.limits.max_order)
        else:
            elements = frozenset(tuple(x) for x in elements)
        key = ("handle", elements)
        if key not in self._cache:
            self._cache[key] = SubgroupHandle(self, elements)
        return self._cache[key]

    def trivial_subgroup(self) -> "SubgroupHandle":
        return self.handle(elements=[self.identity])

    def full_subgroup(self) -> "SubgroupHandle":
        return self.handle(elements=self.element_set())

    def normalizer_set(self, sub_elements: frozenset, sub_gens) -> frozenset:
        """Elements g of this group with H^g = H, by generator-image tests."""
        arr = self._array()
        inside = np.fromiter((x in sub_elements for x in self.elements()),
                             dtype=bool, count=self.order)
        mask = np.ones(self.order, dtype=bool)
        for h in sub_gens:
            # row g of the gather is g^-1 h g
            images = np.take_along_axis(arr.rows, arr.perm(h)[arr.inv], axis=1)
            mask &= inside[arr.index(images)]
        return self._subset(mask)

    def normalizer(self, handle: "SubgroupHandle") -> "SubgroupHandle":
        """N_G(H); requires H <= G."""
        if not handle.elements <= self.element_set():
            raise InputError("subgroup is not contained in the ambient group")
        key = ("normalizer", handle.elements)
        if key not in self._cache:
            n_set = self.normalizer_set(handle.elements, handle.generators)
            n = self.handle(elements=n_set)
            if not handle.elements <= n.elements:
                raise InternalError("normalizer does not contain the subgroup")
            self._cache[key] = n
        return self._cache[key]

    def _commutes_with(self, x: Perm) -> np.ndarray:
        """Mask of the elements g with gx = xg."""
        arr = self._array()
        xa = arr.perm(x)
        return (xa[arr.rows] == arr.rows[:, xa]).all(axis=1)

    def centralizer_set(self, x: Perm) -> frozenset:
        return self._subset(self._commutes_with(x))

    def center(self) -> "SubgroupHandle":
        if "center" not in self._cache:
            mask = np.ones(self.order, dtype=bool)
            for h in self.generators:
                mask &= self._commutes_with(h)
            self._cache["center"] = self.handle(elements=self._subset(mask))
        return self._cache["center"]

    def sylow(self, p: int) -> "SubgroupHandle":
        """A Sylow p-subgroup, grown deterministically inside normalizers."""
        key = ("sylow", p)
        if key in self._cache:
            return self._cache[key]
        target = self.order_p_part(p)
        current = frozenset([self.identity])
        gens: list[Perm] = []
        while len(current) < target:
            # Any x in N_G(P) \ P with x^p in P is a p-element; <P, x> has
            # order p*|P| or more and is again a p-group.
            n_set = self.normalizer_set(current, gens or [self.identity])
            grown = False
            for x in sorted(n_set):
                if x in current:
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = pmul(xp, x)
                if xp in current:
                    new = closure(self.degree, gens + [x],
                                  seed=current, max_size=target)
                    if len(new) <= len(current):
                        raise InternalError("Sylow step failed to grow")
                    current = new
                    gens = _generating_subset(self.degree, sorted(current))
                    grown = True
                    break
            if not grown:
                raise InternalError("Sylow construction stalled below target order")
        h = self.handle(elements=current)
        self._cache[key] = h
        return h

    def p_core(self, p: int) -> "SubgroupHandle":
        """O_p(G): the intersection of all Sylow p-subgroups."""
        key = ("p_core", p)
        if key in self._cache:
            return self._cache[key]
        syl = self.sylow(p)
        core = set(syl.elements)
        for conj_set in self.subgroup_orbit(syl.elements):
            core &= conj_set
            if len(core) == 1:
                break
        h = self.handle(elements=frozenset(core))
        self._cache[key] = h
        return h

    def subgroup_orbit(self, elements: frozenset) -> tuple:
        """G-orbit of a subgroup under conjugation, as a tuple of frozensets."""
        key = ("sub_orbit", elements)
        if key in self._cache:
            return self._cache[key]
        seen = {elements}
        queue = [elements]
        while queue:
            s = queue.pop()
            for g in self.generators:
                t = frozenset(conj(x, g) for x in s)
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        orbit = tuple(sorted(seen, key=lambda s: tuple(sorted(s))))
        self._cache[key] = orbit
        return orbit

    def conjugating_element(self, src: frozenset, dst: frozenset) -> Perm | None:
        """Some g in G with src^g = dst, or None."""
        if len(src) != len(dst):
            return None
        src_gens = _generating_subset(self.degree, sorted(src))
        for g in self.elements():
            if all(conj(x, g) in dst for x in src_gens):
                return g
        return None

    def subgroup_group(self, handle: "SubgroupHandle") -> "Group":
        """The subgroup as a Group in its own right (same degree); cached."""
        key = ("sub_group", handle.elements)
        if key not in self._cache:
            g = Group(self.degree, handle.generators, limits=self.limits)
            if g.order != handle.order:
                raise InternalError("subgroup group has wrong order")
            # _generating_subset checked that handle.generators span handle.elements
            g._cache["elements"] = tuple(sorted(handle.elements))
            self._cache[key] = g
        return self._cache[key]

    def is_normal(self, handle: "SubgroupHandle") -> bool:
        return all(
            conj(h, g) in handle.elements
            for g in self.generators
            for h in handle.generators
        ) and handle.elements <= self.element_set()

    # -- p-subgroup enumeration ---------------------------------------------

    def p_subgroup_classes(self, p: int) -> tuple["SubgroupHandle", ...]:
        """One handle per G-class of p-subgroups, sorted by order then key.

        Strategy: every p-subgroup lies in a Sylow p-subgroup, so enumerate
        all subgroups of one Sylow subgroup bottom-up and fuse the result
        under G-conjugacy.
        """
        key = ("p_classes", p)
        if key in self._cache:
            return self._cache[key]
        syl = self.sylow(p)
        all_subs = _subgroups_of_p_group(self.degree, syl.elements, p,
                                         self.limits.max_p_subgroup_classes)
        remaining = set(all_subs)
        handles = []
        while remaining:
            s = min(remaining, key=lambda fs: tuple(sorted(fs)))
            orbit = self.subgroup_orbit(s)
            remaining -= set(orbit)
            h = self.handle(elements=orbit[0])
            h._class_orbit = orbit
            h._class_size = len(orbit)
            handles.append(h)
            if len(handles) > self.limits.max_p_subgroup_classes:
                raise ResourceError("p-subgroup class ceiling exceeded")
        handles.sort(key=lambda h: (h.order, h.canonical_key))
        self._cache[key] = tuple(handles)
        return self._cache[key]


def _generating_subset(degree: int, elements_sorted) -> list:
    """Small deterministic generating set drawn from a sorted subgroup list."""
    gens: list[Perm] = []
    current = frozenset([identity(degree)])
    total = len(elements_sorted)
    for x in elements_sorted:
        if len(current) == total:
            break
        if x in current:
            continue
        gens.append(x)
        current = closure(degree, gens, seed=current)
    if current != frozenset(elements_sorted):
        raise InternalError("element set is not the subgroup its generators span")
    return gens


def _subgroups_of_p_group(degree: int, elements: frozenset, p: int, ceiling: int):
    """All subgroups of a p-group, as frozensets, by bottom-up extension.

    Every subgroup of order p^(k+1) contains a normal subgroup of index p,
    so it arises as <Q, x> with x in N_P(Q) \\ Q and x^p in Q.
    """
    idp = identity(degree)
    elems = sorted(elements)
    levels = [{frozenset([idp])}]
    found = {frozenset([idp])}
    while True:
        nxt = set()
        for q in levels[-1]:
            q_gens = _generating_subset(degree, sorted(q))
            norm = [x for x in elems
                    if all(conj(h, x) in q for h in q_gens)] if q_gens else elems
            for x in norm:
                if x in q:
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = pmul(xp, x)
                if xp not in q:
                    continue
                r = closure(degree, q_gens + [x], seed=q)
                if len(r) != len(q) * p:
                    raise InternalError("p-group extension has unexpected order")
                nxt.add(r)
                if len(found) + len(nxt) > ceiling * 64:
                    raise ResourceError("p-subgroup enumeration ceiling exceeded")
        if not nxt:
            break
        found |= nxt
        levels.append(nxt)
    return found


class SubgroupHandle:
    """A subgroup of a fixed ambient group.

    Carries the element set, a small deterministic generating set, and a
    canonical key that is invariant under ambient conjugacy (the minimal
    sorted element tuple over all conjugates), used for orbit fusion.
    """

    __slots__ = ("ambient", "elements", "order", "generators",
                 "_canonical_key", "_class_orbit", "_class_size")

    def __init__(self, ambient: Group, elements: frozenset):
        elements = frozenset(elements)
        if not elements:
            raise InputError("a subgroup needs at least the identity")
        self.ambient = ambient
        self.elements = elements
        self.order = len(elements)
        if ambient.order % self.order:
            raise InputError("subgroup order does not divide the ambient order")
        self.generators = tuple(_generating_subset(ambient.degree, sorted(elements)))
        self._canonical_key = None
        self._class_orbit = None
        self._class_size = None

    def __repr__(self) -> str:
        gens = ", ".join(format_cycles(g) for g in self.generators) or "()"
        return f"SubgroupHandle(order={self.order}, gens=[{gens}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupHandle) and self.elements == other.elements \
            and self.ambient is other.ambient

    def __hash__(self) -> int:
        return hash(self.elements)

    @property
    def canonical_key(self) -> tuple:
        if self._canonical_key is None:
            orbit = self.ambient.subgroup_orbit(self.elements)
            self._canonical_key = min(tuple(sorted(s)) for s in orbit)
            self._class_orbit = orbit
            self._class_size = len(orbit)
        return self._canonical_key

    @property
    def class_orbit(self) -> tuple:
        if self._class_orbit is None:
            self.canonical_key
        return self._class_orbit

    @property
    def class_size(self) -> int:
        if self._class_size is None:
            self.canonical_key
        return self._class_size

    def conjugate(self, g: Perm) -> "SubgroupHandle":
        return self.ambient.handle(elements=frozenset(conj(x, g) for x in self.elements))

    def normalizer(self) -> "SubgroupHandle":
        return self.ambient.normalizer(self)

    def is_p_group(self, p: int) -> bool:
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def contains(self, other: "SubgroupHandle") -> bool:
        return other.elements <= self.elements

    def as_group(self) -> Group:
        return self.ambient.subgroup_group(self)

    def intersection(self, other: "SubgroupHandle") -> "SubgroupHandle":
        return self.ambient.handle(elements=self.elements & other.elements)


def group_from_generators(degree: int, gens, limits: Limits = DEFAULT_LIMITS) -> Group:
    """Public constructor mirroring the group-definition file contents."""
    return Group(degree, gens, limits=limits)
