"""Normal p-chains up to conjugacy and the signed chain/character pair sets.

A normal p-chain is a strictly increasing sequence of p-subgroups starting
at a designated normal start term, with every term normal in the final term.
Equivalently (and this is what the enumeration uses) every extension term
must normalize all earlier terms, i.e. lie in the chain stabilizer.

The extensions of a chain sigma up to conjugacy are the G_sigma-classes of
p-subgroups of G_sigma strictly containing the final term, so they depend
only on the state (G_sigma, final term).  :func:`_state_graph` walks these
states once; enumeration expands it into the tree of chain orbits, whose
distinct nodes are never conjugate (an irredundant transversal by
construction), and counting folds it state by state.  The p-subgroups of
every stabilizer are read from G's p-subgroup lattice, in G's element
indices, through one view per distinct stabilizer.  A chain is located
among the stored orbits by walking the tree down from the start chain:
:func:`_child_orbit` names each next child by the least row of its
stabilizer orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import Block, block_of, brauer_induce, p_blocks
from .chartable import CharTable, _check_prime, character_table, defects
from .cyclotomic import _nu
from .errors import InputError, InternalError, ResourceError
from .groups import Group, SubgroupHandle, _cached, _fuse, _member_mask

__all__ = [
    "PChain",
    "ChainOrbit",
    "PairSet",
    "enumerate_chain_orbits",
    "signed_pair_counts",
    "pair_set",
]


@dataclass(frozen=True)
class PChain:
    """A normal p-chain; terms are subgroup handles of a fixed ambient group."""

    terms: tuple

    def __post_init__(self):
        for a, b in zip(self.terms, self.terms[1:]):
            if not a.elements < b.elements:
                raise InputError("chain terms must be strictly increasing")

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    @property
    def sign(self) -> int:
        return -1 if self.length % 2 else 1

    @property
    def final(self) -> SubgroupHandle:
        return self.terms[-1]

    def __repr__(self) -> str:
        return "PChain(" + " < ".join(str(t.order) for t in self.terms) + ")"


@dataclass(frozen=True)
class ChainOrbit:
    """A G-orbit of normal p-chains: canonical representative plus stabilizer."""

    index: int
    chain: PChain
    stabilizer: SubgroupHandle
    orbit_size: int
    sign: int
    parent: int | None  # orbit of the chain with the final term deleted
    children: tuple  # orbits whose parent this is, ascending; () for a leaf

    def __repr__(self) -> str:
        return (f"ChainOrbit({self.chain!r}, sign={'+' if self.sign > 0 else '-'}, "
                f"stab={self.stabilizer.order})")


def _check_start(G: Group, Z: SubgroupHandle, p: int) -> None:
    _check_prime(p)
    if not Z.is_p_group(p):
        raise InputError("chain start must be a p-group")
    if not G.is_normal(Z):
        raise InputError("chain start must be normal in the ambient group")


def _lattice_view(G: Group, stab: SubgroupHandle, p: int) -> list:
    """(rows, labels, single) per order: the rows of G's p-subgroup lattice
    inside H = ``stab``, in lattice order, fused under H's generators by
    :func:`~pblocks.groups._fuse` (for H = G, the lattice itself), and
    whether each row's H-class is that row alone, i.e. normal in H."""
    if stab.order == G.order:
        levels = G._p_lattice(p)
    else:
        inside = _member_mask(G.order, stab.elements)
        moves = [G._conj_move(g) for g in stab.generators]
        levels = []
        for level, _ in G._p_lattice(p):
            rows = level[inside[level].all(axis=1)]
            if len(rows):
                levels.append((rows, _fuse(rows, moves)))
    return [(rows, labels, np.bincount(labels)[labels] == 1) for rows, labels in levels]


def _extensions(G: Group, stab: SubgroupHandle, view: list, final: frozenset) -> list:
    """(t, N_H(t)) for the representative t of each H-class of p-subgroups
    of H = ``stab`` above ``final``, by order and then least row.

    This is the extension step of :func:`_state_graph`, read once per state
    from H's :func:`_lattice_view`.  The candidates are the rows of the view
    above ``final``, and each class is represented by its least member.  H
    is the stabilizer of a chain with final term ``final``, so it normalizes
    ``final`` and each H-class lies above it wholly or not at all.  A class
    of one row is normal in H; any other t takes N_G(t) inside H.
    """
    below = _member_mask(G.order, final)
    out = []
    for rows, labels, single in view:
        if rows.shape[1] <= len(final):
            continue
        cand = below[rows].sum(axis=1) == len(final)
        if not np.array_equal(cand[labels], cand):
            raise InternalError("p-subgroup class lies only partly above the final term")
        for i in np.flatnonzero(cand & (labels == np.arange(len(rows)))).tolist():
            t = frozenset(rows[i].tolist())
            if single[i]:
                out.append((t, stab))
            else:
                n = G.normalizer(G.handle(elements=t))
                out.append((t, G.handle(elements=n.elements & stab.elements)))
    return out


class _State(NamedTuple):
    """Chains with one stabilizer and final term have one subtree of orbits."""

    stabilizer: SubgroupHandle
    final: frozenset  # element indices of the final term
    children: tuple  # (t, child state index) per extension, as _extensions lists them
    orbits: int  # chain orbits in the subtree, this chain's own included


@_cached
def _state_graph(G: Group, Z: SubgroupHandle, p: int) -> tuple[_State, ...]:
    """The states (stabilizer, final term) of the normal p-chains from Z,
    each once and after its children, so the start state (G, Z) comes last.
    The ``max_chain_orbits`` ceiling is raised as soon as a state's orbit
    count, summed child by child, exceeds it: exactly when the chain orbits
    from Z number more than the ceiling."""
    _check_start(G, Z, p)
    limit = G.limits.max_chain_orbits
    states, index, views = [], {}, {}  # views: one _lattice_view per stabilizer

    def visit(stab: SubgroupHandle, final: frozenset) -> int:
        key = (stab.elements, final)
        if key not in index:
            if stab.elements not in views:
                views[stab.elements] = _lattice_view(G, stab, p)
            children, orbits = [], 1
            for t, n_in_stab in _extensions(G, stab, views[stab.elements], final):
                child = visit(n_in_stab, t)
                children.append((t, child))
                orbits += states[child].orbits
                if orbits > limit:
                    raise ResourceError(f"chain orbit count reached {orbits}, above the "
                                        f"ceiling max_chain_orbits = {limit}")
            index[key] = len(states)
            states.append(_State(stab, final, tuple(children), orbits))
        return index[key]

    visit(G.full_subgroup(), Z.elements)
    return tuple(states)


@_cached
def enumerate_chain_orbits(G: Group, Z: SubgroupHandle, p: int) -> tuple[ChainOrbit, ...]:
    """Transversal of the G-orbits of normal p-chains starting at Z; cached on G.

    Output order is canonical: by length, then term orders, then the
    conjugacy-canonical keys of the terms.
    """
    graph = _state_graph(G, Z, p)
    nodes = []  # (terms, stabilizer handle, parent node index), in preorder
    stack = [((Z,), len(graph) - 1, None)]
    while stack:
        terms, state, parent = stack.pop()
        stack.extend((terms + (G.handle(elements=t),), child, len(nodes))
                     for t, child in reversed(graph[state].children))
        nodes.append((terms, graph[state].stabilizer, parent))

    def sort_key(i):
        terms = nodes[i][0]
        return (len(terms), tuple(t.order for t in terms),
                tuple(t.canonical_key for t in terms))

    order = sorted(range(len(nodes)), key=sort_key)
    position = {old: new for new, old in enumerate(order)}
    kids = {}  # the children of each orbit that is not a leaf
    for old in order[1:]:  # the start chain alone has no parent
        kids.setdefault(position[nodes[old][2]], []).append(position[old])
    orbits = []
    for old, new in position.items():  # in index order; kids holds these same int objects
        terms, stab, parent = nodes[old]
        if G.order % stab.order:
            raise InternalError("chain stabilizer order does not divide |G|")
        chain, children = PChain(terms), tuple(kids.pop(new, ()))
        orbits.append(ChainOrbit(index=new, chain=chain, stabilizer=stab, sign=chain.sign,
                                 orbit_size=G.order // stab.order, children=children,
                                 parent=None if parent is None else position[parent]))
    return tuple(orbits)


def _child_orbit(G: Group, orbits, ci: int, K) -> int:
    """The child of orbit ``ci`` whose final term is conjugate to K, the
    element indices of a p-subgroup above ci's final term, under ci's
    stabilizer H: its final term is the least row of K's H-orbit, as
    :func:`_extensions` picks each child's final term."""
    moves = [G._conj_move(g) for g in orbits[ci].stabilizer.generators]
    row = np.array(sorted(K), dtype=G._array().idx)[None, :]
    least = frozenset(G._index_orbit(row, moves)[0].tolist())
    for j in orbits[ci].children:
        if orbits[j].chain.final.elements == least:
            return j
    raise InternalError("subgroup is conjugate to no child of the chain orbit")


def signed_pair_counts(G: Group, U: SubgroupHandle, p: int) -> tuple[tuple, int]:
    """Block-free signed pair counts at every defect, without listing chains.

    Returns ``(counts, orbits)``: ``counts[f]`` equals
    ``pair_set(G, "all", U, f, p=p).counts`` for f = 0..nu_p(|G|), and
    ``orbits`` equals ``len(enumerate_chain_orbits(G, U, p))``.

    The counts below a chain depend only on its state (H, s) in
    :func:`_state_graph`: F(H, s) is the defect histogram of Irr(H) plus the
    parity-swapped sum of F over the children, so one pass over the states,
    children first, folds them all.
    """
    graph = _state_graph(G, U, p)  # before _nu, which needs a prime
    d = _nu(G.order, p)
    folds = []  # (same-sign, opposite-sign) defect histograms, one per state
    for state in graph:
        own = [0] * (d + 1)
        for f in defects(character_table(state.stabilizer.as_group()), p):
            own[f] += 1
        below = [folds[child] for _, child in state.children]  # their signs swap
        folds.append(([sum(col) for col in zip(own, *(o for _, o in below))],
                      [sum(col) for col in zip([0] * (d + 1), *(s for s, _ in below))]))
    plus, minus = folds[-1]
    return tuple(zip(plus, minus)), graph[-1].orbits


# -- signed pair sets ---------------------------------------------------------------


@dataclass(frozen=True)
class PairSet:
    """The signed pair families for (block, start, defect).

    G-orbits of (chain, character) pairs over a fixed representative chain
    correspond one to one with characters of the stabilizer, because inner
    conjugation fixes each character of the stabilizer.  So ``chars[i]``,
    the ascending indices of the eligible stabilizer characters of orbit i,
    lists the pairs over that orbit.
    """

    group: Group
    p: int
    block: Block | None  # None = block-free mode
    start: SubgroupHandle
    d: int
    orbits: tuple  # tuple[ChainOrbit]
    chars: tuple  # tuple[tuple[int, ...]], one per orbit

    def _pairs(self, sign: int) -> tuple:
        return tuple((o.index, i) for o, chars in zip(self.orbits, self.chars)
                     if o.sign == sign for i in chars)

    @property
    def plus(self) -> tuple:
        """(chain index, char index) of each pair on an even-length chain."""
        return self._pairs(1)

    @property
    def minus(self) -> tuple:
        """The same on an odd-length chain."""
        return self._pairs(-1)

    @property
    def counts(self) -> tuple[int, int]:
        plus = minus = 0
        for o, chars in zip(self.orbits, self.chars):
            if o.sign > 0:
                plus += len(chars)
            else:
                minus += len(chars)
        return (plus, minus)

    def stabilizer_table(self, chain_index: int) -> CharTable:
        return character_table(self.orbits[chain_index].stabilizer.as_group())


@_cached
def _stabilizer_rows(G: Group, stab: SubgroupHandle, p: int) -> tuple:
    """(char index, defect, induced block of G or None) for each character
    of the stabilizer, in index order; cached on G."""
    table = character_table(stab.as_group())
    induced = {b.index: brauer_induce(b, G) for b in p_blocks(table, p)}
    return tuple(
        (i, defect, induced[block_of(table, p, i).index])
        for i, defect in enumerate(defects(table, p))
    )


def pair_set(G: Group, block, Z: SubgroupHandle, d: int, p: int | None = None) -> PairSet:
    """Build the signed pair set for a block (or "all" for block-free mode).

    Pairs are (chain orbit, character of the chain stabilizer) with the
    character's defect computed inside the stabilizer equal to d, and, in
    blockwise mode, inducing to the given block.
    """
    if isinstance(block, Block):
        p = block.p
        if block.table.group is not G:
            raise InputError("block does not belong to this group")
    elif isinstance(block, str) and block == "all":
        if p is None:
            raise InputError("block-free mode needs an explicit prime")
        block = None
    else:
        raise InputError("block must be a Block or 'all'")
    if d < 0:
        raise InputError("defect must be non-negative")

    orbits = enumerate_chain_orbits(G, Z, p)
    eligible = {}  # stabilizer elements -> eligible character indices
    for orb in orbits:
        if orb.stabilizer.elements not in eligible:
            eligible[orb.stabilizer.elements] = tuple(
                i for i, defect, target in _stabilizer_rows(G, orb.stabilizer, p)
                if defect == d and (block is None or target == block))
    return PairSet(
        group=G,
        p=p,
        block=block,
        start=Z,
        d=d,
        orbits=orbits,
        chars=tuple(eligible[orb.stabilizer.elements] for orb in orbits),
    )
