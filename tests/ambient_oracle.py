"""The ambient action A_B on signed pairs, on tuple elements.

This is how ``pblocks.conjectures`` computed the orbit-size multisets of
``--ambient`` before it acted through index maps: conjugation by tuple
products, class lookups in a dict over every element, and A_B as a second
Schreier-Sims group built from the Schreier generators of the block orbit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from pblocks.chartable import character_table
from pblocks.errors import InputError, InternalError
from pblocks.groups import Group, _member_mask
from pblocks.perms import pinv, pmul

from kernel_oracles import class_index, conj

class_index = lru_cache(maxsize=64)(class_index)  # one dict per group


def row_action(Gt, a) -> list[int]:
    """Row permutation of G's table induced by conjugation with a."""
    ai = pinv(a)
    idx = class_index(Gt.group)
    col_perm = [idx[conj(c.rep, ai)] for c in Gt.classes]
    return [Gt.row_index_of_values(Gt.values[i][col_perm]) for i in range(Gt.r)]


def block_stabilizer(A: Group, G: Group, B) -> Group:
    """A_B, via orbit and Schreier generators on the set of blocks."""
    if not frozenset(G.elements()) <= frozenset(A.elements()):
        raise InputError("G must be contained in the ambient group")
    if not A.is_normal(A.handle(generators=G.generators)):
        raise InputError("G must be normal in the ambient group")
    Gt = B.table
    start = frozenset(B.members)
    transversal = {start: A.identity}
    queue = [start]
    schreier = []
    while queue:
        s = queue.pop(0)
        u = transversal[s]
        for g in A.generators:
            ra = row_action(Gt, g)
            t = frozenset(ra[i] for i in s)
            ug = pmul(u, g)
            if t not in transversal:
                transversal[t] = ug
                queue.append(t)
            else:
                schreier.append(pmul(ug, pinv(transversal[t])))
    stab = Group(A.degree, schreier, limits=A.limits)
    if stab.order * len(transversal) != A.order:
        raise InternalError("block stabilizer has wrong order")
    return stab


def ambient_orbit_sizes(G: Group, A: Group, B, S):
    """Orbit-size multisets of the A_B action on the signed pair orbits."""
    stab = block_stabilizer(A, G, B)
    return (_orbit_sizes_on_pairs(G, S, S.plus, stab),
            _orbit_sizes_on_pairs(G, S, S.minus, stab))


def _orbit_sizes_on_pairs(G: Group, S, pairs, stab: Group):
    index = {pr: n for n, pr in enumerate(pairs)}
    n = len(pairs)
    adj = [set() for _ in range(n)]
    chain_transport: dict = {}
    for a in stab.generators:
        for pos, pr in enumerate(pairs):
            target = _pair_image(G, S, pr, a, chain_transport)
            if target not in index:
                raise InternalError("ambient action left the pair set")
            adj[pos].add(index[target])
            adj[index[target]].add(pos)
    seen = [False] * n
    sizes = []
    for i in range(n):
        if seen[i]:
            continue
        comp = [i]
        seen[i] = True
        for j in comp:
            for k in adj[j]:
                if not seen[k]:
                    seen[k] = True
                    comp.append(k)
        sizes.append(len(comp))
    return sizes


def _pair_image(G: Group, S, pr: tuple, a, cache: dict):
    """The (chain index, char index) of (sigma, theta)^a."""
    ci, i = pr
    if (ci, a) not in cache:
        cache[ci, a] = _chain_image(G, S, ci, a)
    j, m = cache[ci, a]
    src = S.orbits[ci].stabilizer.as_group()
    src_table = character_table(src)
    dst_table = character_table(S.orbits[j].stabilizer.as_group())
    mi = pinv(m)
    src_idx = class_index(src)
    col = [src_idx[conj(c.rep, mi)] for c in dst_table.classes]
    return (j, dst_table.row_index_of_values(src_table.values[i][col]))


def _chain_image(G: Group, S, ci: int, a):
    """(orbit index j, m = a*g) with chain_ci^m equal to the stored rep j."""
    src = S.orbits[ci].chain
    conj_gens = [[conj(x, a) for x in t.generators] for t in src.terms]
    profile = tuple(t.order for t in src.terms)
    for j, o in enumerate(S.orbits):
        if tuple(t.order for t in o.chain.terms) != profile:
            continue
        mask = np.ones(G.order, dtype=bool)
        for gens, t in zip(conj_gens, o.chain.terms):
            mask &= G._transporter(gens, _member_mask(G.order, t.elements))
        if mask.any():
            return j, pmul(a, G.elements()[int(np.argmax(mask))])
    raise InternalError("conjugated chain matches no stored orbit")
