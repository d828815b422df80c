"""Chain oracles and chain helpers that only the tests use.

``all_subgroup_chains_brute`` lists every normal p-chain, not orbits.
``local_extensions`` is the extension step worked out in the stabilizer H
as a group of its own, from H's p-subgroup classes.  ``candidate_extensions``
and ``fuse_under_group`` are the extension step as it once ran before that:
collect every p-subgroup of H above the final term, then fuse the
collection under H-conjugation.  ``oracle_child_orbit`` is the child lookup
as it once ran: a scan of the orbits after the parent with one transporter
per candidate child.  The rest are the chain surgery and second-term
transport helpers that the chain and invariant tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pblocks.blocks import Block, brauer_induce, p_blocks
from pblocks.chains import PChain, PairSet, pair_set
from pblocks.chartable import character_table
from pblocks.errors import InputError, InternalError
from pblocks.groups import Group, SubgroupHandle

from kernel_oracles import conj, generating_subset, index_set, perm_set


# -- oracles ------------------------------------------------------------------------


def all_subgroup_chains_brute(G: Group, start: frozenset, p: int):
    """Every normal p-chain from ``start``, as tuples of frozensets of
    elements.

    Test oracle only: enumerates actual chains (not orbits) by expanding all
    p-subgroups of G.  Exponential; use on groups of order <= 200.
    """
    subs = []
    for h in G.p_subgroup_classes(p):
        subs.extend(perm_set(G, s) for s in h.class_orbit)
    chains = []

    def extend(chain):
        chains.append(chain)
        last = chain[-1]
        for s in subs:
            if len(s) <= len(last) or not last < s:
                continue
            # normal chain: every earlier term must be normal in the new
            # final term
            s_gens = generating_subset(G.degree, sorted(s))
            ok = all(
                conj(t, g) in term
                for term in chain
                for term_gens in [generating_subset(G.degree, sorted(term))]
                for t in term_gens
                for g in s_gens
            )
            if ok:
                extend(chain + (s,))

    extend((start,))
    return chains


def local_extensions(H: Group, final: frozenset, p: int) -> list:
    """(t, N_H(t)) for the representative t of each H-class of p-subgroups
    above ``final``, in the order of ``H.p_subgroup_classes(p)``; the
    normalizers are handles of H."""
    out = []
    for cls in H.p_subgroup_classes(p):
        if cls.order <= len(final):
            continue
        above = [final < s for s in cls.class_orbit]
        if any(above) != all(above):
            raise InternalError("p-subgroup class lies only partly above the final term")
        if all(above):
            out.append((cls.elements, H.normalizer(cls)))
    return out


def candidate_extensions(H: Group, final: frozenset, p: int) -> list:
    """Every p-subgroup of H strictly above ``final``, as frozensets."""
    candidates = []
    for cls in H.p_subgroup_classes(p):
        if cls.order <= len(final):
            continue
        for s in cls.class_orbit:
            if final < s:
                candidates.append(s)
    return candidates


def fuse_under_group(H: Group, candidate_sets) -> list:
    """Canonical orbit representatives of subgroup sets (element indices of
    H) under H-conjugation, found by conjugating the elements themselves.

    The candidate family must be closed under H (true for extensions of a
    chain by construction); a conjugate escaping the family is a bug.
    """
    candidate_sets = [perm_set(H, s) for s in candidate_sets]
    pending = set(candidate_sets)
    reps = []
    universe = set(candidate_sets)
    while pending:
        s = min(pending, key=lambda fs: tuple(sorted(fs)))
        orbit = {s}
        queue = [s]
        while queue:
            t = queue.pop()
            for g in H.generators:
                u = frozenset(conj(x, g) for x in t)
                if u not in orbit:
                    if u not in universe:
                        raise InternalError("conjugate left the extension family")
                    orbit.add(u)
                    queue.append(u)
        reps.append(s)
        pending -= orbit
    reps.sort(key=lambda fs: (len(fs), tuple(sorted(fs))))
    return [index_set(H, s) for s in reps]


def oracle_child_orbit(G: Group, orbits, ci: int, inside: np.ndarray) -> tuple[int, int]:
    """(j, g) for the child j of orbit ``ci`` whose final term is conjugate
    to the subgroup K marked by ``inside``, and the index g of an element of
    ci's stabilizer with final_j^g = K.

    K must be a p-subgroup of ci's stabilizer above ci's final term.  The
    children of ci are the stabilizer classes of such subgroups, so exactly
    one matches; in the canonical order every child follows its parent.
    """
    among = sorted(orbits[ci].stabilizer.elements)
    order = np.count_nonzero(inside)
    for j in range(ci + 1, len(orbits)):
        final = orbits[j].chain.final
        if orbits[j].parent == ci and final.order == order:
            mask = G._transporter(final.generators, inside, among)
            if mask.any():
                return j, among[int(np.argmax(mask))]
    raise InternalError("subgroup is conjugate to no child of the chain orbit")


# -- chain surgery and second-term transport ---------------------------------------


def delete_first_term(chain: PChain) -> PChain:
    """Drop the start term; the result starts at the old second term."""
    if chain.length < 1:
        raise InputError("cannot delete the only term of a chain")
    return PChain(chain.terms[1:])


def prepend_first_term(chain: PChain, U: SubgroupHandle) -> PChain:
    """Inverse of delete_first_term."""
    return PChain((U,) + chain.terms)


def append_final_term(chain: PChain, D: SubgroupHandle) -> PChain:
    """Extend by a new final term; every old term must be normal in it."""
    final = chain.final
    if not final.elements < D.elements:
        raise InputError("new final term must strictly contain the old one")
    for t in chain.terms:
        if not D.elements <= t.normalizer().elements:
            raise InputError("new final term does not normalize every chain term")
    return PChain(chain.terms + (D,))


def intermediate_subgroup_classes(G: Group, U: SubgroupHandle, D: SubgroupHandle,
                                  p: int) -> tuple[SubgroupHandle, ...]:
    """G-classes of p-subgroups Q with U < Q^g < D for some g."""
    if not (U.is_p_group(p) and D.is_p_group(p)):
        raise InputError("bounds must be p-subgroups")
    if not U.elements < D.elements:
        raise InputError("need U strictly below D")
    if not G.is_normal(U):
        raise InputError("lower bound must be normal in the ambient group")
    out = []
    for cls in G.p_subgroup_classes(p):
        if not U.order < cls.order < D.order:
            continue
        if any(U.elements < s < D.elements for s in cls.class_orbit):
            out.append(cls)
    return tuple(out)


def chain_conjugate_into(G: Group, chain: PChain, D: SubgroupHandle):
    """Some g with every term of chain^g inside D, or None."""
    terms = [perm_set(G, t.elements) for t in chain.terms]
    target = perm_set(G, D.elements)
    for g in G.elements():
        if all(frozenset(conj(x, g) for x in t) <= target for t in terms):
            return g
    return None


@dataclass(frozen=True)
class SecondTermSplit:
    """Pair orbits split by whether the chain's second term is conjugate to Q."""

    q: SubgroupHandle
    matched_plus: tuple
    matched_minus: tuple
    rest_plus: tuple
    rest_minus: tuple


def second_term_partition(S: PairSet, Q: SubgroupHandle) -> SecondTermSplit:
    """Split S by the G-class of the second chain term."""
    if Q.elements <= S.start.elements:
        raise InputError("Q must strictly contain the chain start")
    if not S.start.elements < Q.elements:
        raise InputError("Q must contain the chain start")
    qkey = Q.canonical_key
    matched_p, matched_m, rest_p, rest_m = [], [], [], []
    for pair in S.plus:
        chain = S.orbits[pair[0]].chain
        hit = chain.length >= 1 and chain.terms[1].canonical_key == qkey
        (matched_p if hit else rest_p).append(pair)
    for pair in S.minus:
        chain = S.orbits[pair[0]].chain
        hit = chain.length >= 1 and chain.terms[1].canonical_key == qkey
        (matched_m if hit else rest_m).append(pair)
    return SecondTermSplit(Q, tuple(matched_p), tuple(matched_m),
                           tuple(rest_p), tuple(rest_m))


def second_term_blocks(G: Group, B: Block, Q: SubgroupHandle, d: int) -> tuple:
    """Blocks b of N_G(Q) with b^G = B and d(b) = d."""
    N = G.normalizer(Q).as_group()
    table = character_table(N)
    return tuple(
        b for b in p_blocks(table, B.p)
        if b.defect == d and brauer_induce(b, G) == B
    )


def local_second_term_sets(G: Group, B: Block, Q: SubgroupHandle, d: int) -> tuple:
    """The pair sets of N_G(Q) over the blocks inducing to B, start Q.

    Together with :func:`second_term_partition` this realizes the sign
    flipping transport: deleting the start term from a chain with second
    term Q yields a chain of N_G(Q) starting at Q, and the pair-orbit counts
    transport with the sign reversed.
    """
    N = G.normalizer(Q).as_group()
    nq = N.handle(generators=Q.generators)
    return tuple(
        pair_set(N, b, nq, d) for b in second_term_blocks(G, B, Q, d)
    )
