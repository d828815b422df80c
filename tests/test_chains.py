"""Chain enumeration against brute force, plus the pair-set machinery.

The oracle enumerates every normal p-chain of the group (not orbits) and
checks that orbit sizes account for all of them, sign by sign.
"""

import signal

import pytest

from chain_oracles import (
    all_subgroup_chains_brute,
    append_final_term,
    candidate_extensions,
    delete_first_term,
    fuse_under_group,
    intermediate_subgroup_classes,
    local_extensions,
    local_second_term_sets,
    oracle_child_orbit,
    prepend_first_term,
    second_term_blocks,
    second_term_partition,
)
from kernel_oracles import conj, index_set, perm_set, relabelled
from pblocks.blocks import p_blocks
from pblocks.chains import (
    _child_orbit,
    _extensions,
    _lattice_view,
    _stabilizer_rows,
    _state_graph,
    chain_orbits_cached,
    enumerate_chain_orbits,
    pair_set,
    signed_pair_counts,
)
from pblocks.chartable import character_table
from pblocks.config import Limits
from pblocks.errors import InputError, InternalError, ResourceError
from pblocks.groups import _member_mask
from pblocks.library import acceptance_corpus, library_group
from pblocks.perms import parse_cycles


def test_a5_chain_orbits(grp):
    A5 = grp("A5")
    orbits = enumerate_chain_orbits(A5, A5.trivial_subgroup(), 2)
    data = [([t.order for t in o.chain.terms], o.sign, o.stabilizer.order,
             o.orbit_size) for o in orbits]
    assert data == [
        ([1], 1, 60, 1),
        ([1, 2], -1, 4, 15),
        ([1, 4], -1, 12, 5),
        ([1, 2, 4], 1, 4, 15),
    ]
    assert orbits[3].parent == 1
    assert orbits[1].parent == 0 and orbits[2].parent == 0


def test_s3_chain_orbits(grp):
    S3 = grp("S3")
    orbits = enumerate_chain_orbits(S3, S3.trivial_subgroup(), 3)
    assert [([t.order for t in o.chain.terms], o.sign) for o in orbits] == [
        ([1], 1), ([1, 3], -1)]


def test_degenerate_start_is_single_chain(grp):
    C2 = grp("C2")
    z = C2.full_subgroup()
    orbits = enumerate_chain_orbits(C2, z, 2)
    assert len(orbits) == 1 and orbits[0].sign == 1


def test_start_must_be_normal_p_subgroup(grp):
    A5 = grp("A5")
    with pytest.raises(InputError):
        enumerate_chain_orbits(A5, A5.sylow(2), 2)  # not normal
    with pytest.raises(InputError):
        enumerate_chain_orbits(A5, A5.handle(
            generators=[parse_cycles("(0 1 2)", 5)]), 2)  # not normal, not 2-group


@pytest.mark.parametrize("name,p", [
    ("S4", 2), ("A5", 2), ("S3", 3), ("A4", 2), ("D6", 2), ("SL23", 2),
    ("Q8", 2), ("F20", 2), ("C2xC2xC2", 2),
])
def test_orbit_sizes_cover_all_chains(grp, name, p):
    G = grp(name)
    orbits = enumerate_chain_orbits(G, G.trivial_subgroup(), p)
    brute = all_subgroup_chains_brute(G, frozenset([G.identity]), p)
    by_sign = {1: 0, -1: 0}
    for ch in brute:
        by_sign[-1 if (len(ch) - 1) % 2 else 1] += 1
    ours = {1: 0, -1: 0}
    for o in orbits:
        ours[o.sign] += o.orbit_size
    assert ours == by_sign
    # each brute chain is conjugate to exactly one orbit representative
    total = sum(o.orbit_size for o in orbits)
    assert total == len(brute)


def test_stabilizer_contains_final_term_and_centralizer(grp):
    for name, p in [("S4", 2), ("A5", 2), ("SL23", 2)]:
        G = grp(name)
        for o in enumerate_chain_orbits(G, G.trivial_subgroup(), p):
            final = o.chain.final
            assert final.elements <= o.stabilizer.elements
            if final.generators:
                cent = frozenset.intersection(*[
                    frozenset(G.centralizer_set(x)) for x in final.generators
                ])
            else:
                cent = frozenset(range(G.order))
            assert cent <= o.stabilizer.elements


def test_delete_and_append(grp):
    A5 = grp("A5")
    orbits = enumerate_chain_orbits(A5, A5.trivial_subgroup(), 2)
    full = orbits[3].chain  # 1 < C2 < V4
    dropped = delete_first_term(full)
    assert [t.order for t in dropped.terms] == [2, 4]
    assert prepend_first_term(dropped, full.terms[0]).terms == full.terms
    with pytest.raises(InputError):
        delete_first_term(orbits[0].chain)
    # appending the final term back onto the prefix
    prefix = orbits[1].chain  # 1 < C2
    v4 = full.terms[-1]
    c2 = full.terms[1]
    if prefix.terms[1].elements == c2.elements:
        rebuilt = append_final_term(prefix, v4)
        assert rebuilt.terms == full.terms
    # a new final term must strictly contain the old one
    with pytest.raises(InputError):
        append_final_term(orbits[0].chain, A5.trivial_subgroup())
    # a V4 not containing the chain's C2 cannot extend it
    chain_c2 = orbits[1].chain
    bad_v4 = next(
        A5.handle(elements=s)
        for s in A5.p_subgroup_classes(2)[2].class_orbit
        if not chain_c2.terms[1].elements <= s
    )
    with pytest.raises(InputError):
        append_final_term(chain_c2, bad_v4)


def test_delete_first_term_stabilizer_unchanged(grp):
    # the chain 1 < C2 < V4 and its truncation C2 < V4 have the same
    # stabilizing condition inside A5
    A5 = grp("A5")
    orbits = enumerate_chain_orbits(A5, A5.trivial_subgroup(), 2)
    full = orbits[3]
    short = delete_first_term(full.chain)
    terms = [perm_set(A5, t.elements) for t in short.terms]
    stab = {
        g for g in A5.elements()
        if all(frozenset(conj(x, g) for x in t) == t for t in terms)
    }
    assert stab == perm_set(A5, full.stabilizer.elements)


def induced_block(S, pr):
    """Index of the block of S.group that pair pr's character induces to, or None."""
    ci, i = pr
    target = _stabilizer_rows(S.group, S.orbits[ci].stabilizer, S.p)[i][2]
    return None if target is None else target.index


def test_pair_set_a5(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    Z = A5.trivial_subgroup()
    S = pair_set(A5, B0, Z, 2)
    assert S.counts == (8, 8)
    per_chain = {}
    for pr in S.plus + S.minus:
        per_chain[pr[0]] = per_chain.get(pr[0], 0) + 1
    assert per_chain == {0: 4, 1: 4, 2: 4, 3: 4}
    assert pair_set(A5, B0, Z, 1).counts == (0, 0)
    # defect beyond the p-part bound: both sides empty
    assert pair_set(A5, B0, Z, 9).counts == (0, 0)


def test_pair_set_requires_prime_in_all_mode(grp):
    A5 = grp("A5")
    with pytest.raises(InputError):
        pair_set(A5, "all", A5.trivial_subgroup(), 2)


@pytest.mark.parametrize("p", [None, 2])
@pytest.mark.parametrize("block", [None, "ALL", 0])
def test_pair_set_takes_only_a_block_or_all(grp, block, p):
    A5 = grp("A5")
    with pytest.raises(InputError, match="block must be a Block or 'all'"):
        pair_set(A5, block, A5.trivial_subgroup(), 2, p=p)


def _timed_out(signum, frame):
    raise TimeoutError("a chain entry point did not return")


@pytest.mark.parametrize("p", [1, 4])
def test_chain_entry_points_refuse_a_non_prime(grp, p):
    # unchecked, p = 1 divides by 1 forever and p = 4 fails in the p-group closure
    S4 = grp("S4")
    Z = S4.trivial_subgroup()
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(10)
    try:
        with pytest.raises(InputError, match="not a prime"):
            enumerate_chain_orbits(S4, Z, p)
        with pytest.raises(InputError, match="not a prime"):
            pair_set(S4, "all", Z, 0, p=p)
        with pytest.raises(InputError, match="not a prime"):
            signed_pair_counts(S4, Z, p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_degenerate_sylow_start_pair_set(grp):
    # start at a normal Sylow subgroup: single chain, minus side empty
    Q8 = grp("Q8")
    B = p_blocks(character_table(Q8), 2)[0]
    S = pair_set(Q8, B, Q8.full_subgroup(), 3)
    assert len(S.orbits) == 1
    assert S.counts == (4, 0)  # the four height-zero characters, no chains below


def test_aggregation_identity(grp):
    # blockwise union equals the block-free set on pairs with defined induction
    for name, p in [("A5", 2), ("S4", 2), ("S3", 3), ("SL23", 2), ("F20", 5)]:
        G = grp(name)
        table = character_table(G)
        Z = G.trivial_subgroup()
        dmax = _nu(G.order, p)
        for d in range(dmax + 1):
            free = pair_set(G, "all", Z, d, p=p)
            union_plus = []
            union_minus = []
            for B in p_blocks(table, p):
                S = pair_set(G, B, Z, d)
                union_plus.extend(S.plus)
                union_minus.extend(S.minus)
            assert sorted(union_plus) == sorted(
                pr for pr in free.plus if induced_block(free, pr) is not None)
            assert sorted(union_minus) == sorted(
                pr for pr in free.minus if induced_block(free, pr) is not None)


def test_induced_defect_dominates(grp):
    # every pair's defect is at most the defect of its induced block
    for name, p in [("A5", 2), ("S4", 2), ("S5", 2)]:
        G = grp(name)
        table = character_table(G)
        blocks = p_blocks(table, p)
        Z = G.trivial_subgroup()
        for d in range(_nu(G.order, p) + 1):
            S = pair_set(G, "all", Z, d, p=p)
            for pr in S.plus + S.minus:
                if induced_block(S, pr) is not None:
                    assert d <= blocks[induced_block(S, pr)].defect


def test_second_term_partition_a5(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    Z = A5.trivial_subgroup()
    S = pair_set(A5, B0, Z, 2)
    c2 = A5.p_subgroup_classes(2)[1]
    split = second_term_partition(S, c2)
    lengths = {S.orbits[pr[0]].chain.length
               for pr in split.matched_plus + split.matched_minus}
    assert lengths == {1, 2}
    assert len(split.matched_plus) == 4 and len(split.matched_minus) == 4
    v4 = A5.p_subgroup_classes(2)[2]
    split4 = second_term_partition(S, v4)
    assert len(split4.matched_plus) == 0 and len(split4.matched_minus) == 4
    with pytest.raises(InputError):
        second_term_partition(S, A5.trivial_subgroup())
    # transversal over second-term classes plus length-0 chains recovers S
    matched = [pr for pr in split.matched_plus + split.matched_minus
               + split4.matched_plus + split4.matched_minus]
    zero_len = [pr for pr in S.plus + S.minus
                if S.orbits[pr[0]].chain.length == 0]
    assert sorted(matched + zero_len) == sorted(S.plus + S.minus)


def test_second_term_transport_counts(grp):
    # |C_Q(B,U)_+/-| as G-orbits equals the local pair counts with signs
    # swapped, summed over the blocks of N_G(Q) inducing to B with defect d
    cases = [("A5", 2), ("S4", 2), ("SL23", 2), ("S5", 2)]
    for name, p in cases:
        G = grp(name)
        table = character_table(G)
        Z = G.p_core(p)
        for B in p_blocks(table, p):
            d = B.defect
            S = pair_set(G, B, G.trivial_subgroup(), d) if Z.order == 1 \
                else pair_set(G, B, Z, d)
            for cls in G.p_subgroup_classes(p):
                if not (S.start.order < cls.order < p**B.defect):
                    continue
                if not any(S.start.elements < s for s in cls.class_orbit):
                    continue
                split = second_term_partition(S, cls)
                locals_ = local_second_term_sets(G, B, cls, d)
                local_plus = sum(len(L.plus) for L in locals_)
                local_minus = sum(len(L.minus) for L in locals_)
                assert len(split.matched_plus) == local_minus
                assert len(split.matched_minus) == local_plus


def test_second_term_blocks_lemma(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    c2 = A5.p_subgroup_classes(2)[1]
    bq = second_term_blocks(A5, B0, c2, 2)
    assert len(bq) >= 1
    for b in bq:
        assert b.defect == 2


def test_intermediate_subgroup_classes(grp):
    A5 = grp("A5")
    triv = A5.trivial_subgroup()
    v4 = A5.sylow(2)
    between = intermediate_subgroup_classes(A5, triv, v4, 2)
    assert [h.order for h in between] == [2]
    # maximal step: nothing strictly between
    c2 = A5.handle(elements=next(iter(
        s for s in A5.p_subgroup_classes(2)[1].class_orbit if s <= v4.elements)))
    assert intermediate_subgroup_classes(A5, triv, c2, 2) == ()
    S4 = grp("S4")
    o2 = S4.p_core(2)
    syl = S4.sylow(2)
    mids = intermediate_subgroup_classes(S4, o2, syl, 2)
    assert mids == ()  # no class strictly between the Klein core and the Sylow
    with pytest.raises(InputError):
        intermediate_subgroup_classes(A5, v4, triv, 2)


def test_chain_orbit_cache(grp):
    A5 = grp("A5")
    a = chain_orbits_cached(A5, A5.trivial_subgroup(), 2)
    b = chain_orbits_cached(A5, A5.trivial_subgroup(), 2)
    assert a is b


@pytest.mark.parametrize("name", ["A5", "S3xS3", "A5xC2"])
def test_enumeration_reuses_the_counting_extensions(monkeypatch, name):
    # one extension memo per (G, p): listing the chains after counting them,
    # as defect-scan does for a flagged defect, fuses no class again
    from pblocks import chains

    G = library_group(name)
    U = G.trivial_subgroup()
    fused = []
    fuse = chains._fuse
    monkeypatch.setattr(chains, "_fuse", lambda *a: fused.append(1) or fuse(*a))
    counts, orbits = signed_pair_counts(G, U, 2)
    assert fused
    before = len(fused)
    assert len(enumerate_chain_orbits(G, U, 2)) == orbits
    assert len(fused) == before


def _primes(n):
    return [q for q in range(2, n + 1)
            if n % q == 0 and all(q % r for r in range(2, q))]


@pytest.mark.parametrize("name", acceptance_corpus() + ["C2xC2xC2xC2"])
def test_counting_agrees_with_enumeration(grp, name):
    # the memoised recursion against full enumeration, at every prime and
    # defect, from the trivial start and from O_p(G); C2^4 at p = 2 has
    # 1,392 chain orbits from the trivial start
    G = grp(name)
    for p in _primes(G.order):
        for U in (G.trivial_subgroup(), G.p_core(p)):
            counts, orbits = signed_pair_counts(G, U, p)
            assert orbits == len(enumerate_chain_orbits(G, U, p))
            assert list(counts) == [pair_set(G, "all", U, f, p=p).counts
                                    for f in range(_nu(G.order, p) + 1)]


def test_counting_rejects_bad_start_and_prime(grp):
    A5 = grp("A5")
    with pytest.raises(InputError):
        signed_pair_counts(A5, A5.sylow(2), 2)
    with pytest.raises(InputError):
        signed_pair_counts(A5, A5.trivial_subgroup(), 4)


def test_orbit_ceiling_is_a_resource_error(grp):
    # S4 at p = 2 from the trivial start has 18 chain orbits; both routes
    # must stop at a ceiling of 5, and name the same count reached
    S4 = grp("S4")
    assert len(enumerate_chain_orbits(S4, S4.trivial_subgroup(), 2)) == 18
    messages = set()
    for route in (enumerate_chain_orbits, signed_pair_counts):
        G = library_group("S4", limits=Limits(max_chain_orbits=5))
        with pytest.raises(ResourceError, match="max_chain_orbits = 5") as info:
            route(G, G.trivial_subgroup(), 2)
        messages.add(str(info.value))
    assert len(messages) == 1


@pytest.mark.parametrize("name", acceptance_corpus())
def test_state_graph_folds_the_enumeration(grp, name):
    # at every prime, from the trivial start and from O_p(G): each state
    # once, after its children, and the start state last; the states are the
    # (stabilizer, final term) pairs of the enumerated orbits, and a state's
    # orbit count is the size of the subtree below each orbit in that state
    G = grp(name)
    for p in _primes(G.order):
        for U in (G.trivial_subgroup(), G.p_core(p)):
            graph = _state_graph(G, U, p)
            keys = [(s.stabilizer.elements, s.final) for s in graph]
            assert len(set(keys)) == len(keys)
            for i, s in enumerate(graph):
                assert all(c < i and graph[c].final == t for t, c in s.children)
            assert keys[-1] == (G.full_subgroup().elements, U.elements)
            orbits = enumerate_chain_orbits(G, U, p)
            assert set(keys) == {(o.stabilizer.elements, o.chain.final.elements)
                                 for o in orbits}
            below = [0] * len(orbits)  # descendants; a child sorts after its parent
            for o in reversed(orbits):
                if o.parent is not None:
                    below[o.parent] += below[o.index] + 1
            state = {key: i for i, key in enumerate(keys)}
            for o in orbits:
                key = (o.stabilizer.elements, o.chain.final.elements)
                assert below[o.index] + 1 == graph[state[key]].orbits


@pytest.mark.parametrize("name", acceptance_corpus() + ["S4-relabelled"])
def test_child_orbit_reads_the_child_edge(grp, name):
    # at every prime, from the trivial start and from O_p(G): each orbit's
    # children are the orbits that name it as parent, and every conjugate K
    # of a child's final term under the parent's stabilizer names that child,
    # by the least row of K's orbit and by the old scan with one transporter
    # per candidate child; the parent's own final term names no child
    G = relabelled(grp("S4"), 3) if name == "S4-relabelled" else grp(name)
    position = {x: i for i, x in enumerate(G.elements())}
    for p in _primes(G.order):
        for U in (G.trivial_subgroup(), G.p_core(p)):
            orbits = enumerate_chain_orbits(G, U, p)
            for orb in orbits:
                ci = orb.index
                assert orb.children == tuple(o.index for o in orbits if o.parent == ci)
                stab = perm_set(G, orb.stabilizer.elements)
                for j in orb.children:
                    final = perm_set(G, orbits[j].chain.final.elements)
                    for K in {frozenset(position[conj(x, h)] for x in final) for h in stab}:
                        assert _child_orbit(G, orbits, ci, K) == j
                        assert oracle_child_orbit(G, orbits, ci, _member_mask(G.order, K))[0] == j
                with pytest.raises(InternalError, match="conjugate to no child"):
                    _child_orbit(G, orbits, ci, orb.chain.final.elements)


def _nu(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("name", acceptance_corpus() + ["S4-relabelled", "S4xC2xC2", "S6"])
def test_extensions_match_fused_candidates(grp, name):
    # each chain stabilizer H's view of G's p-subgroup lattice, against H's
    # own p-subgroup classes and against the old second fusion of every
    # p-subgroup of H above the final term, at every (stabilizer, final term)
    # of the enumeration: from O_p(G) and from the trivial start at every
    # prime on the corpus and on S4 with its points relabelled, from the
    # trivial start at p = 2 on the two larger groups.  A child keeps the
    # stabilizer H exactly when every generator of H normalizes its final
    # term, as tuple permutations.
    G = relabelled(grp("S4"), 3) if name == "S4-relabelled" else grp(name)
    if name in ("S4xC2xC2", "S6"):
        runs = [(2, G.trivial_subgroup())]
    else:
        runs = [(p, U) for p in _primes(G.order) for U in (G.p_core(p), G.trivial_subgroup())]
    seen = set()
    for p, U in runs:
        for orb in enumerate_chain_orbits(G, U, p):
            stab, final = orb.stabilizer, orb.chain.final.elements
            if (p, stab.elements, final) in seen:
                continue
            seen.add((p, stab.elements, final))
            H = stab.as_group()
            ext = _extensions(G, stab, _lattice_view(G, stab, p), final)
            # ext is in G's element indices, local and fused in H's
            final_h = index_set(H, perm_set(G, final))
            local = local_extensions(H, final_h, p)
            fused = fuse_under_group(H, candidate_extensions(H, final_h, p))
            assert [perm_set(G, t) for t, _ in ext] == [perm_set(H, t) for t, _ in local] \
                == [perm_set(H, t) for t in fused]
            assert [perm_set(G, n.elements) for _, n in ext] == \
                [perm_set(H, n.elements) for _, n in local] == [
                perm_set(H, H.normalizer(H.handle(elements=t)).elements) for t in fused]
            for t, n in ext:
                t = perm_set(G, t)
                assert (n is stab) == all(
                    {conj(x, h) for x in t} == t for h in stab.generators)


def test_extensions_reject_final_term_not_normalized(grp):
    # <(0 1)> is not normal in S4: it lies in <(0 1), (2 3)> but in neither
    # S4-conjugate of that four-group
    S4 = grp("S4")
    final = S4.handle(generators=[parse_cycles("(0 1)", 4)]).elements
    with pytest.raises(InternalError, match="partly above"):
        _extensions(S4, S4.full_subgroup(), _lattice_view(S4, S4.full_subgroup(), 2), final)
    with pytest.raises(InternalError, match="partly above"):
        local_extensions(S4, final, 2)
