"""Group arithmetic against brute-force oracles.

The oracles enumerate explicitly: closures for orders, elementwise scans
for classes and normalizers, and level-by-level extension over the whole
group for p-subgroups.  They never touch the stabilizer chain.
"""

import gc
import re
import weakref
from math import prod

import numpy as np
import pytest
from sympy import primefactors

from kernel_oracles import (
    closure, conj, generating_subset, index_set, perm_set, pmul, relabelled,
)
from pblocks.blocks import p_blocks
from pblocks.chains import (
    _state_graph,
    enumerate_chain_orbits,
    signed_pair_counts,
)
from pblocks.chartable import character_table, defects
from pblocks.cli import run
from pblocks.config import Limits
from pblocks.errors import InputError, InternalError, ResourceError
from pblocks.groups import Group, SubgroupHandle, _build_chain
from pblocks.library import acceptance_corpus, direct_product, library_group, parse_group_file
from pblocks.perms import format_cycles, identity, parse_cycles, perm_order


def brute_order(degree, gens):
    elems = {identity(degree)}
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
    return len(elems)


@pytest.mark.parametrize(
    "degree,cycles,expected",
    [
        (1, [], 1),
        (5, ["(0 1 2 3 4)", "(0 1 2)"], 60),
        (4, ["(0 1)", "(0 1 2 3)"], 24),
        (3, ["(0 1)", "(0 1 2)"], 6),
        (7, ["(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)"], 21),
    ],
)
def test_order_against_brute_closure(degree, cycles, expected):
    gens = [parse_cycles(c, degree) for c in cycles]
    G = Group(degree, gens)
    assert G.order == expected
    assert brute_order(degree, gens) == expected


def test_malformed_generator_rejected():
    with pytest.raises(InputError):
        Group(3, [(0, 0, 1)])


def test_order_ceiling():
    with pytest.raises(ResourceError):
        library_group("S5", limits=Limits(max_order=100))


def brute_chain(G):
    """(base point, orbit) per level of the stabilizer chain with ascending
    base, walked over G's elements: each base point is the least point
    moved by the pointwise stabilizer of the ones before it, and its orbit
    is that stabilizer's orbit on it."""
    stabilizer, levels = G.elements(), []
    while moved := [i for i in range(G.degree) if any(x[i] != i for x in stabilizer)]:
        b = moved[0]
        levels.append((b, {x[b] for x in stabilizer}))
        stabilizer = [x for x in stabilizer if x[b] == b]
    return levels


def chain_groups():
    """The acceptance corpus, each also with its points relabelled, and the
    three wide row kinds: void keys at degree 16, uint16 rows at degree 300
    and uint32 rows at degree 70,000."""
    corpus = [library_group(name) for name in acceptance_corpus()]
    return corpus + [relabelled(G, 7) for G in corpus] + [
        Group(16, [tuple(j ^ 1 if j // 2 == i else j for j in range(16)) for i in range(8)]),
        Group(300, [tuple(range(1, 300)) + (0,)]),
        Group(70000, [parse_cycles("(0 1)", 70000), parse_cycles("(2 3 4)", 70000)]),
    ]


def test_chain_certificate():
    # the chain built on generator rows against a walk over the elements
    for G in chain_groups():
        arr = G._array()
        levels = _build_chain(arr.perm(G.generators).reshape(-1, G.degree))
        expected = brute_chain(G)
        assert [(lvl.point, len(lvl.transversal)) for lvl in levels] == \
            [(b, len(orbit)) for b, orbit in expected]
        assert prod(len(lvl.transversal) for lvl in levels) == G.order
        for i, (lvl, (b, orbit)) in enumerate(zip(levels, expected)):
            images = lvl.transversal[:, b].tolist()
            assert len(set(images)) == len(images) and set(images) == orbit
            assert arr.lookup(lvl.transversal)[1].all()  # each u is an element of G
            assert (lvl.transversal[:, [c for c, _ in expected[:i]]] ==
                    [c for c, _ in expected[:i]]).all()  # fixing the earlier base points
            assert (np.take_along_axis(lvl.transversal, lvl.inverse, axis=1) ==
                    np.arange(G.degree)).all()
            assert np.array_equal(np.flatnonzero(lvl.row_of >= 0), sorted(orbit))
            assert lvl.row_of[images].tolist() == list(range(len(images)))
        # non-members are rejected
        odd = parse_cycles("(0 1)", G.degree) if G.degree > 1 else identity(1)
        assert G.contains(odd) == (odd in G.elements())


def test_contains_refuses_non_permutations(grp):
    G = grp("S3")
    for p in [(0, 0, 1), (0, 1, 5), (0, 1, 300), (0, 1, -1), (0, 1), (0, 1, 2, 3)]:
        assert not G.contains(p)
    assert all(G.contains(g) for g in G.elements())


def brute_classes(G):
    elems = G.elements()
    seen = set()
    out = []
    for x in elems:
        if x in seen:
            continue
        orb = {conj(x, g) for g in elems}
        seen |= orb
        out.append(len(orb))
    return sorted(out)


@pytest.mark.parametrize(
    "name,sizes",
    [
        ("C1", [1]),
        ("S3", [1, 2, 3]),
        ("A5", [1, 12, 12, 15, 20]),
        ("S4", [1, 3, 6, 6, 8]),
        ("Q8", [1, 1, 2, 2, 2]),
    ],
)
def test_conjugacy_classes(grp, name, sizes):
    G = grp(name)
    classes = G.conjugacy_classes()
    assert sorted(c.size for c in classes) == sizes
    assert brute_classes(G) == sizes
    assert sum(c.size for c in classes) == G.order
    for c in classes:
        assert c.size * c.centralizer_order == G.order
        assert G.order % c.size == 0


def test_class_canonical_order(grp):
    G = grp("S4")
    classes = G.conjugacy_classes()
    keys = [(c.size, c.rep) for c in classes]
    assert keys == sorted(keys)
    assert classes[0].rep == G.identity


def brute_conjugate_count(G, H):
    return len({frozenset(conj(x, g) for x in perm_set(G, H.elements)) for g in G.elements()})


def test_normalizer_examples(grp):
    A5 = grp("A5")
    assert A5.normalizer(A5.full_subgroup()).order == 60
    h = A5.handle(generators=[parse_cycles("(0 1)(2 3)", 5)])
    n = A5.normalizer(h)
    assert n.order == 4
    v4 = A5.handle(generators=[parse_cycles("(0 1)(2 3)", 5),
                               parse_cycles("(0 2)(1 3)", 5)])
    assert v4.order == 4
    assert A5.normalizer(v4).order == 12


def test_normalizer_index_is_conjugate_count(grp):
    for name in ["S4", "A5", "D6", "Dic3"]:
        G = grp(name)
        for h in G.p_subgroup_classes(2)[:4]:
            n = G.normalizer(h)
            assert h.elements <= n.elements
            assert G.order // n.order == brute_conjugate_count(G, h)


def test_center_and_core(grp):
    C12 = grp("C12")
    assert C12.center().order == 12
    assert C12.p_core(2).order == 4  # Sylow 2-subgroup of an abelian group
    S4 = grp("S4")
    o2 = S4.p_core(2)
    assert o2.order == 4
    assert S4.is_normal(o2)
    A5 = grp("A5")
    assert A5.p_core(2).order == 1
    Q8 = grp("Q8")
    assert Q8.center().order == 2


def test_sylow(grp):
    A5 = grp("A5")
    syl = A5.sylow(2)
    assert syl.order == 4
    assert syl.class_size == 5
    assert A5.sylow(7).order == 1  # p does not divide the order
    S4 = grp("S4")
    syl2 = S4.sylow(2)
    assert syl2.order == 8
    assert syl2.class_size == 3


def brute_p_subgroups(G, p):
    """All p-subgroups of G by exhaustive bottom-up extension over all of G."""
    idp = G.identity
    elems = G.elements()
    found = {frozenset([idp])}
    level = {frozenset([idp])}
    while level:
        nxt = set()
        for q in level:
            for x in elems:
                if x in q or perm_order(x) % p:
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = pmul(xp, x)
                if xp not in q:
                    continue
                if not all(conj(h, x) in q for h in q):
                    continue
                r = closure(G.degree, sorted(q) + [x], seed=q)
                if len(r) == len(q) * p:
                    nxt.add(r)
        nxt -= found
        found |= nxt
        level = nxt
    return found


@pytest.mark.parametrize(
    "name,p,orders",
    [
        ("C3", 3, [1, 3]),
        ("S4", 2, [1, 2, 2, 4, 4, 4, 8]),
        ("A5", 2, [1, 2, 4]),
        ("A5", 5, [1, 5]),
        ("Q8", 2, [1, 2, 4, 4, 4, 8]),
    ],
)
def test_p_subgroup_classes(grp, name, p, orders):
    G = grp(name)
    classes = G.p_subgroup_classes(p)
    assert [h.order for h in classes] == orders
    # fuse the brute-force enumeration and compare the class sets exactly
    brute = brute_p_subgroups(G, p)
    assert brute == {perm_set(G, s) for h in classes for s in h.class_orbit}
    for h in classes:
        assert h.is_p_group(p)
        assert G.order == h.class_size * G.normalizer(h).order
    assert classes[-1].order == G.order_p_part(p)


def test_subgroup_handle_canonical_key(grp):
    A5 = grp("A5")
    h1 = A5.handle(generators=[parse_cycles("(0 1)(2 3)", 5)])
    h2 = A5.handle(generators=[parse_cycles("(0 2)(1 4)", 5)])
    assert h1.elements != h2.elements
    assert h1.canonical_key == h2.canonical_key  # conjugate in A5
    h3 = A5.handle(generators=[parse_cycles("(0 1 2)", 5)])
    assert h1.canonical_key != h3.canonical_key


def test_group_file_round_trip(tmp_path):
    text = "# alternating on five points\ndegree: 5\ngenerators: (0 1 2 3 4); (0 1 2)\n"
    G = parse_group_file(text)
    assert G.order == 60
    with pytest.raises(InputError):
        parse_group_file("generators: (0 1)\n")
    with pytest.raises(InputError):
        parse_group_file("degree: three\n")
    with pytest.raises(InputError):
        parse_group_file("degree: 3\nnonsense\n")
    # a header is its key word followed by ':', whitespace or the line end
    assert parse_group_file("degree 3\ngenerators (0 1)\n").order == 2
    assert parse_group_file("Degree : 3\nGENERATORS:\n(0 1 2)\n").order == 3
    for bad in ["degreex: 3\ngenerators: (0 1)\n", "degree 3\ngenerators(0 1)\n",
                "degree: 3\ngenerators: (0 1 2)\ndegree: 4\n", "degree\n"]:
        with pytest.raises(InputError):
            parse_group_file(bad)


def test_library_names(grp):
    assert grp("Dic3").order == 12
    assert grp("F20").order == 20
    assert grp("SL23").order == 24
    assert grp("C2xA4").order == 24
    assert grp("C2xC2xC2").order == 8
    with pytest.raises(InputError):
        library_group("nope")
    with pytest.raises(InputError):
        library_group("S9")
    # names are case-insensitive, the product sign included
    for name in ["c2xa4", "C2XA4", "c2Xa4", " C2 x A4 "]:
        assert library_group(name).generators == grp("C2xA4").generators
    for name in ["C2xxC2", "xC2", "C2x", "X", ""]:
        with pytest.raises(InputError, match=re.escape(repr(name))):
            library_group(name)


def test_library_product_keeps_the_factor_generators(grp):
    # a product name builds one group, with the generators, in order, of the
    # product of its factors built one by one
    for name in ["C2xA4", "C3xS3", "C2xD4", "C1xS3xC2", "Dic3xQ8", "F20xSL23"]:
        factors = [library_group(part) for part in name.split("x")]
        assert grp(name).generators == direct_product(*factors).generators


def test_dic3_is_dicyclic(grp):
    G = grp("Dic3")
    # nonabelian of order 12 with cyclic Sylow 2-subgroup
    assert any(pmul(a, b) != pmul(b, a) for a in G.generators for b in G.generators)
    syl = G.sylow(2)
    orders = sorted(perm_order(x) for x in perm_set(G, syl.elements))
    assert orders == [1, 2, 4, 4]


def test_generating_subset_rejects_non_subgroup():
    e, c, t = (0, 1, 2), (1, 2, 0), (2, 1, 0)
    # {e, (0 1 2), (0 2)} has the size of <(0 1 2)> but is not that subgroup
    with pytest.raises(InternalError):
        generating_subset(3, sorted([e, c, t]))
    with pytest.raises(InternalError):
        generating_subset(3, sorted([e, t, (1, 0, 2)]))
    assert generating_subset(3, sorted([e, c, (2, 0, 1)])) == [c]
    # the same sets as element indices of S3, for a handle
    S3 = Group(3, [c, t])
    with pytest.raises(InternalError):
        S3.handle(elements=index_set(S3, [e, c, t]))
    with pytest.raises(InternalError):
        S3.handle(elements=index_set(S3, [e, t, (1, 0, 2)]))
    assert S3.handle(elements=index_set(S3, [e, c, (2, 0, 1)])).generators == (c,)


@pytest.mark.parametrize("name", acceptance_corpus())
def test_as_group_elements_match_closure(grp, name):
    # as_group() reuses the handle's elements instead of a second closure
    G = grp(name)
    for p in primefactors(G.order):
        for cls in G.p_subgroup_classes(p):
            for h in (cls, G.normalizer(cls)):
                H = h.as_group()
                assert H.elements() == tuple(sorted(closure(G.degree, H.generators)))


def test_full_subgroup_is_the_group(grp):
    # so the table, classes and lattices of G are built once
    G = grp("S4")
    assert G.full_subgroup().as_group() is G
    assert G.normalizer(G.trivial_subgroup()).as_group() is G
    assert G.handle(elements=G.centralizer_set(G.identity)).as_group() is G
    assert G.sylow(2).as_group() is not G


def test_cut_rows_are_certified(grp):
    # a subgroup group is the parent's rows at the handle's elements; the
    # certificate refuses a missing row and a generator outside the subgroup
    G = grp("S4")
    H = G.sylow(2)
    rows = G._array().rows[sorted(H.elements)]
    outside = next(g for g in G.elements() if not H.as_group().contains(g))
    for gens, cut, message in [
        (H.generators, rows[:-1], "element rows disagree with the group order"),
        ((outside,) + H.generators[1:], rows, "permutation row is not an element"),
    ]:
        with pytest.raises(InternalError, match=message):
            Group.__new__(Group)._adopt(G.degree, gens, G.limits, H.order, cut)


def group_file(tmp_path, G, name: str) -> str:
    path = tmp_path / f"{name}.grp"
    gens = "; ".join(format_cycles(g) for g in G.generators)
    path.write_text(f"degree: {G.degree}\ngenerators: {gens}\n")
    return str(path)


def test_subgroup_groups_match_schreier_sims(tmp_path, monkeypatch, capsys):
    # every subgroup group that the corpus runs cut from their parents, plain
    # and relabelled, is the group that Schreier-Sims builds from its generators
    made = {}
    cut = Group.subgroup_group

    def recording(self, handle):
        H = cut(self, handle)
        if H is not self:
            made[id(H)] = H
        return H

    monkeypatch.setattr(Group, "subgroup_group", recording)
    for name in acceptance_corpus():
        G = library_group(name)
        for source in (["--lib", name], ["--group", group_file(tmp_path, relabelled(G, 7), name)]):
            for p in primefactors(G.order):
                for command in (["verify-am", "--all-blocks"], ["pi-pairing"],
                                ["verify-blockfree"], ["verify-ctc"],
                                ["chains", "--start", "trivial"]):
                    assert run([*command, *source, "--prime", str(p)]) == 0
    capsys.readouterr()
    assert len(made) > 250
    for H in made.values():
        K = Group(H.degree, H.generators)
        assert K.order == H.order
        assert np.array_equal(K._array().rows, H._array().rows)


def _handle(G, elements):
    """A handle equal to G's own handle of ``elements``, but not the same object."""
    return SubgroupHandle(G, frozenset(elements))


CACHED_FACTS = {
    "character_table": lambda G, p: character_table(G.sylow(p).as_group()),
    "p_blocks": lambda G, p: p_blocks(character_table(G), p),
    "defects": lambda G, p: defects(character_table(G), p),
    "sylow": lambda G, p: G.sylow(p),
    "normalizer": lambda G, p: G.normalizer(_handle(G, G.sylow(p).elements)),
    "p_subgroup_classes": lambda G, p: G.p_subgroup_classes(p),
    "_state_graph": lambda G, p: _state_graph(G, _handle(G, [0]), p),
    "enumerate_chain_orbits": lambda G, p: enumerate_chain_orbits(G, _handle(G, [0]), p),
}


@pytest.mark.parametrize("name", sorted(CACHED_FACTS))
def test_cached_fact_is_one_object_per_argument(name):
    # equal arguments return the very object of the first call; another prime
    # (or the subgroup that it picks) is another entry
    fact = CACHED_FACTS[name]
    G = library_group("S4")
    first = fact(G, 2)
    assert fact(G, 2) is first
    other = fact(G, 3)
    assert other is not first
    assert fact(G, 3) is other


def test_single_use_facts_are_not_kept(monkeypatch):
    # the class matrices are built per read and exponent() once per table,
    # counting folds the cached state graph with no memo of its own, and the
    # stabilizers' lattice views live only as long as the graph's walk: none
    # of them stays in a cache
    from pblocks import chains

    views = []  # a weak reference to an array of each view
    build = chains._lattice_view

    def lattice_view(*args):
        view = build(*args)
        views.extend(weakref.ref(single) for _, _, single in view)
        return view

    monkeypatch.setattr(chains, "_lattice_view", lattice_view)
    G = library_group("S4")
    table = character_table(G)
    signed_pair_counts(G, G.trivial_subgroup(), 2)
    enumerate_chain_orbits(G, G.trivial_subgroup(), 2)
    names = {key[0] for key in G._cache} | {key[0] for key in table._cache}
    assert {"character_table", "_state_graph"} <= names
    assert not names & {"cmc", "exponent", "signed_pair_counts", "signed_counts",
                        "_lattice_view"}
    gc.collect()
    assert views and not any(ref() is not None for ref in views)
