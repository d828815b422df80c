"""Block theory against the classical linking oracle and frozen examples.

Oracle: two irreducible characters are directly linked when the sum of
|K| chi(K) psi(K^{-1}) over p-regular classes K is nonzero; blocks are the
connected components of the linking graph.  This path uses only exact
cyclotomic arithmetic and never touches the finite-field reduction.
"""

import dataclasses

import pytest
from sympy import primefactors

from cyclo_oracle import Cyclo, central_character, entry
from kernel_oracles import TupleField, class_index, oracle_classes, oracle_cmc, perm_set
from pblocks import blocks
from pblocks.blockfield import block_field
from pblocks.blocks import (
    _defect_class,
    brauer_correspondent,
    brauer_induce,
    heights,
    irr0,
    is_central_defect,
    p_blocks,
)
from pblocks.chartable import character_table, defects
from pblocks.errors import InputError, InternalError
from pblocks.groups import Group
from pblocks.library import library_group
from pblocks.perms import perm_order, pinv

CORPUS = [
    ("S3", 2), ("S3", 3), ("S4", 2), ("S4", 3), ("A4", 2), ("A4", 3),
    ("A5", 2), ("A5", 3), ("A5", 5), ("Q8", 2), ("SL23", 2), ("SL23", 3),
    ("D4", 2), ("D5", 5), ("F20", 2), ("F20", 5), ("F21", 3), ("F21", 7),
    ("Dic3", 2), ("Dic3", 3), ("C12", 2), ("C12", 3), ("C2xA4", 2),
]


def linking_blocks(table, p):
    G = table.group
    reg = [k for k, c in enumerate(table.classes) if perm_order(c.rep) % p != 0]
    idx = class_index(G)
    invmap = [idx[pinv(c.rep)] for c in table.classes]
    r = table.r
    parent = list(range(r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(r):
        for j in range(i + 1, r):
            total = Cyclo.zero()
            for k in reg:
                total = total + (entry(table, i, k) * entry(table, j, invmap[k])
                                 * table.classes[k].size)
            if not total.is_zero():
                parent[find(i)] = find(j)
    comps = {}
    for i in range(r):
        comps.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in comps.values())


@pytest.mark.parametrize("name,p", CORPUS)
def test_partition_matches_linking_oracle(grp, name, p):
    table = character_table(grp(name))
    blocks = p_blocks(table, p)
    assert sorted(tuple(b.members) for b in blocks) == linking_blocks(table, p)
    assert sum(len(b.members) for b in blocks) == table.r
    assert sum(1 for b in blocks if b.is_principal) == 1
    assert blocks[0].is_principal


def test_frozen_splits(grp):
    t5 = character_table(grp("A5"))
    bs = p_blocks(t5, 2)
    assert [sorted(t5.degrees[i] for i in b.members) for b in bs] == [
        [1, 3, 3, 5], [4]]
    assert [b.defect for b in bs] == [2, 0]
    t4 = character_table(grp("S4"))
    bs4 = p_blocks(t4, 2)
    assert len(bs4) == 1 and bs4[0].defect == 3
    # p not dividing the order: every character is alone with defect 0
    bs7 = p_blocks(t5, 7)
    assert [b.members for b in bs7] == [(i,) for i in range(5)]
    assert all(b.defect == 0 and b.defect_group.order == 1 for b in bs7)


def test_central_character_values(grp):
    t3 = character_table(grp("S3"))
    triv = t3.trivial_index()
    om = central_character(t3, triv)
    assert [v.as_fraction() for v in om] == [c.size for c in t3.classes]
    assert all(central_character(t3, i)[0] == Cyclo.one() for i in range(3))
    deg2 = t3.degrees.index(2)
    om2 = central_character(t3, deg2)
    # classes in canonical order: identity, 3-cycles (size 2), transpositions
    assert om2[1] == Cyclo.from_rational(-1)
    assert om2[2] == Cyclo.zero()


@pytest.mark.parametrize("name,p", [("A5", 2), ("S4", 2), ("SL23", 3), ("F20", 5)])
def test_reduced_central_character_is_multiplicative(grp, name, p):
    G = grp(name)
    table = character_table(G)
    a = oracle_cmc(G, oracle_classes(G))
    f = TupleField(block_field(p, table.conductor))
    for b in p_blocks(table, p):
        lam = [tuple(row) for row in b.lam.tolist()]
        r = table.r
        for i in range(r):
            for j in range(r):
                lhs = f.mul(lam[i], lam[j])
                rhs = f.zero
                for k in range(r):
                    if a[i, j, k]:
                        rhs = f.add(rhs, f.mul(f.scalar(int(a[i, j, k])), lam[k]))
                assert lhs == rhs


@pytest.mark.parametrize("name,p", CORPUS)
def test_block_axioms(grp, name, p):
    table = character_table(grp(name))
    G = table.group
    core = G.p_core(p)
    for b in p_blocks(table, p):
        assert b.defect == max(defects(table, p)[i] for i in b.members)
        assert b.defect_group.order == p**b.defect
        # O_p(G) is contained in the defect group up to conjugacy; here the
        # containment is literal because O_p lies in every p-subgroup of
        # maximal class intersection, so check against some conjugate
        assert any(core.elements <= s for s in b.defect_group.class_orbit)
        assert heights(b) == tuple(b.defect - defects(table, p)[i] for i in b.members)
        assert all(h >= 0 for h in heights(b))


def test_defect_group_examples(grp):
    A5 = grp("A5")
    t = character_table(A5)
    b0, b1 = p_blocks(t, 2)
    assert b0.defect_group.canonical_key == A5.sylow(2).canonical_key
    assert b1.defect_group.order == 1
    S4 = grp("S4")
    t4 = character_table(S4)
    assert p_blocks(t4, 2)[0].defect_group.canonical_key == S4.sylow(2).canonical_key


def test_heights_examples(grp):
    t4 = character_table(grp("S4"))
    b = p_blocks(t4, 2)[0]
    by_degree = sorted((t4.degrees[i], h) for i, h in zip(b.members, heights(b)))
    assert by_degree == [(1, 0), (1, 0), (2, 1), (3, 0), (3, 0)]
    assert len(irr0(b)) == 4
    assert tuple(i for i in b.members if defects(t4, 2)[i] == 3) == irr0(b)
    assert tuple(i for i in b.members if defects(t4, 2)[i] == 2) == \
        tuple(i for i in b.members if t4.degrees[i] == 2)
    # defect zero block: single member of height zero
    b1 = p_blocks(character_table(grp("A5")), 2)[1]
    assert heights(b1) == (0,)


def test_negative_height_is_an_internal_error(grp):
    b = p_blocks(character_table(grp("S4")), 2)[0]
    with pytest.raises(InternalError, match="negative height"):
        heights(dataclasses.replace(b, defect=b.defect - 1))


def test_abelian_defect_forces_height_zero(grp):
    for name, p in CORPUS:
        table = character_table(grp(name))
        for b in p_blocks(table, p):
            dgroup = b.defect_group.as_group()
            from pblocks.perms import pmul

            abelian = all(pmul(x, y) == pmul(y, x)
                          for x in dgroup.generators for y in dgroup.generators)
            if abelian:
                assert all(h == 0 for h in heights(b))


def test_brauer_induce_identity_and_principal(grp):
    A5 = grp("A5")
    t = character_table(A5)
    b0 = p_blocks(t, 2)[0]
    assert brauer_induce(b0, A5) == b0
    # induction from every p-local subgroup sends principal to principal
    for h in A5.p_subgroup_classes(2)[1:]:
        N = A5.normalizer(h).as_group()
        nb0 = p_blocks(character_table(N), 2)[0]
        assert nb0.is_principal
        assert brauer_induce(nb0, A5) == b0


def test_brauer_induce_example_a5(grp):
    A5 = grp("A5")
    v4 = A5.sylow(2)
    N = A5.normalizer(v4).as_group()
    assert N.order == 12
    nb = p_blocks(character_table(N), 2)[0]
    target = brauer_induce(nb, A5)
    assert target is not None and target.is_principal


def test_brauer_induce_requires_subgroup(grp):
    S4 = grp("S4")
    A5 = grp("A5")
    b = p_blocks(character_table(S4), 2)[0]
    with pytest.raises(InputError):
        brauer_induce(b, A5)


def test_brauer_induce_refuses_a_group_of_the_same_degree_outside(grp):
    # S5 acts on the points of A5 but is no subgroup of it
    b = p_blocks(character_table(grp("S5")), 2)[0]
    with pytest.raises(InputError, match="can only induce from a subgroup"):
        brauer_induce(b, grp("A5"))


def test_induction_transitivity(grp):
    # C2 <= V4 <= A5 through normalizers: (b^K)^G = b^G where defined
    A5 = grp("A5")
    v4 = A5.sylow(2)
    x = A5.elements()[min(v4.elements - {0})]  # the least element but 1
    v4n = A5.normalizer(v4).as_group()  # A4
    c2_in = v4n.handle(generators=[x])
    inner = v4n.normalizer(c2_in).as_group()  # V4 itself
    for b in p_blocks(character_table(inner), 2):
        via_k = brauer_induce(b, v4n)
        if via_k is None:
            continue
        direct = brauer_induce(b, A5)
        lifted = brauer_induce(via_k, A5)
        if direct is not None and lifted is not None:
            assert direct == lifted


@pytest.mark.parametrize("name,p", CORPUS)
def test_brauer_correspondent_round_trip(grp, name, p):
    G = grp(name)
    table = character_table(G)
    for B in p_blocks(table, p):
        b = brauer_correspondent(B)
        assert b.defect == B.defect
        assert brauer_induce(b, G) == B
        assert perm_set(b.group, b.defect_group.elements) == \
            perm_set(G, B.defect_group.elements)


def test_correspondent_examples(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    b = brauer_correspondent(B0)
    assert b.group.order == 12 and b.is_principal
    S4 = grp("S4")
    B = p_blocks(character_table(S4), 2)[0]
    b4 = brauer_correspondent(B)
    assert b4.group.order == 8  # the Sylow 2-subgroup is self-normalizing
    # normal defect group: the correspondent lives in the whole group
    Q8 = grp("Q8")
    BQ = p_blocks(character_table(Q8), 2)[0]
    assert brauer_correspondent(BQ).group.order == 8


def test_is_central_defect(grp):
    C12 = grp("C12")
    for b in p_blocks(character_table(C12), 2):
        assert is_central_defect(b)
    A5 = grp("A5")
    b0, b1 = p_blocks(character_table(A5), 2)
    assert not is_central_defect(b0)
    assert is_central_defect(b1)  # trivial defect group is central


def test_reduced_central_character_identity_entry(grp):
    table = character_table(grp("SL23"))
    one = TupleField(block_field(2, table.conductor)).one
    for b in p_blocks(table, 2):
        assert tuple(b.lam[0].tolist()) == one


def test_identity_entry_other_than_one_is_rejected(monkeypatch):
    table = character_table(library_group("S3"))  # a fresh table: no blocks cached
    real = blocks.omega_int_vectors
    monkeypatch.setattr(blocks, "omega_int_vectors", lambda t: 2 * real(t))
    with pytest.raises(InternalError, match="not 1 at the identity"):
        p_blocks(table, 3)


def _nu(n, p):
    return 0 if n % p else 1 + _nu(n // p, p)


@pytest.mark.parametrize("name,block", [("D6", 1), ("D10", 1), ("D10", 2)])
def test_defect_class_is_p_regular(grp, name, block):
    """These blocks have a p-singular class of larger p-part with lam != 0."""
    table = character_table(grp(name))
    G = table.group
    B = p_blocks(table, 2)[block]
    chosen = table.classes[_defect_class(table, 2, B.lam)]
    assert perm_order(chosen.rep) % 2 == 1
    nonzero = [c for k, c in enumerate(table.classes) if B.lam[k].any()]
    unrestricted = max(nonzero, key=lambda c: _nu(c.size, 2))
    assert perm_order(unrestricted.rep) % 2 == 0
    # the defect group is the one the unrestricted choice gave
    cent = G.handle(elements=G.centralizer_set(unrestricted.rep))
    C = cent.as_group()
    assert perm_set(G, B.defect_group.elements) == perm_set(C, C.sylow(2).elements)


@pytest.mark.parametrize("name", ["C3xS3", "S5", "D7"])
def test_blocks_share_the_defect_group_of_their_defect_class(monkeypatch, name):
    G = library_group(name)  # fresh: no defect groups cached
    table = character_table(G)
    grown = []
    sylow_in = Group._sylow_in

    def counted(self, p, among):
        grown.append(p)
        return sylow_in(self, p, among)

    monkeypatch.setattr(Group, "_sylow_in", counted)
    classes = set()
    for p in primefactors(G.order):
        first = {}
        for B in p_blocks(table, p):
            k = _defect_class(table, p, B.lam)
            assert first.setdefault(k, B.defect_group) is B.defect_group
            classes.add((p, k))
    assert len(grown) == len(classes) < sum(len(p_blocks(table, p))
                                            for p in primefactors(G.order))
