"""Cross-module invariants that do not belong to a single operation."""

import pytest

from chain_oracles import chain_conjugate_into
from cyclo_oracle import Cyclo, _reduce_exponent_map
from pblocks.blocks import p_blocks
from pblocks.chains import pair_set
from pblocks.chartable import character_table, defects
from pblocks.cyclotomic import euler_phi
from pblocks.groups import Group


def _nu(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("name,p", [
    ("A5", 2), ("S4", 2), ("S5", 2), ("SL23", 3), ("F20", 5),
])
def test_defect_bounds_and_maximality(grp, name, p):
    table = character_table(grp(name))
    full = _nu(table.group.order, p)
    for i in range(table.r):
        d = defects(table, p)[i]
        assert 0 <= d <= full
        assert (d == full) == (table.degrees[i] % p != 0)


@pytest.mark.parametrize("name,p", [("A5", 2), ("S4", 2), ("SL23", 2), ("S5", 2)])
def test_pairs_conjugate_into_a_defect_group(grp, name, p):
    """Every eligible chain is conjugate to one lying inside a defect group."""
    G = grp(name)
    table = character_table(G)
    for B in p_blocks(table, p):
        Z = G.p_core(p)
        S = pair_set(G, B, Z, B.defect)
        D = B.defect_group
        for pr in S.plus + S.minus:
            chain = S.orbits[pr[0]].chain
            assert chain_conjugate_into(G, chain, D) is not None, (
                name, p, B.index, [t.order for t in chain.terms])


def test_cyclotomic_reduction_idempotent():
    # reducing an already reduced coefficient vector changes nothing
    for e in [4, 6, 12, 15]:
        z = Cyclo.root_of_unity(e, e - 1)
        again = Cyclo(e, _reduce_exponent_map(
            e, {i: c for i, c in enumerate(z.coeffs)}))
        assert again == z
        assert len(z.coeffs) == euler_phi(e)


def test_stabilizer_character_fixed_by_stabilizer(grp):
    # pair orbits over a fixed chain correspond to stabilizer characters:
    # conjugation by stabilizer elements permutes classes but fixes each row
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    S = pair_set(A5, B0, A5.trivial_subgroup(), 2)
    from kernel_oracles import class_index, conj
    from pblocks.perms import pinv

    for o in S.orbits:
        H = o.stabilizer.as_group()
        table = character_table(H)
        idx = class_index(H)
        for g in o.stabilizer.generators:
            gi = pinv(g)
            col = [idx[conj(c.rep, gi)] for c in table.classes]
            for i in range(table.r):
                assert table.row_index_of_values(table.values[i][col]) == i


def test_block_count_independent_of_generating_set(grp):
    # same group, different generators: canonical block data agrees
    a = Group(5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2), (1, 0, 3, 2, 4)])
    b = grp("A5")
    assert a.order == b.order == 60
    ta, tb = character_table(a), character_table(b)
    assert ta.degrees == tb.degrees
    assert [sorted(ta.degrees[i] for i in blk.members) for blk in p_blocks(ta, 2)] \
        == [sorted(tb.degrees[i] for i in blk.members) for blk in p_blocks(tb, 2)]
