"""The ambient action on element indices against the tuple oracle.

For same-degree normal pairs G <= A from the catalogue, and for a seeded
relabelling of each, the orbit-size multisets of A_B on the signed pairs
and the verdicts of the pair count must equal those of
``ambient_oracle``, for every prime dividing |G|, every block and every
defect value up to the block's defect.  V4 in A4 and S4 from the trivial
start is the case where the ambient action moves chains between stored
orbits: the chains 1 < C2 < V4 form three orbits of V4, which A4 permutes.
"""

import pytest
from ambient_oracle import ambient_orbit_sizes as oracle_orbit_sizes
from ambient_oracle import block_stabilizer as oracle_block_stabilizer
from kernel_oracles import relabelled
from pblocks.blocks import p_blocks
from pblocks.chains import pair_set
from pblocks.chartable import character_table
from pblocks.conjectures import (
    _chain_image,
    ambient_orbit_sizes,
    block_stabilizer,
    verify_pair_count,
)
from pblocks.groups import Group

PAIRS = [("C4", "D4"), ("C5", "D5"), ("D5", "F20"), ("C5", "F20"), ("C7", "F21"),
         ("A4", "S4"), ("A5", "S5"), ("A6", "S6")]


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("relabel", [False, True], ids=["plain", "relabelled"])
@pytest.mark.parametrize("names", PAIRS, ids=["<".join(pair) for pair in PAIRS])
def test_ambient_action_matches_tuple_oracle(grp, names, relabel):
    G, A = grp(names[0]), grp(names[1])
    if relabel:  # the same seed renames the points of both alike
        G, A = relabelled(G, f"ambient:{names}"), relabelled(A, f"ambient:{names}")
    table = character_table(G)
    for p in _primes(G.order):
        core = G.p_core(p)
        mode = "strict" if core.elements <= G.center().elements else "permissive"
        for B in p_blocks(table, p):
            stab, _ = block_stabilizer(A, G, B)
            assert stab.order == oracle_block_stabilizer(A, G, B).order
            for d in range(B.defect + 1):
                plus, minus = oracle_orbit_sizes(G, A, B, pair_set(G, B, core, d))
                assert [sorted(s) for s in ambient_orbit_sizes(
                    G, A, B, pair_set(G, B, core, d))] == [sorted(plus), sorted(minus)]
                rep = verify_pair_count(G, B, core, d, A=A, mode=mode)
                if rep.verdict != "not-applicable":
                    equal = rep.left == rep.right and sorted(plus) == sorted(minus)
                    assert rep.verdict == ("pass" if equal else "fail")


@pytest.mark.parametrize("relabel", [False, True], ids=["plain", "relabelled"])
@pytest.mark.parametrize("ambient", ["A4", "S4"])
def test_ambient_action_moves_chains_between_orbits(grp, ambient, relabel):
    G, A = Group(4, [(1, 0, 3, 2), (2, 3, 0, 1)]), grp(ambient)
    if relabel:
        seed = f"ambient:V4<{ambient}"
        G, A = relabelled(G, seed), relabelled(A, seed)
    B, = p_blocks(character_table(G), 2)
    start = G.trivial_subgroup()
    for d in range(B.defect + 1):
        S = pair_set(G, B, start, d)
        plus, minus = oracle_orbit_sizes(G, A, B, S)
        assert [sorted(s) for s in ambient_orbit_sizes(G, A, B, S)] == [
            sorted(plus), sorted(minus)]
    rows = A._array().rows
    moves = [G._conj_rows(rows[x]) for x in block_stabilizer(A, G, B)[1]]
    assert any(_chain_image(G, S, ci, move)[0] != ci
               for ci in range(len(S.orbits)) for move in moves)
