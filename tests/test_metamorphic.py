"""Metamorphic relabelling: pair sets do not depend on the names of the points.

Renaming the points of a group by a seeded permutation gives an isomorphic
permutation group, so every signed pair count, blockwise and block-free at
every defect, and the shape of every chain-orbit listing must come out the
same.  Block indices follow the table's row order, so blockwise results are
compared as a multiset keyed by each block's defect and degrees.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors

from test_kernels import relabelled

from pblocks.blocks import p_blocks
from pblocks.chains import pair_set, signed_pair_counts
from pblocks.chartable import _nu, character_table
from pblocks.library import library_group

CASES = [(name, p) for name in ("S4", "A5", "SL23", "D8", "C2xD4")
         for p in primefactors(library_group(name).order)]


def listing(S) -> tuple:
    """Signed counts and the multiset of (length, term orders, stabilizer
    order, eligible characters) over the chain orbits of a pair set."""
    return S.counts, sorted(
        (o.chain.length, tuple(t.order for t in o.chain.terms), o.stabilizer.order,
         len(chars))
        for o, chars in zip(S.orbits, S.chars))


def invariants(G, p: int) -> tuple:
    table = character_table(G)
    blocks = p_blocks(table, p)
    U, core = G.trivial_subgroup(), G.p_core(p)
    per_defect = []
    for d in range(_nu(G.order, p) + 1):
        blockwise = sorted(
            (B.defect, sorted(table.degrees[i] for i in B.members),
             listing(pair_set(G, B, core, d)))
            for B in blocks)
        per_defect.append((listing(pair_set(G, "all", U, d, p=p)), blockwise))
    return signed_pair_counts(G, U, p), per_defect


_expected = {}


@pytest.mark.parametrize("name,p", CASES)
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pair_sets_survive_relabelling(name, p, seed):
    G = library_group(name)
    if (name, p) not in _expected:
        _expected[name, p] = invariants(G, p)
    assert invariants(relabelled(G, seed), p) == _expected[name, p]
