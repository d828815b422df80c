"""Metamorphic tests: results do not depend on how a group is presented.

Renaming the points of a group by a seeded permutation gives an isomorphic
permutation group, so every signed pair count, blockwise and block-free at
every defect, the shape of every chain-orbit listing and the verdict of
every check must come out the same.  Block indices follow the table's row
order, so blockwise results are compared as a multiset keyed by each
block's defect and degrees.

Rebuilding a group from a random generating set gives the same group with
another stabilizer chain, so its degrees, block defects, signed pair counts
and check verdicts must come out the same.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import primefactors

from test_kernels import relabelled

from pblocks.blocks import p_blocks
from pblocks.chains import pair_set, signed_pair_counts
from pblocks.chartable import character_table
from pblocks.conjectures import (
    defect_support_scan,
    pi_pairing_check,
    verify_abelian_defect,
    verify_am_count,
    verify_blockfree,
    verify_max_defect,
)
from pblocks.cyclotomic import _nu
from pblocks.groups import Group
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


def outcome(report) -> tuple:
    return report.check, report.verdict, report.left, report.right


def verdicts(G, p: int) -> tuple:
    """Outcomes of the Alperin-McKay count and the pi-pairing of every block,
    the abelian-defect checks and the defect scan."""
    table = character_table(G)
    blocks = p_blocks(table, p)
    key = {B.index: (B.defect, sorted(table.degrees[i] for i in B.members))
           for B in blocks}
    # counts of a not-applicable check are None, so the multisets sort by repr
    blockwise = sorted(((key[B.index], outcome(verify_am_count(G, B)),
                         outcome(pi_pairing_check(G, B))) for B in blocks), key=repr)
    abelian = sorted(((key[r.inputs["block"]], r.inputs.get("f"), outcome(r))
                      for r in verify_abelian_defect(G, p)), key=repr)
    return blockwise, abelian, outcome(defect_support_scan(G, p))


_verdicts = {}


@pytest.mark.parametrize("name,p", CASES)
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_verdicts_survive_relabelling(name, p, seed):
    G = library_group(name)
    if (name, p) not in _verdicts:
        _verdicts[name, p] = verdicts(G, p)
    assert verdicts(relabelled(G, seed), p) == _verdicts[name, p]


def regenerated(G, seed) -> Group:
    """G rebuilt from random elements, drawn until they generate all of G."""
    rng = random.Random(seed)
    elements = G.elements()
    gens = []
    while True:
        gens.append(rng.choice(elements))
        H = Group(G.degree, gens)
        if H.order == G.order:
            return H


def presentation_invariants(G, p: int) -> tuple:
    table = character_table(G)
    checks = verify_max_defect(G, p) + [verify_blockfree(G, p)]
    return (sorted(table.degrees), sorted(B.defect for B in p_blocks(table, p)),
            signed_pair_counts(G, G.trivial_subgroup(), p),
            sorted((r.check, r.verdict, r.left, r.right) for r in checks))


_presented = {}


@pytest.mark.parametrize("name,p", CASES)
@settings(derandomize=True, deadline=None, max_examples=8, database=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_generating_sets_change_nothing(name, p, seed):
    G = library_group(name)
    if (name, p) not in _presented:
        _presented[name, p] = presentation_invariants(G, p)
    H = regenerated(G, seed)
    assert H.elements() == G.elements()
    assert presentation_invariants(H, p) == _presented[name, p]
