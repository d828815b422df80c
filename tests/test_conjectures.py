"""Counting checks on worked instances, including an ambient overgroup."""

import pytest
from sympy import primefactors

from kernel_oracles import nu_by_division, pmul, relabelled
from pblocks.blocks import p_blocks
from pblocks.chains import pair_set
from pblocks.chartable import character_table
from pblocks.conjectures import (
    boundary_sets,
    defect_support_scan,
    final_term_pairing,
    pairing_with_repair,
    pi_pairing_check,
    verify_abelian_defect,
    verify_am_count,
    verify_blockfree,
    verify_max_defect,
    verify_pair_count,
)
from pblocks.errors import InputError
from pblocks.library import acceptance_corpus, direct_product, library_group


def test_a5_counts(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    rep = verify_pair_count(A5, B0, d=2)
    assert rep.verdict == "pass" and (rep.left, rep.right) == (8, 8)
    orbs = rep.witness["chain_orbits"]
    assert [o["sign"] for o in orbs] == ["+", "-", "-", "+"]
    assert [o["stabilizer_order"] for o in orbs] == [60, 4, 12, 4]
    vac = verify_pair_count(A5, B0, d=1)
    assert vac.verdict == "pass" and (vac.left, vac.right) == (0, 0)


def test_central_defect_not_applicable(grp):
    A5 = grp("A5")
    b1 = p_blocks(character_table(A5), 2)[1]  # defect zero
    rep = verify_pair_count(A5, b1, d=0)
    assert rep.verdict == "not-applicable"


def test_strict_mode_requires_central_core(grp):
    S4 = grp("S4")
    B = p_blocks(character_table(S4), 2)[0]
    rep = verify_pair_count(S4, B, S4.p_core(2), 3, mode="strict")
    assert rep.verdict == "not-applicable"
    rep2 = verify_pair_count(S4, B, S4.p_core(2), 3, mode="permissive")
    assert rep2.verdict == "pass" and rep2.left == rep2.right == 4


def test_max_defect_a5_s4(grp):
    for name, p in [("A5", 2), ("S4", 2), ("S4", 3), ("S5", 2), ("SL23", 2)]:
        for rep in verify_max_defect(grp(name), p):
            assert rep.verdict in ("pass", "not-applicable")
            if rep.verdict == "pass":
                assert rep.left == rep.right


def test_max_defect_nonmaximal_block_s5(grp):
    # S5 at p=2 has a defect-1 block with two degree-4 characters; its
    # maximal defect count must also balance
    S5 = grp("S5")
    blocks = p_blocks(character_table(S5), 2)
    small = [b for b in blocks if b.defect == 1]
    assert len(small) == 1
    rep = verify_pair_count(S5, small[0], d=1)
    assert rep.verdict == "pass" and rep.left == rep.right == 2


def test_am_counts(grp):
    A5 = grp("A5")
    for B in p_blocks(character_table(A5), 2):
        rep = verify_am_count(A5, B)
        assert rep.verdict == "pass"
        if B.is_principal:
            assert rep.left == rep.right == 4
    S4 = grp("S4")
    rep = verify_am_count(S4, p_blocks(character_table(S4), 2)[0])
    assert rep.left == rep.right == 4
    rep3 = verify_am_count(S4, p_blocks(character_table(S4), 3)[0])
    assert rep3.verdict == "pass" and rep3.left == 3


def test_abelian_defect_reports(grp):
    A5 = grp("A5")
    reports = verify_abelian_defect(A5, 2)
    by_check = {}
    for r in reports:
        by_check.setdefault(r.check, []).append(r)
    assert all(r.verdict == "pass" for r in by_check["abelian-defect-heights"])
    counts = by_check["abelian-defect-count"]
    assert {(r.inputs["f"], r.left, r.right) for r in counts} == {(1, 0, 0), (2, 8, 8)}
    S4 = grp("S4")
    s4_reports = verify_abelian_defect(S4, 2)
    na = [r for r in s4_reports if r.verdict == "not-applicable"]
    assert na and na[0].witness["positive_height_members"] == [(2, 1)]


APPLICABILITY_CASES = (
    [(name, p, 7) for name in acceptance_corpus()
     for p in primefactors(library_group(name).order)]
    + [("S4xS3", 2, None), ("A4xA5", 2, None), ("S4xS4", 2, None)]
)


@pytest.mark.parametrize("name, p, seed", APPLICABILITY_CASES)
def test_one_applicability_rule(name, p, seed):
    # max-defect, pi-pairing and the abelian-defect counts apply to the same
    # blocks: those whose defect group D is not central (read here by tuple
    # products of generators) and whose defect exceeds log_p |O_p(G)|; the
    # abelian-defect rows run f over (log_p |O_p(G)|, d(B)] in max-defect's mode
    G = library_group(name) if seed is None else relabelled(library_group(name), seed)
    m = nu_by_division(G.p_core(p).order, p)
    abelian = verify_abelian_defect(G, p)
    for B, rep in zip(p_blocks(character_table(G), p), verify_max_defect(G, p), strict=True):
        D = B.defect_group
        central = all(pmul(x, g) == pmul(g, x) for x in D.generators for g in G.generators)
        applies = not central and B.defect > m
        pi = pi_pairing_check(G, B)
        assert (rep.verdict != "not-applicable") == applies
        assert (pi.verdict != "not-applicable") == applies
        if not applies:
            assert rep.witness["reason"] == ("central defect groups" if central else
                                             "defect group equals the non-central p-core")
            assert pi.witness["reason"] == "no non-boundary chains for this block"
        if D.is_abelian():
            rows = [r for r in abelian
                    if r.check == "abelian-defect-count" and r.inputs["block"] == B.index]
            assert [r.inputs["f"] for r in rows] == list(range(m + 1, B.defect + 1) if applies else ())
            assert all(r.inputs["mode"] == rep.inputs["mode"] for r in rows)


def test_blockfree(grp):
    rep = verify_blockfree(grp("A5"), 2)
    assert rep.verdict == "pass"
    assert rep.witness["mckay"]["p_prime_degree_count"] == 4
    assert rep.witness["mckay"]["sylow_normalizer_count"] == 4
    rep3 = verify_blockfree(grp("S3"), 3)
    assert rep3.verdict == "pass" and rep3.left == rep3.right == 3
    with pytest.raises(InputError):
        verify_blockfree(grp("C4"), 2, grp("C4").full_subgroup())
    with pytest.raises(InputError):
        verify_blockfree(grp("S3"), 5)  # |U| = |G|_5 = 1


def test_defect_support_scan(grp):
    rep = defect_support_scan(grp("A4"), 2)
    assert rep.verdict == "pass"
    counts = rep.witness["counts_by_defect"]
    assert counts["0"] == [0, 0] and counts["1"] == [0, 0]
    assert counts["2"][0] == counts["2"][1] > 0
    assert rep.witness["flagged"] == []
    rep5 = defect_support_scan(grp("A5"), 2)
    flagged = rep5.witness["flagged"]
    assert [f["f"] for f in flagged] == [0]
    assert flagged[0]["counts"] == [1, 0]
    assert flagged[0]["pairs"][0]["char_degree"] == 4
    assert rep5.notes
    s4 = defect_support_scan(grp("S4"), 2)
    assert s4.verdict == "not-applicable"


def test_boundary_sets(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    S = pair_set(A5, B0, A5.trivial_subgroup(), 2)
    bounds = boundary_sets(S, B0)
    assert len(bounds.C0) == 4 and len(bounds.C1) == 4
    assert len(bounds.Jplus) == 4 and len(bounds.Jminus) == 4
    c1_chains = {S.orbits[p_[0]].chain.terms[1].order for p_ in bounds.C1}
    assert c1_chains == {4}


def test_final_term_pairing_a5(grp):
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    witness = final_term_pairing(A5, B0)
    assert len(witness.chain_pairs) == 1
    ci, cj, n, m = witness.chain_pairs[0]
    assert (n, m) == (4, 4)
    orbits = pair_set(A5, B0, A5.trivial_subgroup(), 2).orbits
    assert [t.order for t in orbits[ci].chain.terms] == [1, 2, 4]
    assert [t.order for t in orbits[cj].chain.terms] == [1, 2]


@pytest.mark.parametrize("name,p", [
    ("A5", 2), ("S4", 2), ("S5", 2), ("SL23", 2), ("A5", 5), ("S4", 3),
    ("A4", 3), ("F20", 5), ("F21", 7), ("C2xA4", 2),
])
def test_final_term_pairing_corpus(grp, name, p):
    G = grp(name)
    for B in p_blocks(character_table(G), p):
        from pblocks.blocks import is_central_defect

        m = _nu(G.p_core(p).order, p)
        if is_central_defect(B) or B.defect <= m:
            continue
        witness = final_term_pairing(G, B)
        for (_ci, _cj, n, m2) in witness.chain_pairs:
            assert n == m2
        rep, full = pairing_with_repair(G, B)
        assert rep.verdict == "pass"
        S = pair_set(G, B, G.p_core(p), B.defect)
        bounds = boundary_sets(S, B)
        image = {full.repaired_map[pr] for pr in bounds.C0}
        assert image == set(bounds.C1)


def test_ambient_equivariance_a4_in_s4(grp):
    A4 = grp("A4")
    S4gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    from pblocks.groups import Group

    S4 = Group(4, S4gens)
    B = p_blocks(character_table(A4), 3)[0]
    rep = verify_pair_count(A4, B, d=1, A=S4)
    assert rep.verdict == "pass"
    sizes = rep.witness["ambient_orbit_sizes"]
    assert sizes["plus"] == sizes["minus"] == [1, 2]


def test_ambient_must_contain_group(grp):
    A4 = grp("A4")
    B = p_blocks(character_table(A4), 3)[0]
    S3 = grp("S3")
    with pytest.raises(InputError):
        verify_pair_count(A4, B, d=1, A=S3)


def test_ambient_self_action_trivial(grp):
    # with A = G every orbit has size one on both sides
    A5 = grp("A5")
    B0 = p_blocks(character_table(A5), 2)[0]
    rep = verify_pair_count(A5, B0, d=2, A=A5)
    assert rep.verdict == "pass"
    sizes = rep.witness["ambient_orbit_sizes"]
    assert sizes["plus"] == [1] * 8 and sizes["minus"] == [1] * 8


def _nu(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
