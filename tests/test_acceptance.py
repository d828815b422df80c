"""Acceptance suite.

One test per criterion; each prints a single PASS line when it completes so
a verbose run reads as a checklist.  The corpus is the fixed list from
pblocks.library.acceptance_corpus(): every built-in catalogue entry of
order at most 200 used by this project, plus the named small groups.
"""

import json
import random
from pathlib import Path

import pytest

from pblocks.blocks import (
    brauer_correspondent,
    brauer_induce,
    heights,
    irr0,
    is_central_defect,
    p_blocks,
)
from pblocks.chains import pair_set
from pblocks.chartable import _validate_table, character_table, defects
from pblocks.cli import run
from pblocks.conjectures import (
    final_term_pairing,
    repair_bijection,
    verify_abelian_defect,
    verify_am_count,
    verify_blockfree,
    verify_max_defect,
)
from pblocks.library import acceptance_corpus, library_group

FIXTURE = Path(__file__).parent / "fixtures" / "a5_p2_principal_chains.json"


def _primes_of(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _nu(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.fixture(scope="module")
def corpus():
    return {name: library_group(name) for name in acceptance_corpus()}


def test_criterion_1_table_validity(corpus):
    """Both orthogonality relations hold exactly; sum of deg^2 = |G|."""
    for name, G in corpus.items():
        table = character_table(G)
        _validate_table(table)  # raises on any exact-arithmetic violation
        assert sum(d * d for d in table.degrees) == G.order, name
        assert table.r == len(G.conjugacy_classes()), name
    print("\nACCEPTANCE 1: PASS character-table validity on "
          f"{len(corpus)} corpus groups")


def test_criterion_2_block_axioms(corpus):
    checked = 0
    for name, G in corpus.items():
        table = character_table(G)
        for p in _primes_of(G.order):
            blocks = p_blocks(table, p)
            assert sorted(i for b in blocks for i in b.members) == list(range(table.r))
            assert sum(1 for b in blocks if b.is_principal) == 1
            core = G.p_core(p)
            for b in blocks:
                assert b.defect == max(defects(table, p)[i] for i in b.members), name
                assert b.defect_group.order == p**b.defect, name
                assert any(core.elements <= s
                           for s in b.defect_group.class_orbit), name
                checked += 1
    print(f"\nACCEPTANCE 2: PASS block axioms on {checked} blocks")


def test_criterion_3_brauer_machinery(corpus):
    round_trips = 0
    principal_inductions = 0
    for name, G in corpus.items():
        table = character_table(G)
        for p in _primes_of(G.order):
            for B in p_blocks(table, p):
                b = brauer_correspondent(B)
                assert brauer_induce(b, G) == B, name
                assert b.defect == B.defect, name
                round_trips += 1
            # sampled lattice: normalizers of p-subgroup class representatives
            B0 = p_blocks(table, p)[0]
            for h in G.p_subgroup_classes(p):
                N = G.normalizer(h).as_group()
                nb0 = p_blocks(character_table(N), p)[0]
                assert nb0.is_principal
                assert brauer_induce(nb0, G) == B0, name
                principal_inductions += 1
    print(f"\nACCEPTANCE 3: PASS Brauer correspondence round trips "
          f"({round_trips}) and principal inductions ({principal_inductions})")


def test_criterion_4_max_defect_counts_at_2(corpus):
    """Every 2-block with non-central defect balances at d = d(B)."""
    passes = 0
    not_applicable = 0
    for name, G in corpus.items():
        if G.order % 2:
            continue
        for rep in verify_max_defect(G, 2):
            assert not rep.failed, (name, rep.inputs, rep.left, rep.right)
            if rep.passed:
                assert rep.left == rep.right
                passes += 1
            else:
                not_applicable += 1
    assert passes > 0
    print(f"\nACCEPTANCE 4: PASS max-defect pair counts at p=2 "
          f"({passes} checked, {not_applicable} not applicable)")


def test_criterion_5_am_counts_all_primes(corpus):
    checked = 0
    for name, G in corpus.items():
        table = character_table(G)
        for p in _primes_of(G.order):
            for B in p_blocks(table, p):
                rep = verify_am_count(G, B)
                assert rep.passed, (name, p, B.index)
                checked += 1
    print(f"\nACCEPTANCE 5: PASS height-zero counting on {checked} blocks")


def test_criterion_6_abelian_defect_consistency(corpus):
    height_checks = 0
    count_checks = 0
    for name, G in corpus.items():
        if G.order % 2:
            continue
        for rep in verify_abelian_defect(G, 2):
            if rep.verdict == "not-applicable":
                continue
            assert rep.passed, (name, rep.check, rep.inputs)
            if rep.check == "abelian-defect-heights":
                height_checks += 1
            else:
                count_checks += 1
    print(f"\nACCEPTANCE 6: PASS abelian-defect heights ({height_checks}) "
          f"and admissible counts ({count_checks}) at p=2")


def test_criterion_7_blockfree_counts(corpus):
    checked = 0
    for name, G in corpus.items():
        for p in (2, 3, 5):
            if G.order % p:
                continue  # the start term must be smaller than a Sylow group
            rep = verify_blockfree(G, p)
            assert rep.passed, (name, p, rep.left, rep.right,
                                rep.witness["mckay"])
            checked += 1
    print(f"\nACCEPTANCE 7: PASS block-free and Sylow-normalizer counts on "
          f"{checked} (group, prime) pairs")


def test_criterion_8a_repair_randomized():
    rng = random.Random(20240811)
    trials = 10_000
    for trial in range(trials):
        n = rng.randrange(1, 65)
        k = rng.randrange(0, n + 1)
        xp = [("a", i) for i in range(n)]
        xm = [("b", i) for i in range(n)]
        c0 = set(rng.sample(xp, k))
        c1 = set(rng.sample(xm, k))
        img = list(xm)
        rng.shuffle(img)
        omega = dict(zip(xp, img))
        rest_p = [x for x in xp if x not in c0]
        rest_m = [y for y in xm if y not in c1]
        rng.shuffle(rest_m)
        pi = dict(zip(rest_p, rest_m))
        result = repair_bijection(xp, c0, xm, c1, omega, pi)
        out = result.mapping
        assert len(set(out.values())) == n
        assert {out[x] for x in c0} == c1
        touched = {u for e in result.swap_log for pr in e["swapped"] for u in pr}
        assert all(out[x] == omega[x] for x in xp if x not in touched)
        assert all(len(e["chase"]) <= n for e in result.swap_log)
    print(f"\nACCEPTANCE 8a: PASS {trials} randomized repair trials")


def test_criterion_8b_final_term_pairing(corpus):
    paired = 0
    for name, G in corpus.items():
        table = character_table(G)
        for p in _primes_of(G.order):
            core = G.p_core(p)
            if not core.elements <= G.center().elements:
                continue  # strict hypotheses only
            for B in p_blocks(table, p):
                if is_central_defect(B) or B.defect <= _nu(core.order, p):
                    continue
                witness = final_term_pairing(G, B)
                for (_ci, _cj, n, m) in witness.chain_pairs:
                    assert n == m, (name, p, B.index)
                paired += 1
    assert paired > 0
    print(f"\nACCEPTANCE 8b: PASS sign-reversing chain pairing on {paired} "
          f"strict-mode blocks")


def test_criterion_9_a5_fixture(capsys):
    code = run(["chains", "--lib", "A5", "--prime", "2", "--block", "0",
                "--start", "trivial", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    expected = FIXTURE.read_text(encoding="utf-8")
    assert out == expected, "A5 fixture drifted from the documented bytes"
    doc = json.loads(out)["result"]
    assert [o["sign"] for o in doc["orbits"]] == ["+", "-", "-", "+"]
    assert [o["stabilizer_order"] for o in doc["orbits"]] == [60, 4, 12, 4]
    assert doc["pair_counts"] == {"plus": 8, "minus": 8}
    with capsys.disabled():
        print("\nACCEPTANCE 9: PASS A5 fixture is byte-identical")


def test_corpus_is_desk_scale(corpus):
    for name, G in corpus.items():
        assert G.order <= 200, name
