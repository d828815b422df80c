"""Array kernels against the tuple scans they replaced.

The oracles below are the element-by-element scans over tuple permutations
that the array versions in ``groups`` and ``chartable`` replaced: the power
map, centralizers, normalizers and normality, subgroup conjugation orbits
and the subgroups of a p-group, and the transporter into any set of
elements, subgroup or not; with ``kernel_oracles``, the classes, the
class-multiplication tensor (of which the table builds one class matrix at
a time), the breadth-first element closure and the tuple reduction of
central characters.  They are compared on every acceptance-corpus group and
on a seeded relabelling of its points, together with the float64 product
and lift routes of the table code against the same computations in exact
Python integers, and the eigenspace split against the split that reduces
every basis again, splits every space and finds each eigenspace as a
nullspace, both reading the classes in the same order; the split reads
only the class matrices that it needs, in the order of class size and
prime element order first, and takes Krylov blocks only on the reads that
split a space; the float guards are sized by the data, and the row
orthogonality check rejects every corrupted table that the column check
rejects.  The p-th
powers of the elements are compared with p - 1 repeated gathers.  Each level
of the p-subgroup lattice is counted without its fusion: 1 mod p subgroups
(Frobenius), |G : N_G(S)| Sylow subgroups, and |G : N_G(H)| members in the
class of H.  The subgroups of a Sylow subgroup are compared with the tuple
oracle also on the benchmark's larger Sylow subgroups, plain and
relabelled; they number 1 mod p at each order, and on C2^6 and C3^4 each
order's count is the Gaussian binomial.  Each block's defect group, grown
among the centraliser's indices in G, is compared with the Sylow subgroup
that the centraliser's own group grows.  Each table's splitting prime, its primitive root and the
reduction moduli are compared with sympy.  Complex conjugation as
``galois_matrix(e, -1)`` and the one p-adic valuation ``_nu`` are compared
with the routines they replaced.  The int64 row keys equal the rows read as
base-degree numbers in exact Python integers and ascend with the rows, up to
the 15-point bound; past it the void keys do.
"""

from dataclasses import replace
from itertools import groupby
from math import isqrt, prod
from pathlib import Path

import numpy as np
import pytest
from sympy import isprime, primefactors, primitive_root

from kernel_oracles import (
    SparseTensor,
    TupleField,
    class_index,
    closure,
    conj,
    conj_matrix,
    generating_subset,
    nu_by_division,
    oracle_classes,
    oracle_cmc,
    oracle_common_eigenvectors,
    perm_set,
    relabelled,
    sympy_canonical_factor,
    triples,
)
from pblocks import chartable
from pblocks.blockfield import block_field
from pblocks.blocks import _defect_class, brauer_correspondent, omega_int_vectors, p_blocks
from pblocks.chartable import (
    CharTable,
    _ClassMatrices,
    _check_exact,
    _check_float_exact,
    _common_eigenvectors,
    _lift_values,
    _pairwise_products,
    _read_order,
    _validate_table,
    character_table,
    galois_matrix,
)
from pblocks.config import Limits
from pblocks.cyclotomic import _nu, _power_reductions, euler_phi
from pblocks.errors import InternalError, ResourceError
from pblocks.groups import _KEY_CHUNK, Group, _member_mask, _subgroups_of_p_group
from pblocks.library import acceptance_corpus, library_group, parse_group_file
from pblocks.modlinalg import inv_mod
from pblocks.perms import parse_cycles, pinv, pmul

# -- brute-force oracles --------------------------------------------------------


def oracle_power_map(table):
    """power_map[k, t] = class of rep_k^t, by tuple products and class lookups."""
    idx = class_index(table.group)
    pm = np.zeros((table.r, table.conductor), dtype=np.int64)
    for k, c in enumerate(table.classes):
        acc = table.group.identity
        for t in range(table.conductor):
            pm[k, t] = idx[acc]
            acc = pmul(acc, c.rep)
    return pm


def oracle_powers(G, p):
    """Index of x^p for every element x, by p - 1 gathers on the element rows."""
    arr = G._array()
    power = arr.rows
    for _ in range(p - 1):
        power = np.take_along_axis(arr.rows, power, axis=1)
    return arr.index(power)


def oracle_reduction(field, omega, src_conductor):
    """Each [phi] vector of an integer array reduced by the tuple field."""
    oracle = TupleField(field)
    flat = omega.reshape(-1, omega.shape[-1])
    out = [oracle.reduce_int_vector(v, src_conductor) for v in flat]
    return np.array(out, dtype=np.int64).reshape(omega.shape[:-1] + (field.f,))


def oracle_centralizer(G, x):
    return frozenset(g for g in G.elements() if pmul(g, x) == pmul(x, g))


def oracle_normalizer(G, sub_elements, sub_gens):
    return frozenset(g for g in G.elements()
                     if all(conj(h, g) in sub_elements for h in sub_gens))


def oracle_subgroup_orbit(G, elements):
    """G-orbit of a subgroup by tuple conjugation, sorted by element tuples."""
    seen = {elements}
    queue = [elements]
    while queue:
        s = queue.pop()
        for g in G.generators:
            t = frozenset(conj(x, g) for x in s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return tuple(sorted(seen, key=lambda s: tuple(sorted(s))))


def perm_orbit(G, rows):
    """A subgroup orbit given as rows of element indices, as element sets."""
    return tuple(perm_set(G, s) for s in rows.tolist())


def oracle_subgroups_of_p_group(degree, elements, p):
    """Every subgroup of a p-group as <Q, x>, x in N_P(Q) \\ Q with x^p in Q,
    by tuple closures."""
    idp = tuple(range(degree))
    elems = sorted(elements)
    levels = [{frozenset([idp])}]
    found = {frozenset([idp])}
    while levels[-1]:
        nxt = set()
        for q in levels[-1]:
            q_gens = generating_subset(degree, sorted(q))
            for x in elems:
                if x in q or not all(conj(h, x) in q for h in q_gens):
                    continue
                xp = x
                for _ in range(p - 1):
                    xp = pmul(xp, x)
                if xp in q:
                    nxt.add(closure(degree, q_gens + [x], seed=q))
        found |= nxt
        levels.append(nxt)
    return found


def exact_pairwise_products(A, B, weights, e):
    """The cyclotomic pairwise products in Python integers (object arrays)."""
    A, B, weights = A.astype(object), B.astype(object), weights.astype(object)
    phi = A.shape[2]
    rows = np.array(_power_reductions(e)[: 2 * phi - 1], dtype=object)[:, :phi]
    wb = B * weights[None, :, None]
    conv = np.zeros((A.shape[0], B.shape[0], 2 * phi - 1), dtype=object)
    for s in range(phi):
        conv[:, :, s : s + phi] += np.tensordot(A[:, :, s], wb, axes=([1], [1]))
    return np.tensordot(conv, rows, axes=([2], [0]))


def exact_lift(table, values_mod, ell, z):
    """Fourier inversion of the character values in Python integers."""
    e, phi = table.conductor, table.phi
    pm = table.power_map()
    zinv, inv_e = inv_mod(z, ell), inv_mod(e, ell)
    basis = [row[:phi] for row in _power_reductions(e)[:e]]
    out = np.zeros((table.r, table.r, phi), dtype=np.int64)
    for i in range(table.r):
        for k in range(table.r):
            vec = [0] * phi
            for s in range(e):
                m = sum(int(values_mod[i][pm[k, t]]) * pow(zinv, s * t, ell)
                        for t in range(e)) * inv_e % ell
                for c in range(phi):
                    vec[c] += m * basis[s][c]
            out[i, k] = vec
    return out


# -- inputs ---------------------------------------------------------------------


CASES = [(name, None) for name in acceptance_corpus()] + \
        [(name, f"7:{name}") for name in acceptance_corpus()]


@pytest.fixture(scope="module")
def group_of(grp):
    cache = {}

    def get(name, seed):
        if (name, seed) not in cache:
            G = grp(name)
            cache[name, seed] = G if seed is None else relabelled(G, seed)
        return cache[name, seed]

    return get


def _case_id(case):
    name, seed = case
    return name if seed is None else f"{name}-relabelled"


# -- comparisons ----------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_classes_and_cmc_match_oracles(group_of, case):
    G = group_of(*case)
    expected = oracle_classes(G)
    classes = G.conjugacy_classes()
    assert [(c.rep, c.size) for c in classes] == [(rep, size) for rep, size, _ in expected]
    assert all(c.centralizer_order * c.size == G.order for c in classes)
    assert class_index(G) == {x: k for k, (_, _, orb) in enumerate(expected)
                               for x in orb}
    # each class matrix is built by itself, so build them in reverse order
    oracle = oracle_cmc(G, expected)
    matrices = _ClassMatrices(character_table(G))
    assert matrices.shape == oracle.shape
    for i in reversed(range(len(classes))):
        j, k, counts = matrices[i]
        assert counts.dtype == np.int64
        assert all(np.array_equal(x, y) for x, y in zip((j, k, counts), triples(oracle[i])))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_coset_spans_match_closure(group_of, case):
    G = group_of(*case)
    assert G.elements() == tuple(sorted(closure(G.degree, G.generators)))
    for p in primefactors(G.order):
        gens = G.sylow(p).generators
        assert perm_set(G, G.handle(generators=gens).elements) == closure(G.degree, gens)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_generating_sets_match_tuple_oracle(group_of, case):
    # a handle's generators are the ascending elements its index closure
    # did not span yet, as the tuple closure chose them
    G = group_of(*case)
    handles = [G.handle(elements=G.centralizer_set(c.rep)) for c in G.conjugacy_classes()]
    handles.append(G.center())
    for p in primefactors(G.order):
        handles += [G.sylow(p), G.p_core(p)]
        for h in G.p_subgroup_classes(p):
            handles += [h, G.normalizer(h)]
    for h in handles:
        assert list(h.generators) == generating_subset(G.degree, sorted(perm_set(G, h.elements)))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_powers_match_repeated_gathers(group_of, case):
    G = group_of(*case)
    for p in (2, 3, 5, 7):
        assert np.array_equal(G._powers(p), oracle_powers(G, p))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_lift_prime_root_and_field_match_sympy(group_of, case):
    # the splitting prime, its primitive root and every reduction modulus
    # are embedded in the reports
    G = group_of(*case)
    table = character_table(G)
    ell = table.lift_meta["prime"]
    assert chartable._is_prime(ell) and isprime(ell)
    assert table.lift_meta["primitive_root"] == primitive_root(ell)
    for p in primefactors(G.order):
        field = block_field(p, table.conductor)
        assert field.modulus == sympy_canonical_factor(field.e1, p)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_power_map_matches_oracle(group_of, case):
    table = character_table(group_of(*case))
    pm = table.power_map()
    assert pm.dtype == np.int64
    assert np.array_equal(pm, oracle_power_map(table))
    idx = class_index(table.group)
    assert [table.inverse_class(k) for k in range(table.r)] == \
        [idx[pinv(c.rep)] for c in table.classes]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_reduction_matches_tuple_oracle(group_of, case):
    G = group_of(*case)
    table = character_table(G)
    omega = omega_int_vectors(table)
    for p in primefactors(G.order):
        field = block_field(p, table.conductor)
        lam = field.reduce_int_vector(omega, table.conductor)
        assert lam.shape == (table.r, table.r, field.f)
        assert np.array_equal(lam, oracle_reduction(field, omega, table.conductor))
        for B in p_blocks(table, p):
            assert all(np.array_equal(lam[i], B.lam) for i in B.members)
            # the correspondent's normaliser table, reduced into G's field
            nt = brauer_correspondent(B).table
            assert table.conductor % nt.conductor == 0
            assert np.array_equal(
                field.reduce_int_vector(omega_int_vectors(nt), nt.conductor),
                oracle_reduction(field, omega_int_vectors(nt), nt.conductor))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_centralizers_and_normalizers_match_oracles(group_of, case):
    G = group_of(*case)
    for c in G.conjugacy_classes():
        assert perm_set(G, G.centralizer_set(c.rep)) == oracle_centralizer(G, c.rep)
    assert perm_set(G, G.center().elements) == frozenset.intersection(
        *[oracle_centralizer(G, g) for g in G.generators] or [frozenset(G.elements())])
    for p in primefactors(G.order):
        for h in G.p_subgroup_classes(p):
            assert perm_set(G, G.normalizer_set(h.elements, h.generators)) == \
                oracle_normalizer(G, perm_set(G, h.elements), h.generators)
            # restricted to some of the elements, the transporter is the
            # whole-group mask at those elements
            inside = _member_mask(G.order, h.elements)
            among = np.arange(G.order - 1, -1, -3)
            assert np.array_equal(G._transporter(h.generators, inside, among),
                                  G._transporter(h.generators, inside)[among])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_is_normal_matches_the_tuple_oracle(group_of, case):
    # normal exactly when the tuple normaliser is all of G, on every class of
    # each p-subgroup lattice, the centre and the two trivial subgroups
    G = group_of(*case)
    everything = frozenset(G.elements())
    handles = [G.trivial_subgroup(), G.full_subgroup(), G.center()]
    handles += [h for p in primefactors(G.order) for h in G.p_subgroup_classes(p)]
    for h in handles:
        oracle = oracle_normalizer(G, perm_set(G, h.elements), h.generators)
        assert G.is_normal(h) == (oracle == everything)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_transporter_into_any_set_matches_the_whole_group_scan(group_of, case):
    # the images are searched for among the marked set's keys alone; against
    # the scan of every g of G, into sets that are no subgroups (a seeded
    # random set, and a right coset of each p-subgroup class that is not the
    # class itself) and into each class from G's generators, a larger group
    G = group_of(*case)
    elements = G.elements()
    position = {x: i for i, x in enumerate(elements)}
    rng = np.random.default_rng(0)
    targets = [(G.generators, frozenset(np.flatnonzero(rng.random(G.order) < 0.3).tolist()))]
    for p in primefactors(G.order):
        for h in G.p_subgroup_classes(p):
            x = elements[-1]
            coset = frozenset(position[pmul(k, x)] for k in perm_set(G, h.elements))
            targets += [(h.generators, coset), (G.generators, h.elements)]
    among = np.arange(G.order - 1, -1, -2)
    for gens, target in targets:
        mask = G._transporter(gens, _member_mask(G.order, target))
        assert perm_set(G, np.flatnonzero(mask).tolist()) == \
            oracle_normalizer(G, perm_set(G, target), gens)
        assert np.array_equal(G._transporter(gens, _member_mask(G.order, target), among),
                              mask[among])


def test_transporter_rejects_a_generator_outside_the_group(grp):
    # (0 1) is odd, so no element of A4; it is refused before any search
    A4 = grp("A4")
    for gens in ([parse_cycles("(0 1)", 4)], [A4.generators[0], parse_cycles("(0 1)", 4)]):
        with pytest.raises(InternalError, match="not an element"):
            A4._transporter(gens, _member_mask(A4.order, [0]))


@pytest.mark.parametrize("case", CASES + [("S6", None)], ids=_case_id)
def test_p_subgroups_and_orbits_match_oracles(group_of, case):
    # S6 has 720 elements, so its subgroups are uint16 index arrays
    G = group_of(*case)
    for p in primefactors(G.order):
        syl = G.sylow(p)
        subs = _subgroups_of_p_group(G, syl.elements, p, G.limits.max_p_subgroup_classes)
        assert len(subs) == len({s.tobytes() for s in subs})
        assert {perm_set(G, s.tolist()) for s in subs} == \
            oracle_subgroups_of_p_group(G.degree, perm_set(G, syl.elements), p)
        for h in G.p_subgroup_classes(p):
            orbit = oracle_subgroup_orbit(G, perm_set(G, h.elements))
            assert tuple(perm_set(G, s) for s in h.class_orbit) == orbit
            assert tuple(G.elements()[i] for i in h.canonical_key) == tuple(sorted(orbit[0]))
            assert perm_orbit(G, G.subgroup_orbit(h.elements)) == orbit
            n = G.normalizer(h).elements  # most normalizers are no p-groups
            assert perm_orbit(G, G.subgroup_orbit(n)) == \
                oracle_subgroup_orbit(G, perm_set(G, n))
        lattice = G._p_lattice(p)
        assert [rows.shape[1] for rows, _ in lattice] == sorted(
            {h.order for h in G.p_subgroup_classes(p)})
        assert [perm_set(G, s) for rows, _ in lattice for s in rows.tolist()] == sorted(
            (perm_set(G, s) for h in G.p_subgroup_classes(p) for s in h.class_orbit),
            key=lambda s: (len(s), tuple(sorted(s))))


@pytest.mark.parametrize("case", CASES + [("S6", None), ("C2xC2xC2xC2xC2", None)],
                         ids=_case_id)
def test_lattice_levels_have_the_sylow_counts(group_of, case):
    # counts that do not come from the fusion: the subgroups of order p^k
    # number 1 mod p (Frobenius), the Sylow subgroups |G : N_G(S)|, and the
    # members of each class the index of its least member's normalizer
    G = group_of(*case)
    for p in primefactors(G.order):
        lattice = G._p_lattice(p)
        assert [rows.shape[1] for rows, _ in lattice] == \
            [p**k for k in range(_nu(G.order, p) + 1)]
        classes = iter(G.p_subgroup_classes(p))
        for rows, labels in lattice:
            assert len(rows) % p == 1
            assert sorted(set(map(tuple, rows.tolist()))) == list(map(tuple, rows.tolist()))
            for i in np.flatnonzero(labels == np.arange(len(rows))).tolist():
                h = next(classes)
                assert h.elements == frozenset(rows[i].tolist())
                assert np.count_nonzero(labels == i) == G.order // G.normalizer(h).order
        assert next(classes, None) is None
        assert len(lattice[-1][0]) == G.order // G.normalizer(G.sylow(p)).order


# the bench groups with the largest Sylow subgroups: |P| = 32, 32, 32, 32, 27
LARGE_SYLOW = [("C4xC2xC2xC2", 2), ("C4xC4xC2", 2), ("D4xC2xC2", 2), ("S4xC2xC2", 2),
               ("C3xC3xC3xC2", 3)]


def sylow_subgroups(G, p):
    return _subgroups_of_p_group(G, G.sylow(p).elements, p, G.limits.max_p_subgroup_classes)


def level_sizes(subs):
    """The number of subgroups of each order, ascending; the subgroups must
    come grouped by ascending order."""
    orders = [len(s) for s in subs]
    assert orders == sorted(orders)
    return [len(list(level)) for _, level in groupby(orders)]


def gaussian_binomial(d, k, p):
    """The number of subgroups of order p^k in C_p^d."""
    return prod(p**(d - i) - 1 for i in range(k)) // prod(p**(i + 1) - 1 for i in range(k))


@pytest.mark.parametrize("name,p", LARGE_SYLOW)
@pytest.mark.parametrize("seed", [None, 7], ids=["plain", "relabelled"])
def test_subgroups_of_larger_sylow_subgroups_match_the_oracle(group_of, name, p, seed):
    G = group_of(name, None if seed is None else f"{seed}:{name}")
    syl = G.sylow(p)
    subs = sylow_subgroups(G, p)
    assert all(s.dtype == G._array().idx for s in subs)
    assert len(subs) == len({s.tobytes() for s in subs})
    assert {perm_set(G, s.tolist()) for s in subs} == \
        oracle_subgroups_of_p_group(G.degree, perm_set(G, syl.elements), p)


@pytest.mark.parametrize("name,p,d", [("C2xC2xC2xC2xC2xC2", 2, 6), ("C3xC3xC3xC3", 3, 4)])
def test_elementary_abelian_levels_are_gaussian_binomials(grp, name, p, d):
    # a second route at a scale the tuple oracle cannot reach: C2^6 has
    # 1, 63, 651, 1395, 651, 63, 1 subgroups by order, and C3^4 has
    # 1, 40, 130, 40, 1
    assert level_sizes(sylow_subgroups(grp(name), p)) == \
        [gaussian_binomial(d, k, p) for k in range(d + 1)]


@pytest.mark.parametrize(
    "case", CASES + [(name, None) for name, _ in LARGE_SYLOW] +
    [("S6", None), ("C2xC2xC2xC2xC2xC2", None), ("C3xC3xC3xC3", None)], ids=_case_id)
def test_each_order_of_a_sylow_subgroup_has_1_mod_p_subgroups(group_of, case):
    # Frobenius: a p-group has 1 mod p subgroups of each order p^k that
    # divides its order; read from the Sylow subgroup itself, not from G's
    # lattice, so no fusion takes part
    G = group_of(*case)
    for p in primefactors(G.order):
        sizes = level_sizes(sylow_subgroups(G, p))
        assert len(sizes) == _nu(G.order, p) + 1
        assert all(size % p == 1 for size in sizes)


def centraliser_sylow(G, x, p):
    """A Sylow p-subgroup of C_G(x) grown in the centraliser's own group
    and lifted back to G: the route the defect groups took before they were
    grown among G's indices."""
    cent = G.handle(elements=G.centralizer_set(x))
    return cent.lift(cent.as_group().sylow(p))


def assert_defect_groups_match_centraliser_route(G, p):
    table = character_table(G)
    for B in p_blocks(table, p):
        rep = table.classes[_defect_class(table, p, B.lam)].rep
        cent = G.centralizer_set(rep)
        assert B.defect_group.elements <= cent
        assert B.defect_group.order == p ** _nu(len(cent), p)
        assert B.defect_group == centraliser_sylow(G, rep, p)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_defect_groups_match_the_centraliser_route(group_of, case):
    G = group_of(*case)
    for p in primefactors(G.order):
        assert_defect_groups_match_centraliser_route(G, p)


def test_m12_defect_groups_match_the_centraliser_route():
    path = Path(__file__).parent / "fixtures" / "groups" / "M12.txt"
    G = parse_group_file(path.read_text(), limits=Limits(max_order=100_000))
    for p in (2, 3):
        assert_defect_groups_match_centraliser_route(G, p)


def values_mod_of(table):
    """chi(g) mod ell for the whole table, as z evaluates zeta_e, with ell and z."""
    ell, z = table.lift_meta["prime"], table.lift_meta["root_power"]
    zpow = np.array([pow(z, c, ell) for c in range(table.phi)], dtype=np.int64)
    return (table.values @ zpow) % ell, ell, z


# F21xS3 has e = 42 and no element of order 42, so the lift inverts every
# class over fewer roots of unity than the e-th ones the exact lift sums over
@pytest.mark.parametrize("case", CASES + [("F21xS3", None), ("F21xS3", 7)], ids=_case_id)
def test_float_routes_match_exact_integers(group_of, case):
    table = character_table(group_of(*case))
    e = table.conductor
    conj_values = np.tensordot(table.values, conj_matrix(e), axes=([2], [0]))
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    assert np.array_equal(_pairwise_products(table.values, conj_values, sizes, e),
                          exact_pairwise_products(table.values, conj_values, sizes, e))
    values_mod, ell, z = values_mod_of(table)
    lifted = _lift_values(table, values_mod, table.degrees, ell, z)
    assert np.array_equal(lifted, exact_lift(table, values_mod, ell, z))
    assert np.array_equal(lifted, table.values)


def test_degree_recovery_rejects_wrong_central_characters(group_of):
    # omega_chi(K) = |K| chi(g_K) / chi(1) mod ell, rescaled or zeroed per row
    table = character_table(group_of("S4", None))
    values_mod, ell, _ = values_mod_of(table)
    sizes = np.array([c.size for c in table.classes], dtype=np.int64)
    inv_degrees = np.array([inv_mod(d, ell) for d in table.degrees], dtype=np.int64)
    omegas = values_mod * sizes % ell * inv_degrees[:, None] % ell
    inv_sizes = np.array([inv_mod(int(s), ell) for s in sizes], dtype=np.int64)
    assert chartable._recover_degrees(table, omegas, inv_sizes, ell) == table.degrees
    scaled = omegas.copy()
    assert ell == 13
    scaled[0] = scaled[0] * 2 % ell  # degree 1/2 = 7 or 6 mod 13, above isqrt(24)
    with pytest.raises(InternalError, match="^degree square has no square root mod ell$"):
        chartable._recover_degrees(table, scaled, inv_sizes, ell)
    scaled[0] = 0
    with pytest.raises(InternalError, match="^degree denominator vanished mod ell$"):
        chartable._recover_degrees(table, scaled, inv_sizes, ell)


def test_lift_rejects_a_shifted_value(group_of):
    table = character_table(group_of("F21xS3", None))
    values_mod, ell, z = values_mod_of(table)
    shifted = values_mod.copy()
    shifted[4, 9] = (shifted[4, 9] + 1) % ell  # one value on a non-identity class
    with pytest.raises(InternalError, match="^eigenvalue multiplicity exceeds the degree$"):
        _lift_values(table, shifted, table.degrees, ell, z)
    with pytest.raises(InternalError,
                       match="^eigenvalue multiplicities do not sum to the degree$"):
        _lift_values(table, values_mod, [d + 1 for d in table.degrees], ell, z)


def test_validation_rejects_a_value_in_an_empty_plane(group_of):
    # S5's values are rational, so every coefficient plane but the first is
    # zero across the whole table
    table = character_table(group_of("S5", None))
    assert not table.values[:, :, 1:].any()
    values = table.values.copy()
    values[3, 2, 5] = 1
    corrupted = CharTable(table.group, table.classes, table.conductor, values,
                          table.degrees, table.lift_meta)
    with pytest.raises(InternalError, match="^row orthogonality failed; table rejected$"):
        _validate_table(corrupted)


def column_relation_holds(table) -> bool:
    """sum_chi chi(g_k) chi*(g_l) = delta_kl |G| / |K_k| in Python integers:
    the column check that the validation ran before the row relation alone
    sufficed."""
    e, r = table.conductor, table.r
    col = np.swapaxes(table.values, 0, 1)
    got = exact_pairwise_products(col, np.tensordot(col, conj_matrix(e), axes=([2], [0])),
                                  np.ones(r, dtype=np.int64), e)
    expected = np.zeros_like(got)
    expected[np.arange(r), np.arange(r), 0] = [table.group.order // c.size
                                               for c in table.classes]
    return np.array_equal(got, expected)


def mutations(table):
    """The table's values and classes with one row doubled, and where the
    table has them, with two distinct values of a row swapped and one value
    negated, all off the identity class, and with two class sizes swapped."""
    values, classes = table.values, table.classes
    scaled = values.copy()
    scaled[-1] *= 2
    yield scaled, classes
    pair = next(((i, k, l) for i in reversed(range(table.r))
                 for k in range(1, table.r) for l in range(k + 1, table.r)
                 if not np.array_equal(values[i, k], values[i, l])), None)
    if pair:
        i, k, l = pair
        swapped = values.copy()
        swapped[i, [k, l]] = values[i, [l, k]]
        yield swapped, classes
    j = next((j for j in range(1, table.r) if values[-1, j].any()), None)
    if j:
        negated = values.copy()
        negated[-1, j] *= -1
        yield negated, classes
    sizes = [c.size for c in classes]
    if len(set(sizes)) > 1:
        k, l = 0, sizes.index(max(sizes))
        moved = list(classes)
        moved[k], moved[l] = replace(classes[k], size=sizes[l]), replace(classes[l], size=sizes[k])
        yield values, tuple(moved)


@pytest.mark.parametrize("name", acceptance_corpus())
def test_row_check_rejects_every_table_the_column_check_did(group_of, name):
    # the row relation implies the column relation (see _validate_table), so
    # each mutation that breaks the column relation also breaks the row one
    table = character_table(group_of(name, None))
    assert column_relation_holds(table)
    for values, classes in mutations(table):
        corrupted = CharTable(table.group, classes, table.conductor, values,
                              table.degrees, table.lift_meta)
        assert not column_relation_holds(corrupted)
        with pytest.raises(InternalError, match="^row orthogonality failed; table rejected$"):
            _validate_table(corrupted)


# the first two split many spaces on which a class matrix acts as a scalar;
# the third reads classes of orders 2 and 5 before those of order 10; the
# last three are nonabelian, with element orders that are not prime powers
# and conductors up to 420
SPLIT_CASES = CASES + [("C4xC2xC2xC2", None), ("C3xC3xC3xC2", None),
                       ("C2xC2xC2xC2xC5", None), ("F21xS5", None), ("S5xS4", None),
                       ("A5xA5", None)]


@pytest.mark.parametrize("case", SPLIT_CASES, ids=_case_id)
def test_eigenspace_split_matches_oracle(group_of, case):
    G = group_of(*case)
    table = character_table(G)
    a, ell = oracle_cmc(G, oracle_classes(G)), table.lift_meta["prime"]
    for reads in [_read_order(table), range(1, table.r)]:
        out = _common_eigenvectors(SparseTensor(a), ell, reads)
        assert out.dtype == np.int64
        assert np.array_equal(out, oracle_common_eigenvectors(a, ell, reads))


# C4xC2xC2xC2 reads 31 classes and C2^8 reads 128, all of size one; a read
# that maps every carried vector to a multiple of itself splits nothing and
# takes no Krylov blocks
@pytest.mark.parametrize("name, splits", [("C4xC2xC2xC2", 5), ("x".join(["C2"] * 8), 8)])
def test_split_runs_krylov_only_where_a_read_splits(monkeypatch, group_of, name, splits):
    G = group_of(name, None)
    table = character_table(G)
    a, ell = oracle_cmc(G, oracle_classes(G)), table.lift_meta["prime"]
    read, split = [], []

    class Recording:
        shape = a.shape

        def __getitem__(self, i):
            read.append(i)
            return triples(a[i])

    real_krylov = chartable.krylov_polynomial
    monkeypatch.setattr(chartable, "krylov_polynomial",
                        lambda rows, m, ell: split.append(read[-1]) or real_krylov(rows, m, ell))
    out = _common_eigenvectors(Recording(), ell, _read_order(table))
    assert len(split) == splits < len(read)
    # the oracle, reading only the classes that split, finds the same
    # spaces: every other read split nothing
    assert np.array_equal(out, oracle_common_eigenvectors(a, ell, split))


def element_order(x) -> int:
    """The order of a permutation, by tuple products."""
    k, acc = 1, x
    while acc != tuple(range(len(x))):
        acc = pmul(acc, x)
        k += 1
    return k


# C20 has classes of a prime order above a composite one (5 > 4), of the
# same size
@pytest.mark.parametrize("case", CASES + [("C20", None)], ids=_case_id)
def test_read_order_is_size_then_prime_element_order(group_of, case):
    table = character_table(group_of(*case))
    orders = [element_order(c.rep) for c in table.classes]
    expected = sorted(range(1, table.r), key=lambda k: (
        table.classes[k].size, not isprime(orders[k]), orders[k], k))
    assert _read_order(table) == expected


# the Lagrange rows taken in reverse, or row 1 standing in for row 0, give
# components of one eigenvalue labelled with another
@pytest.mark.parametrize("mislabel", [
    lambda rows: rows[::-1],
    lambda rows: rows[[min(1, len(rows) - 1)] + list(range(1, len(rows)))],
], ids=["reversed", "duplicated"])
def test_split_rejects_a_component_off_its_eigenvalue(monkeypatch, group_of, mislabel):
    G = group_of("C4xC2xC2xC2", None)
    table = character_table(G)
    real_lagrange = chartable.lagrange_basis
    monkeypatch.setattr(chartable, "lagrange_basis",
                        lambda roots, ell: mislabel(real_lagrange(roots, ell)))
    with pytest.raises(InternalError, match="^Lagrange component is not an eigenvector$"):
        _common_eigenvectors(SparseTensor(oracle_cmc(G, oracle_classes(G))),
                             table.lift_meta["prime"], _read_order(table))


# a Jordan block, and a rotation whose eigenvalues +-i are not in F_7
@pytest.mark.parametrize("block", [[[1, 1], [0, 1]], [[0, 6], [1, 0]]])
def test_split_rejects_a_class_matrix_that_is_not_diagonalizable(block):
    a = np.stack([np.eye(2, dtype=np.int32), np.array(block, dtype=np.int32)])
    with pytest.raises(InternalError, match="^eigenspace refinement lost dimension$"):
        _common_eigenvectors(SparseTensor(a), 7, [1])


def test_split_rejects_lines_off_the_identity_class():
    # diagonal class matrices split F^3 into the coordinate lines, and all
    # but the first vanish on the identity class: the identity row, itself
    # the first line, reaches no other
    a = np.stack([np.eye(3, dtype=np.int32)] + [np.diag([1, 2, 3]).astype(np.int32)] * 2)
    with pytest.raises(InternalError, match="^eigenspace refinement lost dimension$"):
        _common_eigenvectors(SparseTensor(a), 7, [1, 2])


def test_split_rejects_a_reachable_line_off_the_identity_class():
    # the transpose [[0, 1], [0, 1]] takes e_0 to (0, 1), a 1-eigenvector:
    # the components of e_0 are (1, 6) for 0 and (0, 1) for 1, which
    # vanishes on the identity class
    a = np.stack([np.eye(2, dtype=np.int32), np.array([[0, 0], [1, 1]], dtype=np.int32)])
    with pytest.raises(InternalError,
                       match="^central character vanishes on the identity class$"):
        _common_eigenvectors(SparseTensor(a), 7, [1])


def test_split_builds_only_the_class_matrices_it_reads(monkeypatch):
    # the matrices that a table builds, against the split's reads on the
    # whole oracle tensor; C20 reads its classes out of index order
    built = []
    real_build = _ClassMatrices.__getitem__

    def recording_build(matrices, i):
        built.append(i)
        return real_build(matrices, i)

    monkeypatch.setattr(_ClassMatrices, "__getitem__", recording_build)
    for G in [library_group("S7", Limits(max_order=5040)), library_group("C20")]:
        built.clear()
        table = character_table(G)
        oracle = oracle_cmc(G, oracle_classes(G))
        reads = []

        class Recording:
            shape = oracle.shape

            def __getitem__(self, i):
                reads.append(i)
                return triples(oracle[i])

        _common_eigenvectors(Recording(), table.lift_meta["prime"], _read_order(table))
        assert built == reads
        assert len(built) < table.r


def test_large_split_prime_trips_the_int64_guard(monkeypatch):
    # the lift's guard e * ell^2 < 2^53 runs first, so the split's guard
    # r * (ell - 1)^2 < 2^63 is the one that trips only where r > 2^10 * e:
    # C2^12 has r = 4096 classes and exponent 2
    G = library_group("x".join(["C2"] * 12))
    r, e = 4096, 2
    ell = isqrt(2**63 // r) + 2  # so r * (ell - 1)^2 > 2^63
    while not (ell % e == 1 and isprime(ell)):
        ell += 1
    assert e * ell * ell < 2**53
    monkeypatch.setattr(chartable, "_dixon_prime", lambda order, exponent: ell)
    with pytest.raises(ResourceError, match=r"2\^63") as info:
        character_table(G)
    assert str(r * (ell - 1) ** 2) in str(info.value)  # the value reached
    _check_exact(2**63 - 1, "edge", 63, "int64")
    with pytest.raises(ResourceError):
        _check_exact(2**63, "edge", 63, "int64")


def test_large_lift_prime_trips_the_float_guard_before_any_class_matrix(monkeypatch):
    G = library_group("S3")  # exponent 6
    e = 6
    ell = isqrt(2**53 // e) + 1  # so e * ell^2 >= 2^53
    while not (ell % e == 1 and isprime(ell)):
        ell += 1
    monkeypatch.setattr(chartable, "_dixon_prime", lambda order, exponent: ell)
    built = []
    monkeypatch.setattr(_ClassMatrices, "__getitem__", lambda matrices, i: built.append(i))
    with pytest.raises(ResourceError, match=r"^character value lift: .*2\^53") as info:
        character_table(G)
    assert str(e * ell * ell) in str(info.value)  # the value reached
    assert built == []


def test_large_reduction_prime_trips_the_int64_guard():
    # phi(5) * (p - 1)^2 = 4 * (2^31 - 2)^2 >= 2^63
    p = 2**31 - 1
    with pytest.raises(ResourceError, match=r"central character reduction.*2\^63") as info:
        block_field(p, 5).reduce_int_vector(np.ones((1, 4), dtype=np.int64), 5)
    assert str(4 * (p - 1) ** 2) in str(info.value)  # the value reached
    # phi(3) * (p - 1)^2 stays below 2^63, and the product is exact there
    field = block_field(p, 3)
    big = np.full((1, 2), p - 1, dtype=np.int64)
    assert np.array_equal(field.reduce_int_vector(big, 3), oracle_reduction(field, big, 3))


@pytest.mark.parametrize("e", [1, 4, 12, 15, 60, 105])
def test_pairwise_products_on_random_integers(e):
    rng = np.random.default_rng(e)
    phi = euler_phi(e)
    A = rng.integers(-10**4, 10**4, size=(3, 5, phi))
    B = rng.integers(-10**4, 10**4, size=(4, 5, phi))
    w = rng.integers(1, 10**3, size=5)
    assert np.array_equal(_pairwise_products(A, B, w, e),
                          exact_pairwise_products(A, B, w, e))


@pytest.mark.parametrize("zeroed", ["A", "B", "both", "all of A"])
@pytest.mark.parametrize("e", [12, 60, 105])
def test_pairwise_products_with_zero_planes(e, zeroed):
    rng = np.random.default_rng(e)
    phi = euler_phi(e)
    A = rng.integers(-10**4, 10**4, size=(3, 5, phi))
    B = rng.integers(-10**4, 10**4, size=(4, 5, phi))
    w = rng.integers(1, 10**3, size=5)
    if zeroed in ("A", "both"):
        planes = rng.choice(phi, phi // 2, replace=False)
        A[:, :, planes] = 0
        A[2, 4, planes[0]] = 7  # a plane that is nonzero in one entry only
    if zeroed in ("B", "both"):
        B[:, :, rng.choice(phi, phi - 1, replace=False)] = 0
    if zeroed == "all of A":
        A[:] = 0
    assert np.array_equal(_pairwise_products(A, B, w, e),
                          exact_pairwise_products(A, B, w, e))


def test_oversized_products_trip_the_float_guard():
    big = np.full((2, 3, 1), 2**20, dtype=np.int64)
    weights = np.full(3, 2**12, dtype=np.int64)
    with pytest.raises(ResourceError, match=r"2\^53") as info:
        _pairwise_products(big, big, weights, 2)
    assert str(3 * 2**52) in str(info.value)  # the bound that was reached
    _check_float_exact(2**53 - 1, "edge")
    with pytest.raises(ResourceError):
        _check_float_exact(2**53, "edge")


def s10_sized(planes):
    """Values up to 768 in the given planes of a [42, 42, phi(2520)] array,
    and weights summing to 10!: S10 has 42 classes, exponent 2520 and
    largest degree 768."""
    rng = np.random.default_rng(10)
    A = np.zeros((42, 42, euler_phi(2520)), dtype=np.int64)
    A[:, :, planes] = rng.integers(-768, 769, size=(42, 42, len(planes)))
    A[0, 0, planes] = 768
    return A, np.full(42, 3628800 // 42, dtype=np.int64)


def test_rational_s10_sized_products_pass_the_float_guard():
    # S10's values are rational, so they fill plane 0 alone
    A, w = s10_sized([0])
    phi = A.shape[2]
    # a bound over every plane and every reduction row refuses these
    rows = np.array(_power_reductions(2520)[: 2 * phi - 1], dtype=np.int64)[:, :phi]
    assert 768**2 * int(w.sum()) * phi * int(np.abs(rows).sum(axis=0).max()) >= 2**53
    # plane 0 times plane 0 lands in plane 0, which reduces to itself
    expected = np.zeros_like(A)
    expected[:, :, 0] = (A[:, :, 0] * w) @ A[:, :, 0].T
    assert np.array_equal(_pairwise_products(A, A, w, 2520), expected)


def test_many_nonzero_planes_still_trip_the_float_guard():
    A, w = s10_sized(list(range(euler_phi(2520))))
    with pytest.raises(ResourceError, match=r"^orthogonality check: .*2\^53"):
        _pairwise_products(A, A, w, 2520)


def test_row_lookup_rejects_non_elements():
    G = library_group("A4")
    arr = G._array()
    assert arr.rows.dtype == np.uint8
    assert arr.index(arr.rows[::-1]).tolist() == list(range(G.order))[::-1]
    odd = arr.perm((1, 0, 2, 3))[None, :]  # a transposition, not in A4
    with pytest.raises(InternalError):
        arr.index(odd)
    with pytest.raises(InternalError):
        G.normalizer_set(frozenset([0]), [(1, 0, 2, 3)])
    found, hit = arr.lookup(np.concatenate([arr.rows[2:3], odd]))
    assert hit.tolist() == [True, False] and found[0] == 2


def d15():
    """The dihedral group on 15 points, at the int64 key bound: it holds
    the reversal, whose key is the largest of any row of distinct points."""
    return Group(15, [tuple(range(1, 15)) + (0,), tuple(range(14, -1, -1))])


def c2_8():
    """C2^8 on 16 points, one past the int64 key bound."""
    return Group(16, [tuple(j ^ 1 if j // 2 == i else j for j in range(16))
                      for i in range(8)])


def assert_keys_ascend_with_rows(G):
    arr = G._array()
    keys = arr._row_keys(arr.rows)
    assert np.array_equal(keys, arr._keys)
    keys = keys.tolist()  # ints, or bytes past the bound
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert arr.rows.tolist() == sorted(arr.rows.tolist())
    if arr._radix is not None:  # the base-degree number of the row, exactly
        n = G.degree
        assert keys == [sum(x * n ** (n - 1 - j) for j, x in enumerate(row))
                        for row in arr.rows.tolist()]


@pytest.mark.parametrize("case", CASES + [("S6", None), ("S6", "7:S6")], ids=_case_id)
def test_row_keys_ascend_with_the_rows(group_of, case):
    G = group_of(*case)
    assert G._array()._radix is not None
    assert_keys_ascend_with_rows(G)


@pytest.mark.parametrize("seed", [None, 7])
def test_row_keys_at_and_past_the_int64_bound(seed):
    for G, radix in ((d15(), True), (c2_8(), False)):
        G = G if seed is None else relabelled(G, seed)
        assert (G._array()._radix is not None) == radix
        assert_keys_ascend_with_rows(G)


def test_row_keys_are_chunked_like_one_product():
    G = library_group("S4")
    arr = G._array()
    rows = arr.rows[np.arange(3 * _KEY_CHUNK + 5) % G.order]
    assert np.array_equal(arr._row_keys(rows), arr._keys[np.arange(len(rows)) % G.order])


@pytest.mark.parametrize("make", [d15, c2_8])
def test_lookup_misses_non_members_and_non_permutations(make):
    G = make()
    arr = G._array()
    n = G.degree
    swap = arr.perm((0, 2, 1) + tuple(range(3, n)))  # a transposition, no member
    repeated = arr.perm((0, 0) + tuple(range(1, n - 1)))  # no permutation
    top = arr.perm((n - 1,) * n)  # the largest row of points below n
    found, hit = arr.lookup(np.stack([arr.rows[-1], swap, repeated, top, arr.rows[0]]))
    assert hit.tolist() == [True, False, False, False, True]
    assert found[[0, 4]].tolist() == [G.order - 1, 0]
    assert not G.contains(tuple(repeated.tolist()))
    with pytest.raises(InternalError):
        arr.index(repeated[None, :])


def test_wide_degrees_use_uint16():
    n = 300
    G = Group(n, [tuple(range(1, n)) + (0,)])
    arr = G._array()
    assert arr.rows.dtype == np.uint16
    assert [c.size for c in G.conjugacy_classes()] == [1] * n
    assert np.array_equal(arr.index(arr.inv), np.array(
        [G.elements().index(pinv(x)) for x in G.elements()]))


def test_conjugation_is_the_galois_matrix_at_minus_one():
    for e in range(1, 121):
        assert np.array_equal(galois_matrix(e, -1), conj_matrix(e)), e


def test_nu_matches_the_divide_loop():
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 2001):
            assert _nu(n, p) == nu_by_division(n, p), (n, p)
