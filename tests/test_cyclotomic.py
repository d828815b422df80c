import random
from fractions import Fraction

import pytest

from cyclo_oracle import Cyclo
from kernel_oracles import cyclotomic_by_division
from pblocks.cyclotomic import cyclotomic_poly, euler_phi
from pblocks.errors import InputError


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    for e in range(1, 40):
        assert len(cyclotomic_poly(e)) == euler_phi(e) + 1
        assert cyclotomic_poly(e)[-1] == 1


def test_moebius_product_matches_long_division():
    for e in list(range(1, 501)) + [2520]:
        assert cyclotomic_poly(e) == cyclotomic_by_division(e), e


def test_root_of_unity_relations():
    for e in [2, 3, 4, 5, 6, 8, 12]:
        z = Cyclo.root_of_unity(e)
        acc = Cyclo.one()
        for _ in range(e):
            acc = acc * z
        assert acc == Cyclo.one()
        total = Cyclo.zero()
        for k in range(e):
            total = total + Cyclo.root_of_unity(e, k)
        assert total == Cyclo.zero()  # sum of all e-th roots, e > 1


def random_cyclo(rng, e):
    return Cyclo(e, tuple(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                          for _ in range(euler_phi(e))))


def test_ring_axioms():
    rng = random.Random(23)
    for e in [1, 4, 6, 12]:
        for _ in range(30):
            a, b, c = (random_cyclo(rng, e) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + Cyclo.zero() == a
            assert a * Cyclo.one() == a
            assert a - a == Cyclo.zero()


def test_cross_conductor_equality():
    # the same value written at different conductors compares equal
    z3 = Cyclo.root_of_unity(3)
    z6sq = Cyclo.root_of_unity(6, 2)
    assert z3 == z6sq
    assert Cyclo.from_rational(5).lift(12) == Cyclo.from_rational(5)
    assert Cyclo.root_of_unity(4) * Cyclo.root_of_unity(4) == Cyclo.from_rational(-1)


def test_lift_requires_divisibility():
    with pytest.raises(InputError):
        Cyclo.root_of_unity(4).lift(6)


def test_galois_and_conjugation():
    rng = random.Random(5)
    for e in [5, 8, 12]:
        for _ in range(20):
            a = random_cyclo(rng, e)
            b = random_cyclo(rng, e)
            for k in [x for x in range(1, e) if _gcd(x, e) == 1][:3]:
                assert a.galois(k) + b.galois(k) == (a + b).galois(k)
                assert a.galois(k) * b.galois(k) == (a * b).galois(k)
            assert a.conjugate().conjugate() == a
            norm = a * a.conjugate()
            # z * conj(z) is fixed by conjugation
            assert norm.conjugate() == norm
    with pytest.raises(InputError):
        Cyclo.root_of_unity(4).galois(2)


def test_golden_ratio_lives_in_conductor_five():
    # (1 + sqrt 5)/2 = -(z5^2 + z5^3); check its minimal polynomial x^2-x-1
    z = Cyclo.root_of_unity(5)
    phi = -(z * z + z * z * z)
    assert phi * phi - phi - Cyclo.one() == Cyclo.zero()
    assert not phi.is_rational()


def test_serialization_round_trip():
    rng = random.Random(31)
    for e in [1, 6, 12, 15]:
        for _ in range(10):
            a = random_cyclo(rng, e)
            assert Cyclo.from_pair(a.to_pair()) == a


def test_is_integral():
    assert Cyclo.root_of_unity(12, 7).is_integral()
    assert not (Cyclo.from_rational(Fraction(1, 2))).is_integral()


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
